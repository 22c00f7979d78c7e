"""Gate-level models of the paper's target units.

Each unit module exposes a ``build_*`` function returning a
:class:`~repro.gatelevel.units.base.UnitModel`: the netlist plus the
stimulus-to-input-sequence driver and the semantic tags of every output
bus (consumed by :mod:`repro.errormodels.classify` to map output
corruptions onto the 13 instruction-level error models).
"""

from repro.common.exceptions import ConfigError
from repro.gatelevel.units.base import Stimulus, UnitModel
from repro.gatelevel.units.decoder import build_decoder_unit
from repro.gatelevel.units.fetch import build_fetch_unit
from repro.gatelevel.units.wsc import build_wsc_unit

__all__ = [
    "Stimulus",
    "UnitModel",
    "build_decoder_unit",
    "build_fetch_unit",
    "build_wsc_unit",
]


def build_unit(name: str) -> UnitModel:
    """Build one of the three target units by paper name."""
    table = {
        "wsc": build_wsc_unit,
        "fetch": build_fetch_unit,
        "decoder": build_decoder_unit,
    }
    if name not in table:
        raise ConfigError(f"unknown unit {name!r}; known: {sorted(table)}")
    return table[name]()
