"""Tests that a campaign run from the command line saves its result.

``python -m repro.campaign run --dir D`` keeps the result in the sealed
store at ``D``; reading it back is ``spec.aggregate(config,
store.load_results())``.
"""

from __future__ import annotations

from repro.campaign import CampaignStore, get_spec
from repro.campaign.__main__ import main


def _load(directory):
    store = CampaignStore(directory)
    manifest = store.load_manifest()
    return get_spec(manifest["kind"]).aggregate(manifest["config"],
                                                store.load_results())


class TestSwInjectorCli:
    def test_save(self, tmp_path, capsys):
        d = tmp_path / "epr"
        rc = main(["run", "--kind", "epr", "--apps", "vectoradd",
                   "--models", "IIO", "--injections", "2", "--serial",
                   "--dir", str(d)])
        assert rc == 0
        res = _load(d)
        assert sum(res.counts("vectoradd",
                              res.config.models[0]).values()) == 2


class TestFaultInjectionCli:
    def test_save(self, tmp_path, capsys):
        d = tmp_path / "gate"
        rc = main(["run", "--kind", "gate", "--unit", "decoder",
                   "--max-faults", "64", "--max-stimuli", "6", "--serial",
                   "--dir", str(d)])
        assert rc == 0
        res = _load(d)
        assert res.unit == "decoder"
        assert res.num_stimuli == 6
