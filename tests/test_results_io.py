"""Round-trip tests for campaign results through the sealed store.

The store is the only result file: a campaign read back as
``spec.aggregate(config, store.load_results())`` must equal the result
the campaign returned in memory.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignStore, get_spec
from repro.errormodels.models import ErrorModel
from repro.faultinjection import CampaignConfig, run_gate_campaign
from repro.profiling import stimuli_from_program
from repro.swinjector import SwCampaignConfig, run_epr_campaign
from repro.workloads import get_workload


def _read_back(store: CampaignStore):
    manifest = store.load_manifest()
    return get_spec(manifest["kind"]).aggregate(manifest["config"],
                                                store.load_results())


@pytest.fixture(scope="module")
def gate_stimuli():
    return stimuli_from_program(get_workload("vectoradd", scale="tiny")
                                .program())


@pytest.fixture(scope="module")
def gate_run(gate_stimuli, tmp_path_factory):
    store = CampaignStore(tmp_path_factory.mktemp("gate"))
    res = run_gate_campaign(
        CampaignConfig(unit="decoder", max_faults=128, max_stimuli=8),
        gate_stimuli, store=store)
    return res, store


@pytest.fixture(scope="module")
def epr_run(tmp_path_factory):
    cfg = SwCampaignConfig(apps=("vectoradd",), injections_per_model=4,
                           scale="tiny",
                           models=(ErrorModel.WV, ErrorModel.IIO))
    store = CampaignStore(tmp_path_factory.mktemp("epr"))
    return run_epr_campaign(cfg, store=store), store


class TestGateResultIO:
    def test_roundtrip_preserves_rates(self, gate_run):
        gate_result, store = gate_run
        back = _read_back(store)
        assert back.unit == gate_result.unit
        assert back.num_stimuli == gate_result.num_stimuli == 8
        assert back.category_counts() == gate_result.category_counts()
        assert back.fapr() == gate_result.fapr()
        assert back.times_produced() == gate_result.times_produced()


class TestEprResultIO:
    def test_roundtrip_preserves_epr(self, epr_run):
        epr_result, store = epr_run
        back = _read_back(store)
        for m in epr_result.config.models:
            assert back.epr("vectoradd", m) == epr_result.epr("vectoradd", m)
        assert back.overall_epr() == epr_result.overall_epr()


class TestCheckpointing:
    def test_resume_produces_identical_result(self, gate_run, gate_stimuli):
        gate_result, store = gate_run
        before = store.results_path.read_text()
        resumed = run_gate_campaign(
            CampaignConfig(unit="decoder", max_faults=128, max_stimuli=8),
            gate_stimuli, store=store)
        assert store.results_path.read_text() == before  # nothing re-run
        assert resumed.category_counts() == gate_result.category_counts()
        assert resumed.faults_per_error() == gate_result.faults_per_error()

    def test_partial_checkpoint_resumes_missing_batches(self, gate_stimuli,
                                                        tmp_path):
        # cutting the last results.jsonl line re-runs only that batch
        cfg = CampaignConfig(unit="decoder", max_faults=256, max_stimuli=8,
                             words=1, processes=1)  # several small batches
        store = CampaignStore(tmp_path / "gate")
        run_gate_campaign(cfg, gate_stimuli, store=store)
        lines = store.results_path.read_text().splitlines()
        store.results_path.write_text("\n".join(lines[:-1]) + "\n")
        resumed = run_gate_campaign(cfg, gate_stimuli, store=store)
        # exactly the cut batch was re-run and appended
        assert len(store.results_path.read_text().splitlines()) == len(lines)
        plain = run_gate_campaign(cfg, gate_stimuli)
        assert resumed.category_counts() == plain.category_counts()
        assert resumed.faults_per_error() == plain.faults_per_error()
