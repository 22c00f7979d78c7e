"""Tests for the unified campaign engine (repro.campaign).

Covers the three engine guarantees the campaigns rely on:

* determinism — the same seed yields identical aggregated EPR for any
  worker count;
* resumability — an interrupted campaign, resumed, equals an
  uninterrupted one;
* golden-run caching — the fault-free reference is computed once per
  campaign, not once per injection.
"""

from __future__ import annotations

import errno
import json
import os
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignStore,
    CampaignUnitError,
    EngineConfig,
    UnitResult,
    WorkUnit,
    chunked,
    config_fingerprint,
    default_processes,
    execute,
)
from repro.campaign.engine import register_runner
from repro.campaign.goldens import GOLDEN_CACHE, golden_key
from repro.common.exceptions import ConfigError
from repro.errormodels.models import ErrorModel
from repro.faultinjection import CampaignConfig, run_gate_campaign
from repro.profiling import stimuli_from_program
from repro.resilience import integrity
from repro.swinjector import SwCampaignConfig, run_epr_campaign
from repro.workloads import get_workload


# ---------------------------------------------------------------------
# synthetic campaign kinds for engine-level tests
# ---------------------------------------------------------------------

@register_runner("test-echo")
def _echo(payload: dict) -> dict:
    return {"items": 1, "value": payload["x"] * 2}


@register_runner("test-crash")
def _crash(payload: dict) -> dict:
    raise ValueError(f"synthetic crash in unit {payload['x']}")


@register_runner("test-flaky")
def _flaky(payload: dict) -> dict:
    """Fails until its marker file exists (i.e. succeeds on retry)."""
    marker = payload["marker"]
    if os.path.exists(marker):
        return {"items": 1, "attempted": True}
    with open(marker, "w") as fh:
        fh.write("attempted")
    raise RuntimeError("transient failure, try again")


@register_runner("test-await-commit")
def _await_commit(payload: dict) -> dict:
    """Unit 1 succeeds only once unit 0's record is in the store."""
    if payload["x"] == 1:
        results = Path(payload["results"])
        deadline = time.monotonic() + 5.0
        while not (results.exists()
                   and payload["wait_for"] in results.read_text()):
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"{payload['wait_for']} not committed within 5 s")
            time.sleep(0.02)
    return {"items": 1}


def _gate_setup(**overrides) -> tuple[CampaignConfig, list]:
    """A small serial decoder campaign over vectoradd's stimuli."""
    stimuli = stimuli_from_program(
        get_workload("vectoradd", scale="tiny").program())
    cfg = CampaignConfig(**{"unit": "decoder", "max_stimuli": 8,
                            "processes": 1, **overrides})
    return cfg, stimuli


def _units(kind: str, n: int, **extra) -> list[WorkUnit]:
    return [WorkUnit(unit_id=f"{kind}/{i:03d}", kind=kind,
                     payload={"x": i, **extra})
            for i in range(n)]


class TestEngineCore:
    def test_serial_execution_collects_all(self):
        results = execute(_units("test-echo", 5), EngineConfig(processes=1))
        assert len(results) == 5
        assert all(r.ok for r in results.values())
        assert results["test-echo/003"].value["value"] == 6

    def test_pooled_execution_matches_serial(self):
        a = execute(_units("test-echo", 6), EngineConfig(processes=1))
        b = execute(_units("test-echo", 6), EngineConfig(processes=2))
        assert {k: r.value["value"] for k, r in a.items()} == \
            {k: r.value["value"] for k, r in b.items()}

    def test_completed_units_are_skipped(self, tmp_path):
        store = CampaignStore(tmp_path / "c")
        units = _units("test-echo", 4)
        execute(units[:2], EngineConfig(processes=1), store=store)
        results = execute(units, EngineConfig(processes=1), store=store)
        assert set(results) == {"test-echo/002", "test-echo/003"}

    def test_pool_commits_each_result_as_it_returns(self, tmp_path):
        # a pool wave appends unit 0 while unit 1 is still running, so a
        # crash of the parent mid-wave loses only the units in flight
        store = CampaignStore(tmp_path / "c")
        units = _units("test-await-commit", 2,
                       results=str(store.results_path),
                       wait_for="test-await-commit/000")
        results = execute(units, EngineConfig(processes=2, fail_fast=True),
                          store=store)
        assert all(r.ok and r.retries == 0 for r in results.values())
        assert store.completed_ids() == set(results)

    def test_store_error_in_pool_wave_propagates(self, tmp_path,
                                                 monkeypatch):
        # only pool creation degrades to serial: a full disk while
        # settling must not re-run the units committed before it
        store = CampaignStore(tmp_path / "c")
        appended = []
        real_append = store.append_result

        def append(result):
            appended.append(result.unit_id)
            if len(appended) > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            real_append(result)

        monkeypatch.setattr(store, "append_result", append)
        with pytest.raises(OSError):
            execute(_units("test-echo", 4), EngineConfig(processes=2),
                    store=store)
        assert appended == ["test-echo/000", "test-echo/001"]
        assert store.completed_ids() == {"test-echo/000"}

    def test_max_units_bounds_the_run(self):
        results = execute(_units("test-echo", 5),
                          EngineConfig(processes=1, max_units=2))
        assert len(results) == 2

    def test_crash_is_recorded_after_retries(self):
        seen = []
        results = execute(_units("test-crash", 1),
                          EngineConfig(processes=1, retries=2, backoff=0.0),
                          on_result=seen.append)
        r = results["test-crash/000"]
        assert not r.ok
        assert r.retries == 2
        assert "ValueError" in r.error and "synthetic crash" in r.error
        assert seen == [r]  # the failure is committed once, after retries

    def test_fail_fast_propagates_worker_traceback(self):
        with pytest.raises(CampaignUnitError) as exc:
            execute(_units("test-crash", 2),
                    EngineConfig(processes=1, fail_fast=True))
        assert "synthetic crash" in str(exc.value)
        assert exc.value.remote_traceback

    def test_transient_failure_succeeds_on_retry(self, tmp_path):
        units = [WorkUnit(unit_id="flaky/0", kind="test-flaky",
                          payload={"marker": str(tmp_path / "marker")})]
        results = execute(units, EngineConfig(processes=1, retries=2,
                                              backoff=0.0))
        r = results["flaky/0"]
        assert r.ok
        assert r.retries >= 1

    def test_chunked(self):
        assert chunked(range(5), 2) == [[0, 1], [2, 3], [4]]
        with pytest.raises(ConfigError):
            chunked(range(5), 0)

    def test_default_processes_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "3")
        assert default_processes() == 3
        monkeypatch.setenv("REPRO_PROCESSES", "junk")
        with pytest.raises(ConfigError):
            default_processes()
        monkeypatch.delenv("REPRO_PROCESSES")
        assert 1 <= default_processes() <= 8


class TestStore:
    def test_append_and_reload(self, tmp_path):
        store = CampaignStore(tmp_path / "c")
        store.write_manifest("test-echo", {"n": 2}, total_units=2)
        store.append_result(UnitResult("u/0", "test-echo", ok=True,
                                       value={"items": 3}, elapsed=0.5))
        store.append_result(UnitResult("u/1", "test-echo", ok=False,
                                       error="boom", elapsed=0.1))
        results = store.load_results()
        assert results["u/0"].items == 3
        assert store.completed_ids() == {"u/0"}  # failures re-run on resume
        status = store.status()
        assert status["completed_units"] == 1
        assert status["failed_units"] == 1
        assert not status["complete"]

    def test_fingerprint_guard(self, tmp_path):
        store = CampaignStore(tmp_path / "c")
        store.write_manifest("epr", {"seed": 1}, total_units=1)
        store.check_fingerprint("epr", {"seed": 1})
        with pytest.raises(ConfigError):
            store.check_fingerprint("epr", {"seed": 2})
        assert config_fingerprint("epr", {"seed": 1}) != \
            config_fingerprint("epr", {"seed": 2})

        # the library entry points share the guard: a store created for
        # one config refuses another before anything runs
        epr = SwCampaignConfig(apps=("vectoradd",), models=(ErrorModel.WV,),
                               injections_per_model=2, scale="tiny",
                               processes=1, seed=1)
        store = CampaignStore(tmp_path / "epr")
        run_epr_campaign(epr, store=store)
        before = store.results_path.read_text()
        with pytest.raises(ConfigError):
            run_epr_campaign(replace(epr, seed=2), store=store)
        assert store.results_path.read_text() == before

        gate, stimuli = _gate_setup(max_faults=64)
        store = CampaignStore(tmp_path / "gate")
        run_gate_campaign(gate, stimuli, store=store)
        with pytest.raises(ConfigError):
            run_gate_campaign(replace(gate, max_faults=32), stimuli,
                              store=store)
        # a different stimulus list is a different campaign, too
        with pytest.raises(ConfigError):
            run_gate_campaign(gate, stimuli[:-1], store=store)

    def test_status_requires_manifest(self, tmp_path):
        with pytest.raises(ConfigError):
            CampaignStore(tmp_path / "empty").status()


class TestGoldenCache:
    def test_content_addressed_and_hit_counted(self):
        GOLDEN_CACHE.clear()
        a = GOLDEN_CACHE.get("vectoradd", "tiny", 1)
        b = GOLDEN_CACHE.get("vectoradd", "tiny", 1)
        assert a is b
        assert a.key == golden_key("vectoradd", "tiny", 1)
        assert len(a.digest) == 64
        assert GOLDEN_CACHE.stats() == (1, 1)
        c = GOLDEN_CACHE.get("vectoradd", "tiny", 2)  # different seed
        assert c.key != a.key
        assert GOLDEN_CACHE.misses == 2

    def test_campaign_hit_rate_above_90pct(self, tmp_path):
        GOLDEN_CACHE.clear()
        cfg = SwCampaignConfig(apps=("vectoradd",),
                               models=(ErrorModel.WV, ErrorModel.IIO),
                               injections_per_model=10, scale="tiny",
                               processes=1)
        store = CampaignStore(tmp_path / "c")
        run_epr_campaign(cfg, store=store, chunk=1)
        assert store.status()["cache_hit_rate"] > 0.9
        # one golden compute per (app, scale, seed), never per injection
        assert GOLDEN_CACHE.misses == 1


class TestEprDeterminism:
    def test_worker_count_does_not_change_epr(self):
        base = dict(apps=("vectoradd",), injections_per_model=6,
                    scale="tiny", models=(ErrorModel.WV, ErrorModel.IRA))
        serial = run_epr_campaign(SwCampaignConfig(**base, processes=1))
        pooled = run_epr_campaign(SwCampaignConfig(**base, processes=3))
        for m in base["models"]:
            assert serial.counts("vectoradd", m) == \
                pooled.counts("vectoradd", m)
        assert serial.overall_epr() == pooled.overall_epr()

    def test_chunking_does_not_change_epr(self):
        cfg = SwCampaignConfig(apps=("vectoradd",),
                               models=(ErrorModel.IAT,),
                               injections_per_model=6, scale="tiny",
                               processes=1)
        a = run_epr_campaign(cfg, chunk=1)
        b = run_epr_campaign(cfg, chunk=6)
        assert a.counts("vectoradd", ErrorModel.IAT) == \
            b.counts("vectoradd", ErrorModel.IAT)


class TestEprResume:
    CFG = dict(apps=("vectoradd",), injections_per_model=6, scale="tiny",
               models=(ErrorModel.WV, ErrorModel.IMS))

    def test_interrupt_then_resume_matches_fresh(self, tmp_path):
        cfg = SwCampaignConfig(**self.CFG, processes=1)
        store = CampaignStore(tmp_path / "campaign")

        partial = run_epr_campaign(cfg, store=store, max_units=2, chunk=2)
        assert len(partial.outcomes) == 4  # 2 units x 2 injections
        assert len(store.completed_ids()) == 2
        assert store.load_manifest()["total_units"] == 6

        resumed = run_epr_campaign(cfg, store=store, chunk=2)
        fresh = run_epr_campaign(cfg, chunk=2)
        assert len(resumed.outcomes) == len(fresh.outcomes) == 12
        for m in cfg.models:
            assert resumed.counts("vectoradd", m) == \
                fresh.counts("vectoradd", m)
        assert resumed.overall_epr() == fresh.overall_epr()

    def test_resume_skips_completed_units(self, tmp_path):
        cfg = SwCampaignConfig(**self.CFG, processes=1)
        store = CampaignStore(tmp_path / "campaign")
        run_epr_campaign(cfg, store=store, chunk=2)
        before = store.results_path.read_text()
        run_epr_campaign(cfg, store=store, chunk=2)
        assert store.results_path.read_text() == before  # nothing re-run

    def test_store_with_retired_shard_field_resumes(self, tmp_path):
        # older stores sealed a ``shard`` field into every record; they
        # must still load, resume with nothing re-run and aggregate alike
        cfg = SwCampaignConfig(**self.CFG, processes=1)
        store = CampaignStore(tmp_path / "campaign")
        fresh = run_epr_campaign(cfg, store=store, chunk=2)
        old = "".join(
            json.dumps(integrity.seal({"unit_id": body["unit_id"],
                                       "kind": body["kind"],
                                       "shard": i % 8, **body})) + "\n"
            for i, body in enumerate(
                integrity.scan_jsonl(store.results_path).records))
        store.results_path.write_text(old)
        resumed = run_epr_campaign(cfg, store=store, chunk=2)
        assert store.results_path.read_text() == old  # 0 units re-run
        assert store.status()["complete"]
        for m in cfg.models:
            assert resumed.counts("vectoradd", m) == \
                fresh.counts("vectoradd", m)
        assert resumed.overall_epr() == fresh.overall_epr()

    def test_truncated_results_requeue_units(self, tmp_path):
        cfg = SwCampaignConfig(**self.CFG, processes=1)
        store = CampaignStore(tmp_path / "campaign")
        run_epr_campaign(cfg, store=store, chunk=2)
        fresh = run_epr_campaign(cfg, chunk=2)
        lines = store.results_path.read_text().splitlines()
        store.results_path.write_text("\n".join(lines[:-2]) + "\n")
        resumed = run_epr_campaign(cfg, store=store, chunk=2)
        for m in cfg.models:
            assert resumed.counts("vectoradd", m) == \
                fresh.counts("vectoradd", m)
        # the gate case is tests/test_results_io.py::TestCheckpointing::
        # test_partial_checkpoint_resumes_missing_batches


class TestGateOnEngine:
    def test_store_resume_matches_plain_run(self, tmp_path):
        cfg, stimuli = _gate_setup(max_faults=256, words=1)  # several batches
        plain = run_gate_campaign(cfg, stimuli)

        store = CampaignStore(tmp_path / "gate")
        partial = run_gate_campaign(cfg, stimuli, store=store, max_units=2)
        assert partial.total_faults < plain.total_faults
        resumed = run_gate_campaign(cfg, stimuli, store=store)
        assert resumed.category_counts() == plain.category_counts()
        assert resumed.faults_per_error() == plain.faults_per_error()

    @pytest.mark.parametrize("max_stimuli", [1000, None])
    def test_num_stimuli_is_the_plans(self, max_stimuli):
        from repro.campaign.plans import get_spec

        spec = get_spec("gate")
        config = dict(spec.default_config(max_faults=64),
                      max_stimuli=max_stimuli)
        plan = spec.build(config)
        results = execute(plan.units, EngineConfig(processes=1),
                          context=plan.context)
        res = spec.aggregate(plan.config, results)
        assert 0 < res.num_stimuli == len(plan.context["stimuli"]) < 1000


class TestCli:
    def test_run_resume_status_roundtrip(self, tmp_path, capsys):
        from repro.campaign.__main__ import main

        d = str(tmp_path / "cli")
        rc = main(["run", "--scale", "tiny", "--apps", "vectoradd",
                   "--models", "WV", "--injections", "4", "--chunk", "2",
                   "--interrupt-after", "1", "--serial", "--dir", d])
        assert rc == 0
        rc = main(["resume", "--dir", d, "--serial"])
        assert rc == 0
        rc = main(["status", "--dir", d])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"complete": true' in out
        assert '"injections": 4' in out

    def test_resume_does_not_count_quarantined_units_pending(self, tmp_path,
                                                             capsys):
        from repro.campaign.__main__ import main

        d = tmp_path / "cli"
        assert main(["run", "--apps", "vectoradd", "--models", "WV",
                     "--injections", "6", "--chunk", "2",
                     "--interrupt-after", "1", "--serial",
                     "--dir", str(d)]) == 0
        # of the 3 units, 1 completed and 1 is parked: execute skips it
        CampaignStore(d).append_quarantine(
            UnitResult("epr/vectoradd/WV/00004+2", "epr", ok=False,
                       error="boom"), "retries exhausted after 3 attempts")
        capsys.readouterr()
        assert main(["resume", "--dir", str(d), "--serial"]) == 3  # holes
        assert "1 of 3 units pending" in capsys.readouterr().out

    def test_run_logs_progress_and_status_tallies_accel(self, tmp_path,
                                                         capsys):
        from repro.campaign.__main__ import main

        d = tmp_path / "cli"
        assert main(["run", "--apps", "vectoradd", "--models", "WV",
                     "--injections", "20", "--chunk", "2", "--serial",
                     "--static-prune", "--dir", str(d)]) == 0
        out = capsys.readouterr().out
        progress = [ln for ln in out.splitlines()
                    if ln.startswith("[campaign]")]
        assert len(progress) == 1  # every 10 units
        assert progress[0].startswith("[campaign] 10 units, 20 items")
        status = json.loads(out[out.index("\n{") + 1:out.index("\n}") + 2])
        results = CampaignStore(d).load_results().values()
        assert status["pruned"] == sum(r.pruned for r in results)
        assert status["accel"]["collapsed"] == \
            sum(r.accel["collapsed"] for r in results)
        assert "enabled" not in status["accel"]  # flags are not summed

    def test_status_on_non_campaign_dir_errors(self, tmp_path):
        from repro.campaign.__main__ import main

        assert main(["status", "--dir", str(tmp_path / "nope")]) == 2

    def test_unknown_kind_rejected(self):
        from repro.campaign.plans import get_spec

        with pytest.raises(ConfigError):
            get_spec("nonsense")

    @pytest.mark.parametrize("flags", [
        ["--apps", "doom"],
        ["--apps", "vectoradd", "--models", "XYZ"],
    ])
    def test_unknown_epr_input_rejected(self, tmp_path, capsys, flags):
        from repro.campaign.__main__ import main

        d = tmp_path / "bad"
        assert main(["run", "--kind", "epr", "--dir", str(d)] + flags) == 2
        assert "unknown" in capsys.readouterr().err
        assert not (d / "manifest.json").exists()

    def test_unknown_gate_unit_rejected(self, tmp_path):
        cfg, stimuli = _gate_setup(unit="XYZ", max_faults=64)
        store = CampaignStore(tmp_path / "bad")
        with pytest.raises(ConfigError):
            run_gate_campaign(cfg, stimuli, store=store)
        assert not store.manifest_path.exists()

    def test_resume_of_library_gate_store_rejected(self, tmp_path, capsys):
        from repro.campaign.__main__ import main

        # its stimuli came from the caller: the manifest cannot rebuild them
        cfg, stimuli = _gate_setup(max_faults=64)
        run_gate_campaign(cfg, stimuli, store=CampaignStore(tmp_path / "g"))
        assert main(["resume", "--dir", str(tmp_path / "g")]) == 2
        assert "caller-supplied stimuli" in capsys.readouterr().err

    def test_epr_run_prints_per_model_epr(self, tmp_path, capsys):
        from repro.campaign.__main__ import main

        rc = main(["run", "--apps", "vectoradd", "--models", "WV,IIO",
                   "--injections", "3", "--serial",
                   "--dir", str(tmp_path / "epr")])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"overall_epr_%"' in out
        summary = json.loads(out[out.rindex("\n{"):])
        assert set(summary["average_epr_%"]) == {"WV", "IIO"}
        for row in summary["average_epr_%"].values():
            assert set(row) == {"masked", "sdc", "due"}
            assert sum(row.values()) == pytest.approx(100.0, abs=0.05)

    def test_gate_run_prints_fapr(self, tmp_path, capsys):
        from repro.campaign.__main__ import main

        rc = main(["run", "--kind", "gate", "--unit", "decoder",
                   "--max-faults", "128", "--max-stimuli", "8", "--serial",
                   "--dir", str(tmp_path / "gate")])
        assert rc == 0
        out = capsys.readouterr().out
        summary = json.loads(out[out.rindex("\n{"):])
        assert summary["stimuli"] == 8
        assert summary["category_rates_%"]["sw_error"] > 0
        assert summary["fapr_%"]
        assert all(0 < v <= 100 for v in summary["fapr_%"].values())
        rc = main(["status", "--dir", str(tmp_path / "gate")])
        assert rc == 0
        assert '"fapr_%"' in capsys.readouterr().out
