"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest htvmbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import run
from serve_phase import Request, TierLog, count_stalls
from tracing import LayerClock

TINY = ["--seconds", "1"]


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _toyadmos_only(name: str) -> bool:
    """Only ToyADMOS is compiled at the tests' size, so the modeled
    latency of the other models' Table I cells is not measured."""
    return not name.startswith("soc.modeled_ms.") or ".toyadmos." in name


@pytest.fixture
def tiny(monkeypatch):
    """One set-up of ToyADMOS alone; the environment ``run.main``
    changes is restored afterwards."""
    declared = run.declared_metrics
    monkeypatch.setattr(run, "MODELS", ("toyadmos",))
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "declared_metrics", lambda trace: [
        n for n in declared(trace) if _toyadmos_only(n)])
    for var in ("REPRO_NATIVE_CACHE", "TMPDIR"):
        monkeypatch.setenv(var, os.environ.get(var, ""))
    monkeypatch.setattr(tempfile, "tempdir", tempfile.gettempdir())


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(tiny, capsys, trace,
                                                        key):
    code = run.main(["--workload", "l1-16kb", "--seed", "3", "--trace",
                     str(trace), *TINY])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = [m for m in _spec()[key] if _toyadmos_only(m["name"])]
    for m in declared:
        name = m["name"]
        assert name in result["metrics"], name
        got = result["metrics"][name]
        assert got["unit"] == m["unit"], name
        assert isinstance(got["value"], (int, float)), name
    assert len(result["metrics"]) == len(declared)


def test_corrupted_output_trips_the_check(tiny, monkeypatch, capsys):
    from repro.runtime import Executor

    honest = Executor.run

    def corrupt(self, model, feeds):
        result = honest(self, model, feeds)
        result.output = result.output ^ 1
        return result

    monkeypatch.setattr(Executor, "run", corrupt)
    code = run.main(["--workload", "platform-l1", "--seed", "4", *TINY])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0
    assert any(line.startswith("FAILED:") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "htvmbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "htvmbench/run.py", "--workload", "platform-l1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _req(sent: float, done: float) -> Request:
    return Request(due=sent, model="m", index=0, future=object(), sent=sent,
                   done=done, ok=True)


def test_stalls_count_quiet_gaps_with_requests_outstanding():
    busy = [_req(0.0, 0.01), _req(0.02, 0.40), _req(0.03, 0.41)]
    assert count_stalls(TierLog(busy, 0.0)) == 1
    # a long idle gap with nothing outstanding is not a stall
    idle = [_req(0.0, 0.01), _req(1.0, 1.01)]
    assert count_stalls(TierLog(idle, 0.0)) == 0


def test_self_times_of_nested_layers_add_up_to_the_wall_time():
    clock = LayerClock()
    inner = clock.wrap("inner", lambda: sum(range(20000)))

    def outer_fn():
        inner()
        inner()
        return sum(range(20000))

    outer = clock.wrap("outer", outer_fn)
    outer()
    assert clock.calls == {"inner": 2, "outer": 1}
    total = clock.self_s["inner"] + clock.self_s["outer"]
    assert total == pytest.approx(clock.incl_s["outer"])
    assert clock.self_s["outer"] < clock.incl_s["outer"]
