"""Smoke test of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q ckbench/test_smoke.py

Checks that ``run.py`` prints one JSON object of the contracted shape,
whose metric names and units are exactly those in ``BENCHMARK.json``,
that every workload runs and passes its checks at a tiny op count, and
that a wrap point that no longer exists is reported, not fatal.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "queries",
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_contracted_json(trace, section):
    out = _run(trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    for m in out["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in out["metrics"].values())


# Per workload, class attributes that shrink its round to a few ops.
TINY = {
    "sweep": {"SIGNATURES": workloads.Sweep.SIGNATURES[:2], "round_len": 2},
    "search": {"EVERY": (), "DRAWN": ((("CKB", "cex1"), 1), (("IKB", "none"), 1), (("compare", None), 1))},
    "prove": {"RANDOM": 2},
    "queries": {"DECK": 3, "round_len": 3},
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_runs_and_checks(name, monkeypatch):
    cls = workloads.WORKLOADS[name]
    for attr, value in TINY[name].items():
        monkeypatch.setattr(cls, attr, value)
    monkeypatch.setattr(workloads, "FAMILIES", ((workloads.de_bruijn, 2, "a"),))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = worker.main(["--workload", name, "--seed", "5", "--mode", "traced",
                            "--workdir", os.path.join(HERE, "out", "smoke-work")])
    assert code == 0
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert result["ops"] == result["round_len"] and result["failed"] == 0, result["errors"]
    per_layer = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_frac"}
    assert set(result["layers"]) == per_layer
    assert result["absent"] == []


def test_missing_wrap_point_is_reported(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPS", tracing.WRAPS + (
        ("ckkit.semantics", "no_such_function", "semantics", "call"),
        ("ckkit.no_such_module", "f", "semantics", "call"),
    ))
    tracer = tracing.Tracer()
    undo = tracer.install()
    try:
        assert tracer.absent == ["ckkit.semantics.no_such_function", "ckkit.no_such_module.f"]
    finally:
        tracing.Tracer.uninstall(undo)
