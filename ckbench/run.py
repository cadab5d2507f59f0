#!/usr/bin/env python3
"""ckkit benchmark: one run of one workload.

    python3 ckbench/run.py --workload search --seed 1 --seconds 50 --trace 0

Run from the repository root.  Each run starts fresh interpreters with
``src`` on ``PYTHONPATH`` (see ``worker.py``), so nothing is installed
and every cache starts cold.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median
of ``SETUPS`` fresh set-ups (interpreter start to the first timed op),
half of them before and half after the measured run, and the other
metrics come from the measured run, the last set-up before it, which
goes on to run rounds of ops for ``--seconds`` (see ``worker.py``); a
workload that stops at its ``max_rounds`` first goes on in fresh
processes.  ``--trace 1`` prints the per-layer metrics of a traced run
of the workload's first round, and ``trace.overhead_frac`` from an
untraced run of the same round.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record
(environment, tail percentile, sample counts, digest) goes to
``ckbench/out/``.  A run whose verdict digest differs from the one
recorded for its seed in ``data/digests.json`` counts its first round
as failed.  Every worker gets ``PYTHONHASHSEED`` from ``--seed``: the
order in which ckkit walks its sets follows string hashes, and with it
the cost of a proof search, so one seed always makes the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "search", "prove", "queries")
# Fresh set-ups per run, half before the measured run (its own set-up
# is the last of these) and half after it.  Set-up is a second or less,
# and the host's speed drifts over seconds, so set-ups taken one after
# another all see one speed; two groups half a minute apart see two.
SETUPS = 4
DEADLINE_S = 170.0

UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_batch"):
        return "models/call"
    return "count"


def latency_summary(latencies) -> dict:
    """Median, and the highest percentile with at least ten samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return {
        "n": n,
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": ordered[k] * 1e3,
        "tail_pct": 100.0 * (k + 1) / n,
        "beyond_tail": n - 1 - k,
    }


class RunError(RuntimeError):
    pass


class Runner:
    def __init__(self, root: str, workload: str, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.began = time.perf_counter()
        self.out_dir = os.path.join(HERE, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONHASHSEED"] = str(seed % 4294967296)
        self.env = env

    def spawn(self, mode: str, spans: str | None = None, seconds: float | None = None) -> tuple[dict, float]:
        """Run one worker; returns its result and its set-up time."""
        remaining = DEADLINE_S - (time.perf_counter() - self.began)
        if remaining <= 0:
            raise RunError("out of time")
        argv = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--seconds", str(self.seconds if seconds is None else seconds), "--mode", mode,
            "--workdir", os.path.join(self.out_dir, f"work-{os.getpid()}"),
        ]
        if spans:
            argv += ["--spans", spans]
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired:
            raise RunError(f"{mode} worker did not finish in time") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RunError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        return result, result["setup_end"] - started

    def digest_check(self, result: dict, round_ops: int) -> tuple[str, int]:
        """(status, ops to count as failed) for the run's verdict digest."""
        with open(os.path.join(HERE, "data", "digests.json"), encoding="utf-8") as fh:
            recorded = json.load(fh).get(self.workload, {}).get(str(self.seed))
        if recorded is None:
            return "unrecorded", 0
        if recorded == result["digest"]:
            return "match", 0
        return "MISMATCH", round_ops

    def end_to_end(self) -> dict:
        setups = [self.spawn("setup")[1] for _ in range(SETUPS // 2 - 1)]
        # A workload whose memory grows with every op stops at its
        # max_rounds; the rest of --seconds goes to fresh processes, each
        # starting cold as a new command-line session would.
        parts = []
        while not parts or sum(p["wall_s"] for p in parts) < self.seconds:
            result, setup_s = self.spawn("run", seconds=self.seconds - sum(p["wall_s"] for p in parts))
            if not parts:
                setups.append(setup_s)
            parts.append(result)
        setups += [self.spawn("setup")[1] for _ in range(SETUPS - len(setups))]
        n = parts[0]["round_len"]
        weights = [p["ops"] / n for p in parts]

        def pooled(key):
            return [sum(w * p[key][s] for w, p in zip(weights, parts)) / sum(weights) for s in range(n)]

        lat = latency_summary(pooled("slot_cpu_s"))
        ops = sum(p["ops"] for p in parts)
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": n / sum(pooled("slot_wall_s")),
            "op_p50_ms": lat["p50_ms"],
            "op_tail_ms": lat["tail_ms"],
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        }
        digest = parts[0]["digest"]
        status, digest_failed = self.digest_check(parts[0], n)
        digest_failed += n * sum(p["digest"] != digest for p in parts[1:])
        failed_checks = sum(p["failed"] for p in parts)
        record = {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds, "trace": 0,
            "env": parts[0]["env"], "metrics": metrics, "setup_samples_s": setups,
            "latency": lat, "wall_s": sum(p["wall_s"] for p in parts), "processes": len(parts), "ops": ops,
            "rounds": ops / n, "failed_checks": failed_checks, "digest": digest, "digest_status": status,
            "errors": [e for p in parts for e in p["errors"]][:5],
        }
        return self._finish(record, ops, failed_checks + digest_failed, metrics, UNITS)

    def per_layer(self) -> dict:
        spans = os.path.join(self.out_dir, f"spans-{self.workload}-s{self.seed}.jsonl")
        plain, _ = self.spawn("fixed")
        traced, _ = self.spawn("traced", spans=spans)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        status, digest_failed = self.digest_check(traced, traced["ops"])
        if plain["digest"] != traced["digest"]:
            status, digest_failed = "MISMATCH traced vs untraced", traced["ops"]
        record = {
            "workload": self.workload, "seed": self.seed, "trace": 1, "env": traced["env"],
            "metrics": metrics, "absent": traced["absent"], "ops": traced["ops"],
            "untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
            "failed_checks": traced["failed"] + plain["failed"], "digest": traced["digest"],
            "digest_status": status, "errors": traced["errors"] + plain["errors"], "spans": spans,
        }
        attempted = traced["ops"] + plain["ops"]
        failed = traced["failed"] + plain["failed"] + digest_failed
        units = {name: per_layer_unit(name) for name in metrics}
        return self._finish(record, attempted, failed, metrics, units)

    def _finish(self, record, attempted, failed, metrics, units) -> dict:
        path = os.path.join(self.out_dir, f"result-{self.workload}-s{self.seed}-t{record['trace']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        print(f"{self.workload} seed={self.seed} env={record['env']} digest={record['digest']} "
              f"({record['digest_status']}) -> {os.path.relpath(path, self.root)}", file=sys.stderr)
        for line in record["errors"]:
            print("  " + line, file=sys.stderr)
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one ckkit benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ckkit", "__init__.py")):
        print("error: run from the repository root (src/ckkit not found)", file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed, args.seconds)
    try:
        out = runner.per_layer() if args.trace else runner.end_to_end()
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
