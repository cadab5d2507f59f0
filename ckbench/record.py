#!/usr/bin/env python3
"""Record the benchmark's reference data; run from the repository root.

    python3 ckbench/record.py verdicts          # data/search_verdicts.json (~10 min)
    python3 ckbench/record.py digests 1-12      # data/digests.json, per seed
    python3 ckbench/record.py digests-from-out  # same, from run.py's result files
    python3 ckbench/record.py baseline LABEL    # baseline.json from ckbench/out/

``verdicts`` runs ``find_countermodel`` on every axiom instance of the
search workload under each class at 3 worlds and stores the verdict and
the world count of the first countermodel.  ``digests`` runs each
workload's first round per seed and stores the verdict digest; later
runs on those seeds must reproduce it.  ``digests-from-out`` takes the
digests of checked runs already in ``ckbench/out/``.  ``baseline`` summarises the
result files of a set of runs (median and quartiles per metric) under a
label, refusing to mix kernel backends.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")


def _write(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def verdicts() -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from ckkit.axioms import SCHEMA_NAMES, instances
    from ckkit.formula import render
    from ckkit.search import Counterexample, EnumParams, find_countermodel

    pool = list(instances(SCHEMA_NAMES, ("p",), 2))
    table: dict[str, dict] = {}
    for cls in ("CKB", "IKB", "IK", "CK"):
        params = EnumParams(max_worlds=3, props=("p",), class_filter=cls)
        table[cls] = {}
        for f in pool:
            v = find_countermodel(f, params)
            if isinstance(v, Counterexample):
                table[cls][render(f)] = {"verdict": "cex", "worlds": len(v.model.worlds)}
            else:
                table[cls][render(f)] = {"verdict": "none", "worlds": 0}
        print(cls, "done", file=sys.stderr)
    _write(os.path.join(DATA, "search_verdicts.json"), {
        "about": "find_countermodel verdicts at max_worlds=3, props p, for "
                 "axioms.instances(SCHEMA_NAMES, ('p',), 2); recorded by ckbench/record.py verdicts",
        "verdicts": table,
    })


def _seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def digests(spec: str, workloads: list[str]) -> None:
    path = os.path.join(DATA, "digests.json")
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    for name in workloads:
        for seed in _seeds(spec):
            env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"),
                       PYTHONHASHSEED=str(seed % 4294967296))
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
                 "--seed", str(seed), "--mode", "fixed",
                 "--workdir", os.path.join(HERE, "out", f"work-{os.getpid()}")],
                env=env, capture_output=True, text=True, check=True, timeout=300,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if result["failed"]:
                raise SystemExit(f"{name} seed {seed}: {result['failed']} ops failed their checks")
            table.setdefault(name, {})[str(seed)] = result["digest"]
            print(name, seed, result["digest"], file=sys.stderr)
            _write(path, table)


def digests_from_out() -> None:
    path = os.path.join(DATA, "digests.json")
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    for result in sorted(glob.glob(os.path.join(HERE, "out", "result-*.json"))):
        with open(result, encoding="utf-8") as fh:
            rec = json.load(fh)
        if rec["failed_checks"] or rec["digest_status"].startswith("MISMATCH"):
            raise SystemExit(f"{result}: failed checks or digest mismatch; not recorded")
        got = table.setdefault(rec["workload"], {}).setdefault(str(rec["seed"]), rec["digest"])
        if got != rec["digest"]:
            raise SystemExit(f"{result}: digest differs from the one recorded")
    _write(path, table)


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med if med else None,
            "n": len(values)}


def baseline(label: str) -> None:
    runs: dict[tuple, list] = {}
    envs = set()
    for path in sorted(glob.glob(os.path.join(HERE, "out", "result-*.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        envs.add(rec["env"]["kernel_backend"])
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    if len(envs) != 1:
        raise SystemExit(f"result files mix kernel backends {sorted(envs)}; refusing to summarise")
    out_path = os.path.join(HERE, "baseline.json")
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = {"about": "Benchmark trajectory: one entry per measured commit, oldest first.",
               "entries": []}
    entry = {"label": label, "workloads": {}}
    for (workload, trace), recs in sorted(runs.items()):
        w = entry["workloads"].setdefault(workload, {})
        w["env"] = recs[0]["env"]
        metrics = {name: _quartiles([r["metrics"][name] for r in recs]) for name in recs[0]["metrics"]}
        if trace:
            w["per_layer"] = metrics
            w["traced_seeds"] = [r["seed"] for r in recs]
            w["absent"] = sorted({a for r in recs for a in r["absent"]})
        else:
            w["end_to_end"] = metrics
            w["seeds"] = [r["seed"] for r in recs]
            w["seconds"] = sorted({r["seconds"] for r in recs})
            w["ops_per_run"] = _quartiles([r["ops"] for r in recs])
            w["rounds_per_run"] = _quartiles([r["rounds"] for r in recs])
            w["tail_pct"] = _quartiles([r["latency"]["tail_pct"] for r in recs])
            w["failed_frac"] = sum(r["failed_checks"] for r in recs) / sum(r["ops"] for r in recs)
            w["digests"] = {str(r["seed"]): [r["digest"], r["digest_status"]] for r in recs}
    doc["entries"] = [e for e in doc["entries"] if e["label"] != label] + [entry]
    _write(out_path, doc)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "verdicts":
        verdicts()
    elif argv[0] == "digests" and len(argv) >= 2:
        digests(argv[1], argv[2:] or ["sweep", "search", "prove", "queries"])
    elif argv[0] == "digests-from-out" and len(argv) == 1:
        digests_from_out()
    elif argv[0] == "baseline" and len(argv) == 2:
        baseline(argv[1])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
