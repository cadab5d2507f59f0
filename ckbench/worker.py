"""One benchmark process: set up a workload, run its ops, check them.

``run.py`` starts this script in a fresh interpreter with ``src`` on
``PYTHONPATH``, so imports and every module-level cache start cold, as
for a command-line user.  The last line of standard output is a JSON
object with the results.

A workload's ops come in rounds: a round is a fixed list of
``round_len`` ops made from the seed, and every round runs the same
list again (``prove`` renames the atoms of each round, so that its memo
cannot answer a repeat).  Slot ``s`` of the round is op ``s``, op
``s + round_len``, and so on.  A slot's latency is its mean over the
rounds, leaving out its largest sample when it has three or more: one
repeat may carry a full garbage collection or the first round's cold
caches.  The worker reports each slot's CPU and wall latency;
``run.py`` takes the latency metrics over the slots, and the throughput
as the round length over the slots' summed wall time.  The host this
runs on is shared, and other tenants slow it by a factor of 1.5 to 2
for seconds to minutes at a time.  Averaging each op over the whole run
follows the share of time slowed, which varies less from run to run
than whether the median op, or the best repeat, fell in a slow stretch
(see README.md).

Modes:

* ``setup``: set up only, and report when set-up ended;
* ``run``: rounds in a closed loop (one client, each op starts when the
  previous one ends) until ``--seconds`` have passed and at least
  ``MIN_ROUNDS`` rounds are done, or ``max_rounds`` are (``run.py`` then
  starts another process for the rest of the time);
* ``fixed``: exactly one round, untraced;
* ``traced``: the same round with every layer wrapped.

Outputs are checked after the loop, outside the timed phase.  An op
whose verdict differs from the one its slot gave in the first round
counts as failed.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import hashlib
import json
import os
import resource
import shutil
import time

clock = time.perf_counter
# Op latency is the thread's CPU time: the ops compute and wait on
# nothing, and wall time would add the moments this process was not
# scheduled at all.  Throughput uses wall time.
cpu_clock = time.thread_time
MIN_ROUNDS = 2


def _env() -> dict:
    import platform

    import numpy

    import ckkit

    return {
        "kernel_backend": ckkit.KERNEL_BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def slot_latency(samples) -> float:
    """Mean of a slot's samples, without the largest when there are three or more."""
    if len(samples) >= 3:
        return (sum(samples) - max(samples)) / (len(samples) - 1)
    return sum(samples) / len(samples)


def _layer_metrics(tracer, memo_before) -> dict:
    from tracing import LAYERS

    busy, calls = tracer.busy_by_name()
    counts = tracer.counts
    selfs = tracer.self_by_layer()

    def ratio(a, b):
        return a / b if b else 0.0

    batch_calls = calls["search.eval_packed_batch"] + calls["semantics.eval_packed_batch"]
    out = {
        "kernel.eval_s": busy["_kernel.eval_programs"],
        "kernel.calls": calls["_kernel.eval_programs"],
        "kernel.model_ops": counts["model_ops"],
        "kernel.model_ops_per_s": ratio(counts["model_ops"], busy["_kernel.eval_programs"]),
        "semantics.pack_s": busy["semantics._pack_arrays"],
        "semantics.compile_s": busy["semantics.compile_formula"],
        "semantics.compile_calls": calls["semantics.compile_formula"],
        "semantics.batch_s": busy["search.eval_packed_batch"] + busy["semantics.eval_packed_batch"],
        "semantics.batch_calls": batch_calls,
        "semantics.models_per_batch": ratio(counts["batch_models"], batch_calls),
        "search.enumerate_s": busy["search.enumerate_packed"],
        "search.models": counts["search.enumerate_packed.yielded"],
        "search.find_calls": calls["search.find_countermodel"],
        "search.examined_frac": ratio(counts["search.enumerate_packed.yielded"], counts["space"]),
        "proofkit.ipc_s": busy["proofkit.ipc_valid"],
        "proofkit.check_s": busy["proofkit.check_proof"],
        "proofkit.prove_calls": counts["proofkit._prove.calls"],
        "formula.parse_s": busy["cli.parse"] + busy["formula.parse"],
        "formula.parse_calls": calls["cli.parse"] + calls["formula.parse"],
        "kripke.validate_s": busy["kripke.validate_model"],
        "kripke.classify_s": busy["kripke.frame_report"],
        "kripke.format_s": busy["kripke.format_model"],
        "kripke.to_model_s": busy["kripke.to_model"],
        "cli.main_s": busy["cli.main"],
    }
    memo = _memo_size()
    if memo is None or memo_before is None:
        tracer.absent.append("ckkit.proofkit._memo")
        out["proofkit.memo_entries"] = 0
        out["proofkit.memo_hit_ratio"] = 0.0
    else:
        prove_calls = counts["proofkit._prove.calls"]
        misses = memo - memo_before
        out["proofkit.memo_entries"] = memo
        out["proofkit.memo_hit_ratio"] = ratio(prove_calls - misses, prove_calls)
    for layer in LAYERS + ("bench",):
        out[f"{layer.lstrip('_')}.self_s"] = selfs[layer]
    out["trace.absent_wraps"] = len(tracer.absent)
    return out


def _memo_size():
    from ckkit import proofkit

    memo = getattr(proofkit, "_memo", None)
    return len(memo) if isinstance(memo, dict) else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "run", "fixed", "traced"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    os.makedirs(args.workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.workdir)
        wl.setup()
        setup_end = clock()
        if args.mode == "setup":
            print(json.dumps({"setup_end": setup_end}))
            return 0

        tracer = undo = None
        memo_before = None
        if args.mode == "traced":
            from tracing import Tracer

            tracer = Tracer(getattr(wl, "space_size", None))
            undo = tracer.install()
            memo_before = _memo_size()
        prepare = getattr(wl, "prepare", None)
        n = wl.round_len
        limit = wl.max_rounds * n if args.mode == "run" else n
        records, verdicts, errors = [], [], []
        # Repeats give equal records; storing each once keeps the
        # process's memory, and so peak_rss_mb, that of the program.
        distinct = {}
        slot_cpu = [array.array("d") for _ in range(n)]
        slot_wall = [array.array("d") for _ in range(n)]
        bad = set()  # ops whose verdict differs from their slot's first one
        start = end = clock()
        deadline = start + args.seconds
        i = 0
        while i < limit:
            if i >= MIN_ROUNDS * n and end >= deadline:
                break
            if prepare is not None:
                prepare(i)
            if tracer is not None:
                tracer.op = i
            with tracer.span("op", "bench") if tracer is not None else contextlib.nullcontext():
                began = clock()
                cpu = cpu_clock()
                try:
                    record, verdict = wl.run(i)
                except Exception as exc:  # a failed op is counted, not fatal
                    record, verdict = None, f"error {type(exc).__name__}"
                    if len(errors) < 5:
                        errors.append(f"op {i}: {exc!r}")
                cpu = cpu_clock() - cpu
            end = clock()
            slot = i % n
            slot_cpu[slot].append(cpu)
            slot_wall[slot].append(end - began)
            records.append(distinct.setdefault(record, record))
            if i < n:
                verdicts.append(verdict)
            elif verdict != verdicts[slot]:
                bad.add(i)
            i += 1
        wall = end - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        layers = None
        if tracer is not None:
            Tracer.uninstall(undo)
            layers = _layer_metrics(tracer, memo_before)
            if args.spans:
                tracer.write_spans(args.spans)

        failed = 0
        for k, record in enumerate(records):
            try:
                ok = record is not None and wl.check(k, record)
            except Exception as exc:  # a crashing check is a failed op
                ok = False
                if len(errors) < 5:
                    errors.append(f"check {k}: {exc!r}")
            if not ok or k in bad:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"op {k} failed its check")

        digest = hashlib.blake2b("\n".join(verdicts).encode(), digest_size=16).hexdigest()
        result = {
            "setup_end": setup_end,
            "ops": len(records),
            "round_len": n,
            "rounds": len(records) / n,
            "failed": failed,
            "wall_s": wall,
            "slot_cpu_s": [slot_latency(samples) for samples in slot_cpu],
            "slot_wall_s": [slot_latency(samples) for samples in slot_wall],
            "digest": digest,
            "peak_rss_mb": peak_rss_mb,
            "errors": errors,
            "env": _env(),
            "layers": layers,
            "absent": tracer.absent if tracer is not None else [],
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
