"""One workload process: set up, say READY, run whole rounds, report.

    python3 bench/worker.py --workload flows --seed 1 --seconds 30 --out DIR

run.py starts this from the root of a sectorflow checkout and times the
set-up from the moment it starts the process to the READY line. Set-up is
the interpreter start, `import sectorflow` (in-process workloads), drawing
the inputs from the seed, and one fixed untimed warm-up operation.

The last line on stdout is a JSON summary. With --trace 1 it carries the
per-layer metrics and the spans go to --trace-file.
"""

import argparse
import json
import os
import random
import resource
import sys
from statistics import median, quantiles
from time import perf_counter

CONTROL_LOOP_N = 300_000
# repeats kept for the diagnostic median and p90; a fixed cap keeps the
# benchmark's own memory, and so peak_rss_mb, independent of the host's speed
SAMPLE_CAP = 20_000


def control_loop_ms():
    """A fixed pure-Python loop: it shows drift of the host, not the program."""
    start = perf_counter()
    acc = 0
    for i in range(CONTROL_LOOP_N):
        acc += i * i % 7
    return (perf_counter() - start) * 1e3


def summary(values_s):
    """Median, p90 (None below 40 samples) and count, in ms."""
    ms = sorted(v * 1e3 for v in values_s)
    if not ms:
        return {"p50": None, "p90": None, "n": 0}
    p90 = quantiles(ms, n=10)[-1] if len(ms) >= 40 else None
    return {"p50": median(ms), "p90": p90, "n": len(ms)}


def run_rounds(wl, ops, seconds, rounds, tracer, log):
    """Repeat the round until `seconds` of wall time or `rounds` rounds.

    Each operation gets one time per run, the workload's `op_statistic`
    of its repeats. On the shared 2-core VM the benchmark was tuned on, the
    CPU switches between a fast and a slower state (the same code takes 1x
    or 1.5-1.9x) in windows of about a millisecond, and the share of fast
    windows changes from minute to minute. An operation far shorter than
    a window ("fastest", solver-sweep) runs whole in one state, and its
    fastest repeat is the fast state on every run. An operation far
    longer ("median", flows and cli-cold) always runs in a mix; its fastest
    repeat is the luckiest mix, an extreme that scatters more than the
    median repeat does. The plain median and p90 of the first SAMPLE_CAP
    repeats are kept beside it.
    """
    from checks import CheckFailure

    best = [None] * len(ops)
    # every repeat of every operation, for the "median" statistic; such
    # workloads repeat each operation at most a few dozen times in a run
    times = [[] for _ in ops] if wl.op_statistic == "median" else None
    repeats = {"result": [], "reject": []}
    kept = 0
    attempted = failed = 0
    correct = True
    checked = {}
    begin = perf_counter()
    done = 0
    op_id = 0
    while True:
        for i, op in enumerate(ops):
            op_id += 1
            if tracer is not None:
                tracer.begin_op(op_id, op.kind)
            start = perf_counter()
            out, raised = wl.run(op)
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            attempted += 1
            try:
                wl.expect(op, out, raised)
            except CheckFailure as exc:
                failed += 1
                log("failed: %r: %s" % (op, exc))
                continue
            if best[i] is None or elapsed < best[i]:
                best[i] = elapsed
            if times is not None:
                times[i].append(elapsed)
            if kept < SAMPLE_CAP:
                repeats[op.kind].append(elapsed)
                kept += 1
            try:
                key = wl.digest(op, out, raised)
                if key is None or i not in checked:
                    wl.check(op, out, raised)
                    checked[i] = key
                elif checked[i] != key:
                    raise CheckFailure("output differs from the checked output of the first round")
            except CheckFailure as exc:
                correct = False
                log("incorrect: %r: %s" % (op, exc))
        done += 1
        if rounds and done >= rounds:
            break
        if not rounds and perf_counter() - begin >= seconds:
            break
    res = {"attempted": attempted, "failed": failed, "correct": correct, "rounds": done}
    per_op = best if times is None else [median(t) if t else None for t in times]
    for kind in ("result", "reject"):
        res[kind + "_ms"] = summary(t for op, t in zip(ops, per_op) if op.kind == kind and t is not None)
        res[kind + "_all_ms"] = summary(repeats[kind])
    timed = [t for t in per_op if t is not None]
    res["ops_per_s"] = len(timed) / sum(timed) if timed else None
    return res


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0, help="fixed round count instead of --seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True, help="directory for generated inputs and outputs")
    ap.add_argument("--trace-file", help="where --trace 1 writes the spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath("src"))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.out)
    ops = wl.make_round(random.Random(args.seed))
    wl.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    log = lambda msg: print("bench %s: %s" % (args.workload, msg), file=sys.stderr)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        wl.install_trace(tracer)
    res = run_rounds(wl, ops, args.seconds, args.rounds, tracer, log)
    res["control_loop_ms"] = median(control_loop_ms() for _ in range(3))
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    res["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    if tracer is not None:
        res["layers"] = wl.layer_metrics(tracer)
        tracer.write(args.trace_file)
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
