"""sectorflow benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload flows --seed 7 --seconds 30 --trace 0

Run it from the root of a sectorflow checkout; it uses the package under
./src and the shipped descriptions under ./configs, and writes only under
./.bench_out. See bench/README.md for the workloads and metrics.

--trace 0 prints the end-to-end metrics. Set-up is timed SETUPS times, each
in a fresh process, and its median reported; the last of those processes
goes on to run the workload. --trace 1 prints the per-layer metrics
instead: the named workload is traced for --seconds, and each other
workload for one round, so that every layer metric is present.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-cold", "flows", "solver-sweep")
SETUPS = 5
OUT_ROOT = ".bench_out"
# a run must end within 180 s; this bounds each worker, set-up included
WORKER_TIMEOUT = 150
REQUIRED = (
    "src/sectorflow/__init__.py",
    "src/sectorflow/cli.py",
    "configs/two_sector.json",
    "configs/three_sector_g112.json",
    "configs/three_sector_g14.json",
    "configs/uniform.json",
)


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def start_worker(workload, seed, out_dir, extra):
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--out", out_dir,
    ] + extra
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    return proc, start


def wait_ready(proc, start):
    """Seconds from starting the worker to its READY line."""
    line = proc.stdout.readline()
    ready = perf_counter()
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError("worker did not get ready (printed %r)" % line[:200])
    return ready - start


def finish(proc):
    """Wait for the worker and return its JSON summary, if it printed one."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past %d s" % WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError("worker exited with %d" % proc.returncode)
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_worker(workload, seed, out_dir, extra):
    proc, start = start_worker(workload, seed, out_dir, extra)
    try:
        setup = wait_ready(proc, start)
        return setup, finish(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def untraced(args, out_dir):
    setups = []
    for _ in range(SETUPS - 1):
        setup, _ = run_worker(args.workload, args.seed, out_dir, ["--setup-only"])
        setups.append(setup)
    setup, res = run_worker(args.workload, args.seed, out_dir, ["--seconds", str(args.seconds)])
    setups.append(setup)
    if res is None:
        raise BenchError("worker printed no summary")
    for kind in ("result_ms", "reject_ms"):
        if not res[kind]["n"]:
            raise BenchError("no successful %s operations" % kind[:-3])
    metrics = {
        "setup_s": median(setups),
        "op_p50_ms": res["result_ms"]["p50"],
        "reject_p50_ms": res["reject_ms"]["p50"],
        "ops_per_s": res["ops_per_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    diag = {
        "setups_s": setups,
        "rounds": res["rounds"],
        "all_op_p50_ms": res["result_all_ms"]["p50"],
        "all_op_p90_ms": res["result_all_ms"]["p90"],
        "all_op_n": res["result_all_ms"]["n"],
        "all_reject_p50_ms": res["reject_all_ms"]["p50"],
        "all_reject_p90_ms": res["reject_all_ms"]["p90"],
        "all_reject_n": res["reject_all_ms"]["n"],
        "control.loop_ms": res["control_loop_ms"],
    }
    return res, metrics, diag


def traced(args, out_dir):
    layers = {}
    totals = {"correct": True, "attempted": 0, "failed": 0}
    for workload in WORKLOADS:
        own = workload == args.workload
        trace_file = os.path.join(
            OUT_ROOT, "trace-%s-%s-seed%d.jsonl.gz" % (args.workload, workload, args.seed)
        )
        extra = ["--trace", "1", "--trace-file", trace_file]
        extra += ["--seconds", str(args.seconds)] if own else ["--rounds", "1"]
        _, res = run_worker(workload, args.seed, out_dir, extra)
        if res is None:
            raise BenchError("%s worker printed no summary" % workload)
        totals["correct"] = totals["correct"] and res["correct"]
        totals["attempted"] += res["attempted"]
        totals["failed"] += res["failed"]
        layers.update(res["layers"])
        if own:
            layers["control.loop_ms"] = res["control_loop_ms"]
            diag = {
                "traced_op_p50_ms": res["result_ms"]["p50"],
                "traced_reject_p50_ms": res["reject_ms"]["p50"],
                "traced_ops_per_s": res["ops_per_s"],
            }
    return totals, layers, diag


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print("bench: run from the root of a sectorflow checkout; missing %s" % ", ".join(missing),
              file=sys.stderr)
        return 2
    spec = load_spec()
    out_dir = os.path.join(OUT_ROOT, "run-%d" % os.getpid())
    os.makedirs(out_dir, exist_ok=True)
    try:
        if args.trace:
            res, values, diag = traced(args, out_dir)
            wanted = spec["per_layer"]
        else:
            res, values, diag = untraced(args, out_dir)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print("bench %s: %s" % (args.workload, exc), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            print("bench %s: metric %s was not measured" % (args.workload, m["name"]), file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print("bench %s: %s" % (args.workload, json.dumps(diag)), file=sys.stderr)
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
