"""The repository's benchmark: three workloads, checked outputs, named metrics.

    python3 perfbench/run.py --workload complete --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  Each workload runs in a fresh Python process
(worker.py) with PYTHONHASHSEED fixed and the package imported from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the same metrics as ``name value unit``.

--trace 0 measures the end-to-end metrics, with every time scaled to a
reference speed by a speed probe (SpeedProbe in worker.py), because the
shared host's speed drifts.  --trace 1 runs one untraced pass
and two traced passes, each in its own process, and reports the per-layer
metrics of the first traced pass; the two traced passes must agree on every
count.  Spans go to perfbench/out/.  See perfbench/config.json for the
deadline, the operation lists and which layer metric should move which
end-to-end metric.
"""

import argparse
import json
import os
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("complete", "normal_forms", "nested")
TIME_LIMIT_S = 170

with open(os.path.join(HERE, "config.json"), encoding="utf-8") as _fh:
    PYTHONHASHSEED = json.load(_fh)["pythonhashseed"]

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "frac"
    return "count"


class WorkerFailed(Exception):
    pass


def run_worker(workload, seed, seconds, mode, deadline_at, spans=None):
    """Run worker.py to completion and return its JSON record."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED=PYTHONHASHSEED)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline_at - monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} ({mode}) did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload} ({mode}) exited with code {proc.returncode}")
    return json.loads(lines[-1])


def report_failures(workload, record):
    for line in record["failures"]:
        print(f"{workload}: failed: {line}", file=sys.stderr)


def end_to_end(workload, seed, seconds, deadline_at):
    record = run_worker(workload, seed, seconds, "measure", deadline_at)
    report_failures(workload, record)
    print(f"{workload}: {record['passes']} passes; the speed probe ran "
          f"{record['slowdown']:.3f}x slower than its reference", file=sys.stderr)
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in record["metrics"].items()}
    return record, metrics


def per_layer(workload, seed, deadline_at):
    plain = run_worker(workload, seed, 0, "plain", deadline_at)
    spans = os.path.join(HERE, "out", f"spans-{workload}-seed{seed}.jsonl")
    first = run_worker(workload, seed, 0, "traced", deadline_at, spans)
    second = run_worker(workload, seed, 0, "traced", deadline_at)
    report_failures(workload, first)
    mismatched = [
        name for name, value in first["layers"].items()
        if layer_unit(name) != "s" and second["layers"][name] != value
    ]
    for name in mismatched:
        print(f"{workload}: {name} differs between two traced runs: "
              f"{first['layers'][name]} != {second['layers'][name]}", file=sys.stderr)
    # overhead over the operations that succeeded in both processes
    both = plain["op_seconds"].keys() & first["op_seconds"].keys()
    untraced = sum(plain["op_seconds"][k] for k in both)
    traced = sum(first["op_seconds"][k] for k in both)
    layers = dict(first["layers"], **{"trace.overhead_frac": traced / untraced - 1})
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    first["wrong"] += len(mismatched)
    return first, metrics


def run(workload, seed, seconds, trace, deadline_at):
    if trace:
        record, metrics = per_layer(workload, seed, deadline_at)
    else:
        record, metrics = end_to_end(workload, seed, seconds, deadline_at)
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    return {
        "correct": record["wrong"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline_at = monotonic() + TIME_LIMIT_S * len(names)
    try:
        results = {w: run(w, args.seed, args.seconds, args.trace, deadline_at) for w in names}
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
