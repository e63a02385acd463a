"""Run one workload in this process and print its record as one JSON line.

run.py starts this with PYTHONHASHSEED fixed and ``src`` on the path:

    python3 perfbench/worker.py --workload nested --seed 1 --seconds 25 --mode measure

Modes: ``measure`` repeats passes for --seconds and sets up several times,
with times scaled to a reference speed by a speed probe (see SpeedProbe);
``plain`` and ``traced`` set up once and run one pass, without and with
tracing.  The process caps its own address space first, and every operation
runs under a deadline enforced with ``signal.setitimer``.
"""

import argparse
import json
import math
import os
import resource
import signal
import statistics
import sys
from fractions import Fraction
from time import perf_counter, thread_time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(HERE, "config.json"), encoding="utf-8") as _fh:
    CONFIG = json.load(_fh)

# A measured run repeats its set-up at least SETUP_REPEATS times and until the
# set-ups have taken SETUP_S; setup_s is their median.  The first set-up of a
# process also grows its heap: on normal_forms it read up to 15% above the
# others.
SETUP_REPEATS = 3
SETUP_S = 0.3
# The speed probe: every PROBE_PERIOD_S of the process's CPU time, a fixed
# loop of PROBE_STEPS steps of Fraction arithmetic, which takes about
# PROBE_REFERENCE_S, run back to back, at the fast level of the machine this
# was written on.  A time is scaled by the loop durations during it, or by the
# last PROBE_MIN_SAMPLES of them.
PROBE_PERIOD_S = 0.01
PROBE_STEPS = 24
PROBE_REFERENCE_S = 100e-6
PROBE_MIN_SAMPLES = 20
# cProfile and spans make a traced pass about four times slower
TRACED_DEADLINE_FACTOR = 3


def _probe_loop():
    """Function calls, small objects and integer gcds, like the library's own
    work, but none of its code."""
    value = Fraction(1, 3)
    for i in range(1, PROBE_STEPS + 1):
        value = value * Fraction(i, i + 1) + Fraction(1, i)
    return value


def trimmed_mean(values):
    """Mean of the values without the lowest and the highest tenth."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class SpeedProbe:
    """Samples the host's speed while this process computes.

    The host this was written on runs a process at speeds up to 2x apart:
    the speed switches every few seconds and its mix drifts from minute to
    minute, so CPU times of one operation vary as much between runs.  From
    ``start`` to ``stop``, SIGPROF runs ``_probe_loop`` every PROBE_PERIOD_S
    of CPU time and records how long it took.  Over 17 repeats in one
    process, the CPU times of katsura-3 completion over Q and F_p, cyclic-4
    completion over F_p and the Hilbert function of homogenized katsura-3
    grew with the loop's mean duration during them as its 0.96th to 1.05th
    power, and dividing by that mean cut the spread of their times from
    0.15-0.17 to 0.03-0.04 (standard deviation over mean).  A loop of
    integer steps tracked them less closely (powers 1.2-1.45, spread 0.06).
    """

    def __init__(self):
        self.durations = []

    def _sample(self, signum, frame):
        start = perf_counter()
        _probe_loop()
        self.durations.append(perf_counter() - start)

    def start(self):
        for _ in range(PROBE_MIN_SAMPLES):  # the loop's first runs are slower
            _probe_loop()
        for _ in range(PROBE_MIN_SAMPLES):
            self._sample(None, None)
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self):
        return len(self.durations)

    def scaled(self, seconds, mark):
        """CPU seconds since ``mark`` as seconds at the reference speed.

        The probe's own time is taken out; the speed is the trimmed mean of
        the loop durations since ``mark``, or of the last PROBE_MIN_SAMPLES
        for an operation too short to have that many.
        """
        during = self.durations[mark:]
        window = during if len(during) >= PROBE_MIN_SAMPLES else self.durations[-PROBE_MIN_SAMPLES:]
        return (seconds - sum(during)) * PROBE_REFERENCE_S / trimmed_mean(window)

    def slowdown(self):
        """The run's mean probe duration over the reference."""
        return trimmed_mean(self.durations) / PROBE_REFERENCE_S


class DeadlineExceeded(BaseException):
    """Raised inside an operation by the interval timer.

    A BaseException, so that no ``except Exception`` in the library can
    swallow it and leave the operation running past its deadline.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


class Outcome(NamedTuple):
    seconds: float
    result: object
    error: "str | None"  # None, "deadline" or "error: ..."


def call_with_deadline(fn, deadline, probe=None):
    """Run fn() under a real-time deadline; a failure costs at least the deadline.

    The time is the CPU time of the process's one thread: the process does
    no I/O, so on an idle machine it equals the wall time, and unlike the
    wall time it does not count stretches in which the host ran another
    tenant instead.  (time.process_time would do as well, but while the
    speed probe's profiling timer is armed, Linux reads it only to the
    scheduler tick.)  With a probe, a success's time is scaled to the
    reference speed (see SpeedProbe).
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    mark = probe.mark() if probe is not None else None
    start = thread_time()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            result = fn()
            elapsed = thread_time() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return Outcome(max(thread_time() - start, deadline), None, "deadline")
    except Exception as exc:  # MemoryError under the address-space cap lands here too
        return Outcome(max(thread_time() - start, deadline), None,
                       f"error: {type(exc).__name__}: {exc}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    if probe is not None:
        elapsed = probe.scaled(elapsed, mark)
    return Outcome(elapsed, result, None)


class Record(NamedTuple):
    name: str
    seconds: float
    error: "str | None"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(ops, deadline, tracer=None, probe=None):
    """One pass over the operations; checks run between them, untimed."""
    records = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.begin(index)
        outcome = call_with_deadline(op.run, deadline, probe)
        if tracer is not None:
            tracer.stop()
        seconds, error = outcome.seconds, outcome.error
        if error is None:
            try:
                problem = op.check(outcome.result)
            except Exception as exc:  # a check that calls into a broken library
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                seconds, error = max(seconds, deadline), f"wrong: {problem}"
        if tracer is not None:
            tracer.finish(error is None)
        records.append(Record(op.name, seconds, error))
    return records


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def summary(records):
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if r.error is not None),
        "wrong": sum(1 for r in records if r.error and r.error.startswith("wrong")),
        "failures": sorted({f"{r.name}: {r.error}" for r in records if r.error is not None}),
    }


def timed_setup(workloads, name, seed, probe=None):
    mark = probe.mark() if probe is not None else None
    start = thread_time()
    ops = workloads.setup(name, seed)
    seconds = thread_time() - start
    return ops, probe.scaled(seconds, mark) if probe is not None else seconds


def typical(records):
    """An operation's repeats as one record: their median time, or the
    slowest failure if any repeat failed."""
    failures = [r for r in records if r.error is not None]
    if failures:
        return max(failures, key=lambda r: r.seconds)
    return records[0]._replace(seconds=statistics.median(r.seconds for r in records))


def measure(workloads, args, deadline):
    """Set up, then repeat passes for --seconds of real time, under the speed
    probe.

    Every time metric is taken over each operation's median repeat in the
    run, scaled to the reference speed.  (The fastest repeat read lower the
    more passes a run made, by up to 13% on normal_forms, whose operations
    take a few milliseconds.)
    """
    probe = SpeedProbe()
    setups = []
    passes = []
    probe.start()
    try:
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_S:
            ops, seconds = timed_setup(workloads, args.workload, args.seed, probe)
            setups.append(seconds)
        began = perf_counter()
        while not passes or perf_counter() - began < args.seconds:
            passes.append(run_pass(ops, deadline, probe=probe))
    finally:
        probe.stop()
    records = [r for p in passes for r in p]
    typicals = [typical(repeats) for repeats in zip(*passes)]
    times = [r.seconds for r in typicals]
    wall = sum(times)
    out = summary(records)
    out["passes"] = len(passes)
    out["slowdown"] = probe.slowdown()
    out["metrics"] = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ops_per_s": sum(1 for r in typicals if r.error is None) / wall,
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_p95_ms": 1e3 * percentile(times, 95),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": sum(1 for r in records if r.error is None) / len(records),
    }
    return out


def one_pass(workloads, args, deadline, tracing=None):
    """Set up once and run one pass; with tracing, record both under the tracer."""
    if tracing is None:
        ops, _ = timed_setup(workloads, args.workload, args.seed)
        records = run_pass(ops, deadline)
        out = summary(records)
    else:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            tracer.begin("setup")
            try:
                ops = workloads.setup(args.workload, args.seed)
            finally:
                tracer.stop()
            tracer.finish(True)
            records = run_pass(ops, deadline, tracer)
        finally:
            uninstall()
        out = summary(records)
        out["layers"] = tracing.layer_metrics(tracer)
        if args.spans:
            tracer.write_spans(args.spans)
    out["op_seconds"] = {r.name: r.seconds for r in records if r.error is None}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "plain", "traced"), default="measure")
    parser.add_argument("--spans", default=None, help="file for the traced run's spans")
    args = parser.parse_args(argv)

    cap = CONFIG["address_space_cap_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import macaulay

    if not os.path.abspath(macaulay.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported macaulay from {macaulay.__file__}, not from {src}")
    import workloads

    deadline = CONFIG["deadline_s"]
    if args.mode == "measure":
        out = measure(workloads, args, deadline)
    elif args.mode == "plain":
        out = one_pass(workloads, args, deadline)
    else:
        import tracing

        out = one_pass(workloads, args, deadline * TRACED_DEADLINE_FACTOR, tracing)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
