"""Tests of the benchmark's failure accounting.

    python3 -m pytest -q perfbench/test_deadline.py

An operation that passes its deadline, raises, or returns a wrong output is
recorded as failed, and its deadline counts as its time, also when only one of
its repeats in a run failed.  The speed probe scales a time to the reference
speed and takes its own time out.
"""

import os
import signal
import subprocess
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import (  # noqa: E402
    PROBE_MIN_SAMPLES,
    PROBE_REFERENCE_S,
    Record,
    SpeedProbe,
    run_pass,
    typical,
)

DEADLINE = 0.2


def _op(run, check=lambda result: None):
    return SimpleNamespace(name="op", run=run, check=check)


def _spin():
    while True:
        pass


def _raise():
    raise ValueError("no")


def test_operation_over_its_deadline_fails_with_the_deadline_as_its_time():
    (record,) = run_pass([_op(_spin)], DEADLINE)
    assert record.error == "deadline"
    assert DEADLINE <= record.seconds < DEADLINE + 0.5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_raising_operation_fails_at_the_deadline():
    (record,) = run_pass([_op(_raise)], DEADLINE)
    assert record.error.startswith("error: ValueError")
    assert record.seconds == DEADLINE


def test_wrong_output_fails_at_the_deadline():
    (record,) = run_pass([_op(lambda: 1, lambda result: "expected 2")], DEADLINE)
    assert record.error == "wrong: expected 2"
    assert record.seconds == DEADLINE


def test_check_that_raises_counts_as_wrong_output():
    def check(result):
        raise ZeroDivisionError("broken")

    (record,) = run_pass([_op(lambda: 1, check)], DEADLINE)
    assert record.error == "wrong: check raised ZeroDivisionError: broken"
    assert record.seconds == DEADLINE


def test_operation_in_time_succeeds_and_disarms_the_timer():
    (record,) = run_pass([_op(lambda: 42)], DEADLINE)
    assert record.error is None
    assert record.seconds < DEADLINE
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_memory_past_the_address_space_cap_is_a_counted_failure():
    # in a child process, so the cap does not bind the test runner
    code = (
        "import resource, sys; sys.path.insert(0, sys.argv[1]);"
        "from types import SimpleNamespace; from worker import run_pass;"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20));"
        "op = SimpleNamespace(name='op', run=lambda: bytearray(1 << 30), check=None);"
        "(r,) = run_pass([op], 5.0); print(r.error)"
    )
    out = subprocess.run([sys.executable, "-c", code, HERE], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().startswith("error: MemoryError")


def test_one_failed_repeat_makes_the_operation_failed_at_its_deadline():
    ok = [Record("op", 0.05, None), Record("op", 0.01, None), Record("op", 0.02, None)]
    assert typical(ok) == Record("op", 0.02, None)
    failed = Record("op", DEADLINE, "deadline")
    assert typical(ok + [failed]) == failed


def test_speed_probe_scales_to_the_reference_speed_without_its_own_time():
    probe = SpeedProbe()
    probe.durations = [2 * PROBE_REFERENCE_S] * PROBE_MIN_SAMPLES
    mark = probe.mark()
    # an operation too short for samples of its own: the last ones set its speed
    assert probe.scaled(0.5, mark) == 0.25
    probe.durations += [4 * PROBE_REFERENCE_S] * PROBE_MIN_SAMPLES
    own = PROBE_MIN_SAMPLES * 4 * PROBE_REFERENCE_S
    assert abs(probe.scaled(1.0 + own, mark) - 0.25) < 1e-12
