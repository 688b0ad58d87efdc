"""`verify`'s two-process runner: `property_suites` and
`symmetrize_dualize_commute` run half their instances in a forked child,
give the detail one serial pass gives, pass exceptions back, and leave no
child behind."""

import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import veronese.verify as verify_mod

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")


@pytest.fixture
def forking(monkeypatch):
    monkeypatch.setattr(verify_mod, "_can_fork", lambda: True)


@contextmanager
def _within(seconds):
    """Raises TimeoutError in the body after `seconds`, so a runner that
    waits on a child for ever fails the test instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _suites_with(monkeypatch, props):
    """`_PROPERTY_SUITES` with the props of `props` ({index: prop}) put in,
    and `_CHECKS` cut down to `property_suites`."""
    suites = [
        (name, seed, props.get(index, prop))
        for index, (name, seed, prop) in enumerate(verify_mod._PROPERTY_SUITES)
    ]
    monkeypatch.setattr(verify_mod, "_PROPERTY_SUITES", tuple(suites))
    monkeypatch.setattr(verify_mod, "_CHECKS", [r for r in verify_mod._CHECKS if r[0] == "property_suites"])


def _property_suites_detail():
    [check] = verify_mod.run_corpus("fast")["checks"]
    assert check["status"] == "fail"
    return check["detail"]


def _fails(detail):
    return lambda rng: detail


def _raises(exc):
    """A prop, or a zero-argument task, that raises `exc`."""

    def task(*_):
        raise exc

    return task


@pytest.mark.parametrize(
    "props, detail",
    [
        ({1: _fails(": one"), 2: _fails(": two")}, "substitution_homomorphism: instance 0: one"),
        ({2: _fails(": two"), 3: _fails(": three")}, "stratum_functoriality: instance 0: two"),
        ({1: _raises(ValueError("one")), 2: _fails(": two")}, "exception: ValueError('one')"),
        ({1: _fails(": one"), 2: _raises(ValueError("two"))}, "substitution_homomorphism: instance 0: one"),
        ({0: _raises(KeyError("zero")), 3: _raises(ValueError("three"))}, "exception: KeyError('zero')"),
    ],
)
def test_the_first_fault_in_table_order_wins_on_both_runners(monkeypatch, verify_runner, props, detail):
    """Faults planted in both halves (suites 1 and 3 run in the child): the
    detail is the one a serial pass stops at, a failure or an exception."""
    _suites_with(monkeypatch, props)
    assert _property_suites_detail() == detail
    _assert_no_child_left()


@needs_fork
@pytest.mark.usefixtures("forking")
def test_an_exception_in_the_child_reaches_the_caller(monkeypatch):
    with pytest.raises(ValueError) as info:
        verify_mod._in_two_processes(lambda: 1, _raises(ValueError("x")))
    assert (type(info.value), info.value.args) == (ValueError, ("x",))
    _assert_no_child_left()
    _suites_with(monkeypatch, {3: _raises(ValueError("x"))})
    assert _property_suites_detail() == "exception: ValueError('x')"
    _assert_no_child_left()


@needs_fork
@pytest.mark.usefixtures("forking")
def test_a_child_that_exits_without_a_result_makes_the_runner_raise(monkeypatch):
    parent = os.getpid()

    def die(*_):
        if os.getpid() != parent:  # never ends the test process itself
            os._exit(3)

    with _within(30), pytest.raises(ChildProcessError, match="^the forked half ended with exit code 3 and sent no result$"):
        verify_mod._in_two_processes(lambda: 1, die)
    _assert_no_child_left()
    with _within(30), pytest.raises(ChildProcessError, match="^the forked half ended with exit code 1 and sent no result$"):
        verify_mod._in_two_processes(lambda: 1, lambda: threading.Lock())  # a result pickle refuses
    _assert_no_child_left()
    _suites_with(monkeypatch, {1: die})
    with _within(30):
        detail = _property_suites_detail()
    assert detail == "exception: ChildProcessError('the forked half ended with exit code 3 and sent no result')"
    _assert_no_child_left()


@needs_fork
@pytest.mark.usefixtures("forking")
def test_the_child_is_reaped_when_the_parent_half_raises(monkeypatch):
    parent = os.getpid()

    def slow():
        if os.getpid() != parent:
            time.sleep(60)

    t0 = time.monotonic()
    with _within(30), pytest.raises(ValueError, match="^parent$"):
        verify_mod._in_two_processes(_raises(ValueError("parent")), slow)
    assert time.monotonic() - t0 < 10  # killed, not waited for
    _assert_no_child_left()
    _suites_with(monkeypatch, {0: _raises(ValueError("y"))})
    with pytest.raises(ValueError, match="^y$"):
        verify_mod.check_property_suites(3)
    _assert_no_child_left()


@needs_fork
def test_the_child_leaves_through_os_exit():
    """An atexit hook and unflushed stdout of the parent stay in the parent."""
    code = (
        "import atexit, sys\n"
        "from veronese import verify\n"
        "verify._can_fork = lambda: True\n"
        "atexit.register(lambda: print('atexit'))\n"
        "sys.stdout.write('buffered ')\n"
        "print(verify._in_two_processes(lambda: 'here', lambda: 'there'))\n"
    )
    src = str(Path(verify_mod.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "buffered ('here', 'there')\natexit\n", "")


def test_importing_verify_loads_no_serializer():
    code = "import sys, veronese.verify; print(sorted({'pickle', 'signal'} & set(sys.modules)))"
    src = str(Path(verify_mod.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_the_probe_forks_only_on_two_cpus_and_one_thread(monkeypatch):
    if not hasattr(os, "fork"):
        assert not verify_mod._can_fork()
        return
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert verify_mod._can_fork()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert not verify_mod._can_fork()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not verify_mod._can_fork()
    finally:
        stop.set()
        thread.join()
    assert verify_mod._can_fork()
    monkeypatch.delattr(os, "fork")
    assert not verify_mod._can_fork()


def test_the_second_task_runs_in_a_child_only_when_forking(verify_runner):
    here, there = verify_mod._in_two_processes(os.getpid, os.getpid)
    assert here == os.getpid()
    assert (there != here) == (verify_runner == "forked")
    _assert_no_child_left()
