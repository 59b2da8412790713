"""Forked workers: the suites of `verify all`, and the trials of one
randomized sweep, may run in this process and in workers forked by
theorems._pool. Whether they run in one process or in several, stdout,
exit codes, counterexamples and errors are the same, and no process is
left behind. Every test that forks checks, on teardown, that this process
has no child left."""

import contextlib
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from qcrit import theorems
from qcrit.cli import main
from qcrit.digits import PrimePower
from qcrit.finite_field import field_make
from qcrit.series import AdditiveSeries

from test_cli import SMALL, SRC
from test_sweep_faults import FAULT, _flipped
from test_verify_bytes import RUNS
from test_verify_bytes import test_verify_stdout_is_byte_identical as check_bytes

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
ALL_RUNS = [run for run in RUNS if run[1][0] == "all"]
TRIAL_RUNS = [run for run in RUNS
              if run[1][0] in ("equivariance", "logderiv", "coleman")]


@pytest.fixture
def forks(monkeypatch):
    """Spy on os.fork: the pids it returned in this process. On teardown,
    no child of this process is left, running or unreaped."""
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", spy)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _workers(monkeypatch, n: int) -> None:
    monkeypatch.setattr(theorems, "_workers", lambda tasks: n)


def _wrap_suites(monkeypatch, wrap) -> None:
    """Replace each runner of SUITES by wrap(name, runner), which takes the
    same options. verify_all's refusal pass still calls the runner
    itself."""
    for name, (reads, run) in list(theorems.SUITES.items()):
        def either(pq, spec, run=run, wrapped=wrap(name, run), **o):
            chosen = run if theorems._admitting.get() else wrapped
            return chosen(pq, spec, **o)
        monkeypatch.setitem(theorems.SUITES, name, (reads, either))


def _worker_runs_all_but_one(monkeypatch, forks) -> None:
    """Hold each suite the parent takes until its one worker has exited,
    without reaping it: the worker then takes every suite but the parent's
    first."""
    parent = os.getpid()

    def wrap(name, run):
        def held(pq, spec, **o):
            if os.getpid() == parent:
                os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)
            return run(pq, spec, **o)
        return held
    _wrap_suites(monkeypatch, wrap)


def _small_all() -> list[dict]:
    reports = theorems.verify_all(PrimePower(2, 2), field_make(2, 2), **SMALL)
    return [r.to_json_dict(include_timing=False) for r in reports]


@pytest.fixture
def serial_reports(monkeypatch):
    with monkeypatch.context() as m:
        _workers(m, 0)
        return _small_all()


@needs_fork
@pytest.mark.parametrize("workers", [0, 1])
@pytest.mark.parametrize("fmt,args,code,digest", ALL_RUNS,
                         ids=[f"{fmt}-{args[2]}{args[4]}"
                              for fmt, args, *_ in ALL_RUNS])
def test_all_prints_the_same_bytes_forked_or_alone(
        capsys, monkeypatch, forks, workers, fmt, args, code, digest):
    _workers(monkeypatch, workers)
    check_bytes(capsys, fmt, args, code, digest)
    assert len(forks) == workers


@needs_fork
@pytest.mark.skipif(not hasattr(os, "waitid"), reason="no os.waitid")
def test_a_suite_raising_in_the_worker_gives_the_serial_error(
        capsys, monkeypatch, forks):
    # two suites refuse; the serial loop stops at the first of them
    def wrap(name, run):
        if name not in ("admissible-witness", "cyclic-digits"):
            return run

        def refuse(pq, spec, **o):
            raise ValueError(f"{name} refused")
        return refuse
    _wrap_suites(monkeypatch, wrap)
    argv = ["verify", "all", "--p", "2", "--lambda", "2", "--n", "2",
            *(f"--{k.replace('_', '-')}={v}" for k, v in SMALL.items())]
    got = {}
    for workers in (0, 1):
        with monkeypatch.context() as m:
            _workers(m, workers)
            if workers:
                _worker_runs_all_but_one(m, forks)
            code = main(argv)
            got[workers] = code, capsys.readouterr()
    assert len(forks) == 1
    assert got[0] == got[1]
    assert got[1][0] == 2
    assert got[1][1].out == ""
    assert got[1][1].err == "error: admissible-witness refused\n"


@needs_fork
def test_the_lowest_failing_suite_wins_in_either_process(monkeypatch, forks):
    # every suite refuses: suite 0's error is raised, whichever process ran it
    def wrap(name, run):
        def refuse(pq, spec, **o):
            raise ValueError(f"{name} refused")
        return refuse
    _wrap_suites(monkeypatch, wrap)
    _workers(monkeypatch, 1)
    with pytest.raises(ValueError, match="^equivariance refused$"):
        _small_all()
    assert len(forks) == 1


@needs_fork
@pytest.mark.skipif(not hasattr(os, "waitid"), reason="no os.waitid")
def test_a_worker_killed_mid_run_makes_verify_all_raise(monkeypatch, forks):
    parent = os.getpid()

    def wrap(name, run):
        def killed_in_the_worker(pq, spec, **o):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return run(pq, spec, **o)
        return killed_in_the_worker
    _wrap_suites(monkeypatch, wrap)
    _workers(monkeypatch, 1)
    _worker_runs_all_but_one(monkeypatch, forks)
    with pytest.raises(RuntimeError, match="ended before it reported"):
        _small_all()
    assert len(forks) == 1


def _stop_the_parent(monkeypatch, forks, stop, raised):
    """stop() in this process while its worker is busy: raised comes out
    of verify_all, the worker is killed and reaped, and the SIGTERM
    handler that _pool set in place of the one outside is undone."""
    parent = os.getpid()

    def wrap(name, run):
        def interrupted(pq, spec, **o):
            if os.getpid() == parent:
                stop()
            time.sleep(60)  # the worker is still busy when the parent stops
        return interrupted
    _wrap_suites(monkeypatch, wrap)
    _workers(monkeypatch, 1)

    def outside(signum, frame):
        raise SystemExit("SIGTERM reached the handler outside the pool")
    sigterm = signal.signal(signal.SIGTERM, outside)
    try:
        t0 = time.perf_counter()
        with pytest.raises(raised) as stopped:
            _small_all()
        assert time.perf_counter() - t0 < 30
        assert len(forks) == 1
        assert signal.getsignal(signal.SIGTERM) is outside
    finally:
        signal.signal(signal.SIGTERM, sigterm)
    return stopped.value


@needs_fork
def test_an_interrupt_in_the_parent_kills_and_reaps_the_worker(
        monkeypatch, forks):
    def interrupt():
        raise KeyboardInterrupt
    _stop_the_parent(monkeypatch, forks, interrupt, KeyboardInterrupt)


@needs_fork
def test_a_sigterm_in_the_parent_kills_and_reaps_the_worker(
        monkeypatch, forks):
    stopped = _stop_the_parent(
        monkeypatch, forks, lambda: os.kill(os.getpid(), signal.SIGTERM),
        SystemExit)
    assert stopped.code == 143


@needs_fork
@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/"
                                       f"{os.getpid()}/children"),
                    reason="no /proc/<pid>/task/<pid>/children")
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2
                    if hasattr(os, "sched_getaffinity") else True,
                    reason="one usable CPU: no worker is forked")
def test_a_sigterm_to_the_parent_leaves_no_worker_running(tmp_path):
    # trials * prec^2 is far above _FORK_WORK: the sweep forks at once, and
    # at just under theorems._MAX_WORK its workers would run for seconds
    argv = [sys.executable, "-m", "qcrit", "verify", "equivariance", "--p",
            "3", "--lambda", "1", "--n", "5", "--prec", "128", "--trials",
            "10000"]
    err = tmp_path / "stderr.txt"
    with open(err, "wb") as stderr:  # a pipe would wait for a stray worker
        proc = subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=SRC),
                                stdout=subprocess.DEVNULL, stderr=stderr)
    children, pids = f"/proc/{proc.pid}/task/{proc.pid}/children", []
    try:
        deadline = time.monotonic() + 30
        while not pids:
            assert proc.poll() is None and time.monotonic() < deadline
            with open(children) as listing:
                pids = [int(pid) for pid in listing.read().split()]
            time.sleep(0.001)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 143
        assert err.read_bytes() == b""
        time.sleep(1)
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
    finally:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.wait()


@needs_fork
def test_a_failed_fork_leaves_the_suites_to_this_process(
        monkeypatch, forks, serial_reports):
    def no_fork():
        raise BlockingIOError("fork refused")
    monkeypatch.setattr(os, "fork", no_fork)
    _workers(monkeypatch, 1)
    assert _small_all() == serial_reports


@needs_fork
def test_one_worker_per_suite_gives_the_serial_reports(
        monkeypatch, forks, serial_reports):
    # more workers than cores: every suite but one may run in a worker
    _workers(monkeypatch, len(theorems.SUITES) - 1)
    sigterm = signal.getsignal(signal.SIGTERM)
    assert _small_all() == serial_reports
    assert len(forks) == len(theorems.SUITES) - 1
    assert signal.getsignal(signal.SIGTERM) is sigterm


@needs_fork
def test_no_fork_with_a_second_thread_or_a_tracer(forks, serial_reports):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _small_all() == serial_reports
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()

    def hook(*args):
        return None
    for install, installed in ((sys.settrace, sys.gettrace),
                               (sys.setprofile, sys.getprofile)):
        before = installed()  # a line tracer running the tests, say
        install(hook)
        try:
            assert _small_all() == serial_reports
        finally:
            install(before)
    assert forks == []


@pytest.mark.parametrize("cpus,workers", [(1, 0), (2, 1), (64, 7)])
def test_suite_workers_use_each_usable_cpu_up_to_one_per_suite(
        monkeypatch, cpus, workers):
    for hook in ("gettrace", "getprofile"):  # even under a line tracer
        monkeypatch.setattr(sys, hook, lambda: None)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("no fork here"),
                        raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    suites = len(theorems.SUITES)
    assert theorems._workers(suites) == workers
    assert theorems._workers(1) == 0  # never more processes than tasks
    # off the main thread, where _pool could not set its SIGTERM handler
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    off_main = []
    thread = threading.Thread(
        target=lambda: off_main.append(theorems._workers(suites)))
    thread.start()
    thread.join(timeout=10)
    assert off_main == [0]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert theorems._workers(suites) == workers
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert theorems._workers(suites) == 0
    monkeypatch.delattr(os, "fork")
    assert theorems._workers(suites) == 0


# ---------------------------------------------------------------------------
# The trials of one randomized sweep
# ---------------------------------------------------------------------------

def _trials_forked(monkeypatch, workers: int) -> None:
    """Give every randomized sweep that many workers, whatever its work."""
    monkeypatch.setattr(theorems, "_FORK_WORK", 1)
    _workers(monkeypatch, workers)


def _worker_checks_all_but_one_chunk(monkeypatch, forks) -> None:
    """Hold this process in the first draw it makes until its one worker
    has exited, without reaping it: the worker then checks every chunk of
    trials but the one this process took, drawing the trials it skips."""
    parent = os.getpid()
    real = theorems._random_unit

    def held(*args):
        if os.getpid() == parent and forks:
            os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)
        return real(*args)
    monkeypatch.setattr(theorems, "_random_unit", held)


def _wrap_trials(monkeypatch, wrap) -> None:
    """Replace the trial of every randomized sweep by wrap(trial)."""
    run_trials = theorems._run_trials
    monkeypatch.setattr(
        theorems, "_run_trials", lambda bad, trials, seed, prec, trial:
        run_trials(bad, trials, seed, prec, wrap(trial)))


@needs_fork
@pytest.mark.skipif(not hasattr(os, "waitid"), reason="no os.waitid")
@pytest.mark.parametrize("mode", ["alone", "forked", "worker-checks"])
@pytest.mark.parametrize("fmt,args,code,digest", TRIAL_RUNS,
                         ids=[f"{args[0]}-{i}"
                              for i, (fmt, args, *_) in enumerate(TRIAL_RUNS)])
def test_trials_print_the_same_bytes_forked_or_alone(
        capsys, monkeypatch, forks, mode, fmt, args, code, digest):
    _trials_forked(monkeypatch, 0 if mode == "alone" else 1)
    if mode == "worker-checks":
        _worker_checks_all_but_one_chunk(monkeypatch, forks)
    check_bytes(capsys, fmt, args, code, digest)
    trials = int(args[args.index("--trials") + 1])  # 0: the default count
    assert len(forks) == (mode != "alone" and trials >= 0)


@needs_fork
@pytest.mark.skipif(not hasattr(os, "waitid"), reason="no os.waitid")
@pytest.mark.parametrize("cap", [theorems._MAX_COUNTEREXAMPLES, 2])
def test_a_fault_in_every_trial_gives_the_serial_counterexamples(
        monkeypatch, forks, cap):
    # every Teichmueller scaling of every trial fails: 3 failures a trial,
    # so with a cap of 2 each chunk of one trial keeps fewer than it found
    real = AdditiveSeries.apply_to
    monkeypatch.setattr(AdditiveSeries, "apply_to",
                        lambda self, g: _flipped(real(self, g), FAULT + 1))
    monkeypatch.setattr(theorems, "_MAX_COUNTEREXAMPLES", cap)
    got = {}
    for workers in (0, 1):
        with monkeypatch.context() as m:
            _trials_forked(m, workers)
            if workers:
                _worker_checks_all_but_one_chunk(m, forks)
            got[workers] = theorems.verify_coleman(
                PrimePower(2, 2), ext_degree=1, prec=32, trials=12,
                seed=3).to_json_dict(include_timing=False)
    assert len(forks) == 1
    assert got[0] == got[1]
    *kept, last = got[1]["counterexamples"]
    assert [ce["trial"] for ce in kept] == [t for t in range(12)
                                            for _ in range(3)][:cap]
    assert last == {"truncated": True, "total_failures": 36}


@needs_fork
@pytest.mark.skipif(not hasattr(os, "waitid"), reason="no os.waitid")
@pytest.mark.parametrize("raising,error", [({3, 5}, 3), (set(range(8)), 0)])
def test_a_trial_raising_in_either_process_gives_the_serial_error(
        capsys, monkeypatch, forks, raising, error):
    # trials raise as they are checked, not as they are drawn; the lowest
    # raising trial wins, whichever process checked it
    def wrap(trial):
        def raising_trial(rng, t):
            checks = trial(rng, t)
            if t not in raising:
                return checks

            def raise_():
                raise ValueError(f"trial {t} raised")
                yield
            return raise_()
        return raising_trial
    _wrap_trials(monkeypatch, wrap)
    argv = ["verify", "equivariance", "--p", "2", "--lambda", "2", "--n", "2",
            "--prec", "32", "--trials", "8"]
    got = {}
    for workers in (0, 1):
        with monkeypatch.context() as m:
            _trials_forked(m, workers)
            if workers:
                _worker_checks_all_but_one_chunk(m, forks)
            code = main(argv)
            got[workers] = code, capsys.readouterr()
    assert len(forks) == 1
    assert got[0] == got[1]
    assert got[1][0] == 2
    assert got[1][1].out == ""
    assert got[1][1].err == f"error: trial {error} raised\n"


@needs_fork
@pytest.mark.skipif(not hasattr(os, "waitid"), reason="no os.waitid")
def test_a_worker_killed_mid_sweep_makes_the_sweep_raise(monkeypatch, forks):
    parent = os.getpid()

    def wrap(trial):
        def killed_in_the_worker(rng, t):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return trial(rng, t)
        return killed_in_the_worker
    _wrap_trials(monkeypatch, wrap)
    _trials_forked(monkeypatch, 1)
    _worker_checks_all_but_one_chunk(monkeypatch, forks)
    with pytest.raises(RuntimeError, match="ended before it reported"):
        theorems.verify_logderiv(field_make(3, 2), prec=16, trials=4)
    assert len(forks) == 1


@needs_fork
def test_a_sweep_forks_once_its_work_reaches_the_constant(
        monkeypatch, forks):
    # the work is trials * prec^2
    _workers(monkeypatch, 1)
    monkeypatch.setattr(theorems, "_FORK_WORK", 3 * 32 ** 2)
    spec = field_make(3, 2)
    theorems.verify_logderiv(spec, prec=32, trials=2)
    assert forks == []
    theorems.verify_logderiv(spec, prec=32, trials=3)
    assert len(forks) == 1


def test_the_constant_keeps_short_sweeps_in_process():
    # measured break-even (BENCH_14.json): the benchmark's traced sweep
    # (prec 32, 5 trials) and its short verify jobs (prec 96, 5 trials)
    # stay in process; a sweep of 2 trials at prec 256 forks
    assert 5 * 96 ** 2 < theorems._FORK_WORK <= 2 * 256 ** 2


@needs_fork
def test_sweeps_in_verify_all_fork_no_workers_of_their_own(forks):
    pq, spec = PrimePower(2, 2), field_make(2, 2)
    theorems.verify_equivariance(pq, spec, prec=256, trials=2)
    assert len(forks) == theorems._workers(2)  # alone, the sweep forks
    forks.clear()
    theorems.verify_all(pq, spec, **{**SMALL, "prec": 256})
    assert len(forks) == theorems._workers(len(theorems.SUITES))
    forks.clear()
    theorems.verify_equivariance(pq, spec, prec=256, trials=2)
    assert len(forks) == theorems._workers(2)  # and alone again after it


def test_verify_all_refuses_q_above_the_precision_before_any_suite(
        capsys, forks):
    argv = ["verify", "all", "--p", "2", "--lambda", "4", "--n", "4",
            "--prec", "8"]
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 0.2
    err = capsys.readouterr().err
    argv[1] = "equivariance"
    assert main(argv) == 2
    assert capsys.readouterr().err == err == (
        "error: q = 16 exceeds the precision 8: every gamma would be X\n")
    assert forks == []


def test_verify_all_refuses_an_oversized_sweep_before_any_suite(
        capsys, forks):
    # a sweep above theorems._MAX_WORK would run for days; verify all
    # refuses it in its refusal pass, as the sweep alone does
    argv = ["verify", "all", "--p", "2", "--lambda", "1", "--n", "1",
            "--prec", "2048", "--trials", "100000000"]
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 0.2
    assert "units of work" in capsys.readouterr().err
    for statement in ("equivariance", "logderiv", "coleman"):
        argv[1] = statement
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: verify {statement}: 100000000 trials at precision 2048 ")
    assert forks == []


def test_the_refusal_pass_stops_each_sweep_at_its_collector_only(
        monkeypatch):
    # each runner runs once up to its sweep's _Collector, last suite first,
    # then once on the pool; a sweep that another thread runs meanwhile,
    # and every sweep after the pass, runs to its report
    calls, beside = [], []

    def record(name, run):
        def recorded(pq, spec, **o):
            admitting = theorems._admitting.get()
            if admitting and not beside:
                thread = threading.Thread(target=lambda: beside.append(
                    theorems.verify_logderiv(spec, prec=8, trials=1)))
                thread.start()
                thread.join()
            try:
                return run(pq, spec, **o)
            finally:
                calls.append((name, admitting, sys.exc_info()[0]))
        return recorded
    for name, (reads, run) in list(theorems.SUITES.items()):
        monkeypatch.setitem(theorems.SUITES, name, (reads, record(name, run)))
    _workers(monkeypatch, 0)
    _small_all()
    names = list(reversed(theorems.SUITES))
    assert calls == ([(name, True, theorems._Admitted) for name in names]
                     + [(name, False, None) for name in names])
    assert beside[0].checks == 6
    assert theorems._admitting.get() is False
