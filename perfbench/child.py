"""One fresh process of the qcrit benchmark.

    child.py setup P,N [P,N ...]
        Time importing qcrit and building the listed fields F_{P^N};
        print the seconds and the mean time of kernel() around them.
        Nothing beyond gc, os, signal, sys and time is imported before the
        clock starts, so the import of qcrit is timed in full.
    child.py pass SPEC RESULT
        Run the jobs of the JSON file SPEC in process, one after another,
        and write their outcomes to the JSON file RESULT. With "trace" set
        in SPEC the layer tracer is installed first and its metrics and
        spans are written too.

Untraced passes also sample the machine's speed: every 50 ms a SIGALRM
handler times a fixed slice of pure-Python work (see Speedometer), with the
garbage collector off so that no collection of qcrit's objects lands in the
sample. The handler's own time is taken out of every job time.

Run from the repository root; the package is imported from ./src.
"""

import gc
import os
import signal
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def add(self, other):
        return _Pair((self.a + other.a) % 7, (self.b + other.b) % 7)


def kernel() -> int:
    """A fixed slice of interpreter work, about a millisecond: integer
    arithmetic and dict stores, small objects and method calls, tuples
    and strings, the kinds of work qcrit's loops do."""
    table, acc = {}, 0
    for i in range(2000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    x, y, pairs = _Pair(1, 2), _Pair(3, 4), []
    for _ in range(400):
        x = x.add(y)
        pairs.append((x.a, x.b))
    digits = list(range(64))
    for i in range(300):
        acc += sum(tuple(digits[j] for j in range(8))) + len(str(i))
    return acc + len(pairs) + len(table)


def _kernel_s() -> float:
    """Seconds of one kernel() call, timed with the garbage collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Speedometer:
    """Times kernel() every PERIOD_S seconds of wall time while running."""

    PERIOD_S = 0.05

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.spent = 0.0  # seconds spent in the handler

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0, _kernel_s()))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def setup(fields: list[str]) -> None:
    """Print the set-up seconds and the mean kernel time around them."""
    around = [_kernel_s() for _ in range(10)]
    t0 = time.perf_counter()
    import qcrit.cli  # noqa: F401  (what a CLI invocation imports)
    from qcrit.finite_field import field_make
    for spec in fields:
        p, n = map(int, spec.split(","))
        field_make(p, n)
    seconds = time.perf_counter() - t0
    around += [_kernel_s() for _ in range(10)]
    print(repr(seconds), repr(sum(around) / len(around)))


def run_pass(spec_path: str, result_path: str) -> None:
    import contextlib
    import io
    import json
    import resource

    import qcrit.cli as cli

    import workloads
    from tracer import Tracer

    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = Tracer() if spec["trace"] else None

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a raising job fails; the pass goes on
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                rc = None
        return rc, out.getvalue(), err.getvalue()

    speed = Speedometer()  # left idle in a traced pass
    if tracer is not None:
        tracer.install()
    else:
        speed.start()
    clock = time.perf_counter
    raw = []
    start, start_spent = clock(), speed.spent
    for i, argv in enumerate(spec["argvs"]):
        t0, s0 = clock(), speed.spent
        got = call(argv) if tracer is None else tracer.run_job(i, call, argv)
        raw.append((got, t0, clock(), speed.spent - s0))
    verdict_s = clock() - start - (speed.spent - start_spent)
    if tracer is not None:
        tracer.restore()
    else:
        speed.stop()

    jobs = [{"rc": rc, "digest": workloads.digest(out),
             "vacuous": workloads.vacuous(out), "start": t0, "end": t1,
             "s": t1 - t0 - handler_s,
             "stderr": err[-300:] if rc not in (0, 1) else ""}
            for (rc, out, err), t0, t1, handler_s in raw]
    result = {"verdict_s": verdict_s, "jobs": jobs,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "kernel": speed.samples}
    if tracer is not None:
        metrics = tracer.metrics()
        metrics["cli.jobs"] = len(jobs)
        metrics["cli.exit2"] = sum(1 for j in jobs if j["rc"] == 2)
        metrics["trace.verdict_s"] = verdict_s
        metrics["trace.self_coverage"] = sum(tracer.layer_self().values()) / verdict_s
        result["trace"] = {"metrics": metrics, "unresolved": tracer.unresolved}
        with open(spec["spans_path"], "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2:])
    else:
        run_pass(sys.argv[2], sys.argv[3])
