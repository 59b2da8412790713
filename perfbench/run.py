"""qcrit benchmark: time to verdict on four workloads of CLI jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every job is an in-process
``qcrit.cli.main([...])`` call in JSON mode, run in a fresh child process
(perfbench/child.py), one job after another: a closed loop with one client.
Passes over the workload's jobs repeat, each in a new child, while the
next one fits in S seconds. Every job's exit code and output bytes are
checked against golden.json.

With --trace 0 the end-to-end metrics are printed; with --trace 1 one
untraced and one traced pass give the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See NOTES.md for the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 9
DEADLINE_S = 170.0
# Time of child.kernel() at the reference speed (a round figure near its
# time on the machine of the NOTES.md baseline). Each job time is rescaled
# by KERNEL_REF_S over the mean kernel time sampled while the job ran,
# widened by SPEED_WINDOW_S on both sides so that short jobs see several
# samples. The mean, not the median: a job pays for the slow moments and
# preemptions that the slow samples catch (NOTES.md, "Rescaling").
KERNEL_REF_S = 1.0e-3
SPEED_WINDOW_S = 0.25


class BenchError(RuntimeError):
    pass


def _child(args: list[str], deadline: float) -> str:
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[0]} did not finish in {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}: "
                         f"{proc.stderr[-2000:]}")
    return proc.stdout


def setup_time(fields, deadline: float) -> float:
    """Seconds to import qcrit and build the fields in a fresh process,
    rescaled to the reference speed by the mean kernel time around it."""
    out = _child(["setup", *(f"{p},{n}" for p, n in fields)], deadline)
    seconds, kernel_s = map(float, out.split())
    return seconds * KERNEL_REF_S / kernel_s


def run_pass(workdir: Path, argvs: list, deadline: float, trace: bool = False,
             spans_path: Path | None = None) -> dict:
    """Run the jobs once in a fresh child; return its result document."""
    spec_path = workdir / "pass.json"
    result_path = workdir / "result.json"
    spec_path.write_text(json.dumps({"argvs": argvs, "trace": trace,
                                     "spans_path": str(spans_path)}))
    _child(["pass", str(spec_path), str(result_path)], deadline)
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def write_docs(docs: dict[str, str]) -> tuple[Path, str]:
    """Write the documents into a fresh directory under the checkout;
    return it and its path relative to the root, as the jobs name it."""
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=base))
    for name, text in docs.items():
        (workdir / name).write_text(text)
    return workdir, str(workdir.relative_to(ROOT))


def percentile(samples: list[float], q: float) -> float:
    """Percentile by linear interpolation between the two nearest ranks
    (numpy's default). Above the p90 of queries sit a dozen jobs of about
    the same time; interpolating keeps a swap of two of them from moving
    the p90 by the whole gap between them."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    golden = json.loads(GOLDEN.read_text())[workload][str(workloads.variant_of(seed))]
    jobs, docs = workloads.build(workload, seed)
    if len(golden) != len(jobs):
        raise BenchError("golden.json does not match the job list")
    deadline = time.monotonic() + DEADLINE_S
    workdir, rel = write_docs(docs)
    try:
        argvs = [workloads.resolve(job["argv"], rel) for job in jobs]
        setups = [] if trace else [setup_time(workloads.FIELDS[workload], deadline)
                                   for _ in range(SETUP_SAMPLES)]
        passes, traced = [], None
        begin = time.monotonic()
        while True:
            t0 = time.monotonic()
            passes.append(run_pass(workdir, argvs, deadline))
            took = time.monotonic() - t0
            if trace or time.monotonic() - begin + took > seconds:
                break
        if trace:
            out = ROOT / ".perfbench-out"
            out.mkdir(exist_ok=True)
            traced = run_pass(workdir, argvs, deadline, trace=True,
                              spans_path=out / f"spans-{workload}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdicts = {"ok": 0, "defect": 0, "wrong": 0}
    problems = []
    ok_ms = [[] for _ in jobs]   # per job: its successful times, in ms
    all_ms = [[] for _ in jobs]
    for result in passes + ([traced] if traced else []):
        for i, (outcome, want) in enumerate(zip(result["jobs"], golden)):
            verdict = workloads.judge(outcome, want,
                                      jobs[i].get("known_defect", False))
            verdicts[verdict] += 1
            if verdict != "ok":
                problems.append((i, verdict, outcome))
            if result is not traced:
                all_ms[i].append(scaled_s(outcome, result["kernel"]) * 1e3)
                if verdict == "ok":
                    ok_ms[i].append(all_ms[i][-1])
    # The percentiles run over each job's median time across passes. Failed
    # jobs are left out, unless every job failed: then all jobs count, so
    # that a result still prints.
    latencies_ms = ([statistics.median(t) for t in ok_ms if t]
                    or [statistics.median(t) for t in all_ms])

    if trace:
        metrics = dict(traced["trace"]["metrics"])
        metrics["trace.overhead_s"] = traced["verdict_s"] - passes[0]["verdict_s"]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "verdict_s": statistics.median(
                sum(scaled_s(job, p["kernel"]) for job in p["jobs"])
                for p in passes),
            "job_p50_ms": percentile(latencies_ms, 0.5),
            "job_p90_ms": percentile(latencies_ms, 0.9),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }
    attempted = sum(verdicts.values())
    return {
        "verdicts": verdicts, "attempted": attempted, "metrics": metrics,
        "problems": problems, "passes": len(passes) + (1 if traced else 0),
        "jobs": argvs,
        "raw_verdict_s": [p["verdict_s"] for p in passes],
        "kernel_ms": [statistics.fmean(dt for _, dt in p["kernel"]) * 1e3
                      for p in passes if p["kernel"]],
        "unresolved": traced["trace"]["unresolved"] if traced else None,
    }


def scaled_s(job: dict, kernel: list) -> float:
    """A job's time rescaled to the reference speed, from the kernel times
    sampled while it ran (see KERNEL_REF_S)."""
    lo, hi = job["start"] - SPEED_WINDOW_S, job["end"] + SPEED_WINDOW_S
    near = [dt for t, dt in kernel if lo <= t <= hi]
    if not near and kernel:  # no sample in reach: take the nearest one
        near = [min(kernel, key=lambda s: abs(s[0] - job["start"]))[1]]
    if not near:
        return job["s"]
    return job["s"] * KERNEL_REF_S / statistics.fmean(near)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = (ROOT / "src" / "qcrit" / "cli.py", GOLDEN, SPEC)
    if not all(path.is_file() for path in needed):
        print("error: run from a qcrit checkout (src/qcrit, BENCHMARK.json "
              "and perfbench/golden.json are needed)", file=sys.stderr)
        return 2
    listed = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    verdicts, attempted = run["verdicts"], run["attempted"]
    failed = verdicts["defect"] + verdicts["wrong"]
    seen: dict = {}
    for i, verdict, outcome in run["problems"]:
        seen.setdefault((i, verdict), [0, outcome])[0] += 1
    for (i, verdict), (times, outcome) in sorted(seen.items()):
        command = " ".join(a if len(a) <= 40 else f"<{len(a)} bytes>"
                           for a in run["jobs"][i][2:])
        print(f"# job {i} {verdict} x{times}: rc={outcome['rc']} {command} "
              f"| {outcome['stderr'].strip()[:80]}")
    print(json.dumps({
        "env": {"python": platform.python_version(), "cpu_count": os.cpu_count(),
                "cpu_model": _cpu_model(), "git_sha": _git_sha()},
        "workload": args.workload, "seed": args.seed,
        "variant": workloads.variant_of(args.seed),
        "jobs_per_pass": len(run["jobs"]), "passes": run["passes"],
        "raw_verdict_s": run["raw_verdict_s"], "kernel_ms": run["kernel_ms"],
        "verdicts": verdicts}))
    if run["unresolved"]:
        print(f"# tracer sites not found, their metrics read 0: "
              f"{', '.join(run['unresolved'])}")
    metrics = {}
    for metric in listed:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": run["metrics"][name], "unit": unit}
        print(f"{name:44s} {metrics[name]['value']:14.6g} {unit}")
    print(f"{'failed_ratio':44s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} jobs)")
    print(json.dumps({"correct": verdicts["wrong"] == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
