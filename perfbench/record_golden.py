"""Record the golden answers of every benchmark job into golden.json.

    python3 perfbench/record_golden.py

Run from the repository root, on the commit whose outputs define the
answers. For every workload and variant it runs the job list once and
stores, per job, the exit code and a digest of the JSON it printed. A job
with a "golden_argv" (an inline document) is recorded from that argv, the
same document passed as a file. A report with checks == 0 is refused: a
golden answer must not pass vacuously.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import workloads
from run import GOLDEN, run_pass, write_docs


def record(workload: str, variant: int) -> list[list]:
    jobs, docs = workloads.WORKLOADS[workload](variant)
    workdir, rel = write_docs(docs)
    try:
        argvs = [workloads.resolve(job.get("golden_argv", job["argv"]), rel)
                 for job in jobs]
        result = run_pass(workdir, argvs, time.monotonic() + 3600)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    answers = []
    for argv, outcome in zip(argvs, result["jobs"]):
        if outcome["rc"] is None or outcome["vacuous"]:
            raise SystemExit(f"refusing to record {argv}: {outcome}")
        answers.append([outcome["rc"], outcome["digest"]])
    return answers


def dumps(golden: dict) -> str:
    """JSON text with one line per workload variant."""
    blocks = []
    for workload in sorted(golden):
        rows = [f'  "{v}": {json.dumps(golden[workload][v])}'
                for v in sorted(golden[workload], key=int)]
        blocks.append(f' "{workload}": {{\n' + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    golden: dict = {}
    for workload in sorted(workloads.WORKLOADS):
        golden[workload] = {}
        recorded = {}  # job list -> answers, for variants with equal jobs
        for variant in range(workloads.VARIANTS):
            t0 = time.monotonic()
            key = json.dumps(workloads.WORKLOADS[workload](variant))
            if key not in recorded:
                recorded[key] = record(workload, variant)
            golden[workload][str(variant)] = recorded[key]
            print(f"{workload} variant {variant}: "
                  f"{time.monotonic() - t0:.1f} s", file=sys.stderr)
    GOLDEN.write_text(dumps(golden))
    return 0


if __name__ == "__main__":
    sys.exit(main())
