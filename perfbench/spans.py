"""Summarise the spans a traced benchmark run wrote.

    python3 perfbench/spans.py .perfbench-out/spans-desk-seed1.jsonl

Prints, per span name and field order, the call count, the total and the
mean time per call. Each line of a spans file is one span:
[name, start, end, parent index, job id, field order (series spans)].
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict


def summarise(path: str) -> list[tuple]:
    calls: dict = defaultdict(int)
    total: dict = defaultdict(float)
    with open(path) as fh:
        for line in fh:
            name, start, end, _parent, _job, q = json.loads(line)
            calls[name, q] += 1
            total[name, q] += end - start
    return sorted((name, q, calls[name, q], total[name, q])
                  for name, q in calls)


def main(argv: list[str]) -> int:
    print(f"{'span':36s} {'q':>6s} {'calls':>8s} {'total_s':>10s} {'ms/call':>10s}")
    for name, q, n, seconds in summarise(argv[1]):
        print(f"{name:36s} {q:6d} {n:8d} {seconds:10.4f} {seconds / n * 1e3:10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
