#!/usr/bin/env python3
"""Repeat benchmark runs over several seeds and summarise their spread.

    python3 perfbench/repeat.py --workloads all --seeds 1-10 --seconds 45 [--trace 1]

Runs ``perfbench/run.py`` once per (workload, seed), one fresh process at a
time, and prints for every metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread as a
share of the median, next to the bound ``BENCHMARK.json`` fixes for it.  Every
result line is appended to ``.perfbench-out/repeat.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds_of(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    detail = json.loads(lines[-2].removeprefix("perfbench: "))
    return {"workload": workload, "seed": seed, "trace": trace, "detail": detail,
            "result": json.loads(lines[-1])}


def summarise(rows: list[dict], bounds: dict) -> None:
    for workload in dict.fromkeys(r["workload"] for r in rows):
        mine = [r for r in rows if r["workload"] == workload]
        failed = {(r["result"]["failed"], r["result"]["attempted"]) for r in mine}
        digests = {r["detail"]["digest"] for r in mine}
        print(f"\n{workload}: {len(mine)} runs, (failed, attempted) {sorted(failed)}, "
              f"{len(digests)} distinct digests over {len({r['seed'] for r in mine})} seeds")
        for name in mine[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound:.2f}{'  <- wide' if spread > bound / 3 else ''}"
            print(f"  {name:34s} median {median:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:7.2%}{note}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all", help="comma-separated names, or all")
    parser.add_argument("--seeds", default="1-10", help="for example 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]] if args.workloads == "all" else args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    rows = []
    with open(out / "repeat.jsonl", "a", encoding="utf-8") as log:
        for workload in names:
            for seed in seeds_of(args.seeds):
                row = run_once(workload, seed, args.seconds, args.trace)
                rows.append(row)
                log.write(json.dumps(row) + "\n")
                log.flush()
                print(f"{workload} seed {seed}: rounds {row['detail']['rounds']}, "
                      f"failed {row['result']['failed']}/{row['result']['attempted']}", flush=True)
    summarise(rows, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
