"""Repeat the benchmark over several seeds and summarize each metric.

    python3 benchmarks/spread.py --workload denoise_tiles --seeds 1-10 \
        --seconds 20 [--trace 0] [--out FILE.json]

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread, (q3 - q1) / median.
Runs one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("nan"),
                     "values": values}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="benchmark spread over seeds")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        last["seed"] = seed
        runs.append(last)
        print(f"seed {seed}: correct={last['correct']} failed={last['failed']} " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in last["metrics"].items()), flush=True)
    summary = summarize(runs)
    for name, s in summary.items():
        print(f"{name:<36} median {s['median']:>12.6g} {s['unit']:<6} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "runs": runs, "summary": summary}, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
