"""Run workloads over several seeds and summarise each metric's spread.

    python3 perfbench/seeds.py --workload all --seeds 1-10 --out perfbench/baseline.json

Each run is ``run.py`` in its own process.  For every metric the summary
gives the median and the quartiles of its values over the seeds (as
``statistics.quantiles(values, n=4)`` computes them) and the spread, the
distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

from workloads import NAMES  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(results: list[dict]) -> dict:
    out = {}
    for key in results[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[key] = {"median": med, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / med if med else 0.0,
                    "unit": results[0]["metrics"][key]["unit"]}
    return out


def environment() -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True, check=True).stdout.strip()
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="write the runs and the summary here as JSON")
    args = ap.parse_args()
    names = NAMES if args.workload == "all" else [args.workload]
    runs: dict = {}
    for name in names:
        runs[name] = []
        for seed in seed_range(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=180)
            sys.stderr.write(proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            result["seed"] = seed
            runs[name].append(result)
            print(name, seed, json.dumps({k: round(v["value"], 6)
                                          for k, v in result["metrics"].items()}),
                  "failed", result["failed"], flush=True)
    summary = {name: summarise(rs) for name, rs in runs.items()}
    for name, metrics in summary.items():
        for key, m in metrics.items():
            print(f"{name:18} {key:30} median {m['median']:12.6g} {m['unit']:6} "
                  f"q1 {m['q1']:12.6g} q3 {m['q3']:12.6g} spread {m['spread']:.4f}")
    if args.out:
        doc = {"environment": environment(), "seeds": args.seeds,
               "seconds": args.seconds, "trace": args.trace,
               "summary": summary, "runs": runs}
        with open(args.out, "w") as fp:
            json.dump(doc, fp, indent=1)
            fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
