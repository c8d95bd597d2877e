"""Run the benchmark over several seeds and record the figures.

    python3 perfbench/baseline.py --set set1 --runs 10 --first-seed 101
    python3 perfbench/baseline.py --set traced --runs 1 --first-seed 201 --trace 1

Runs every workload of BENCHMARK.json ``--runs`` times, with seeds
``first-seed``, ``first-seed + 1``, ..., one run at a time.  For each
workload and metric it prints and stores the values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median.  Results go under
``sets/<set>`` in BASELINE.json; the file's other keys are kept.
"""

import argparse
import json
import statistics
import subprocess
import sys

import workloads

RECORD = workloads.HERE / "BASELINE.json"


def figures(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    out = {"trace": args.trace, "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(workloads.HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True, cwd=workloads.ROOT,
            )
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        metrics = {
            metric: figures([r["metrics"][metric]["value"] for r in results])
            for metric in results[0]["metrics"]
        }
        out["workloads"][name] = {
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        for metric, fig in metrics.items():
            print(f"{name:8s} {metric:45s} median {fig['median']:.6g}  spread {fig['spread']:.3f}")
    record = {}
    if RECORD.exists():
        with open(RECORD, encoding="utf-8") as fh:
            record = json.load(fh)
    record.setdefault("sets", {})[args.set] = out
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
