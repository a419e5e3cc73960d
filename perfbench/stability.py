#!/usr/bin/env python3
"""Repeats perfbench runs over several seeds and reports each metric's
median, quartiles and spread (IQR / median) against BENCHMARK.json.

    python3 perfbench/stability.py --seeds 10 [--first-seed 1]
        [--workloads crawl,serve,replicate] [--seconds 10] [--trace 0]
        [--json OUT.json] [--compare EARLIER.json]

Runs are interleaved by seed (crawl, serve, replicate for seed 1, then
seed 2, ...) so drift on the machine hits every workload alike. Every
end-to-end metric, setup_s included, is checked the same way: its spread
must not exceed its bound ("WIDE" otherwise). A spread below a third of
the bound is marked "steady", the target for a benchmark whose medians
are to tell a change from noise. With --compare, a median that is worse
than the earlier set's by more than the bound is marked "WORSE". Exits 1
if any run fails, any spread exceeds its bound or any median is WORSE.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="crawl,serve,replicate")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the summary here")
    parser.add_argument("--compare",
                        help="an earlier --json summary to compare with")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")

    values = {w: {} for w in workloads}
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", w, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT)
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "metrics": {}}
            if proc.returncode != 0 or not result["correct"]:
                failures += 1
                print(f"{w} seed {seed}: FAILED\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if k in bounds or args.trace), flush=True)

    earlier = {}
    if args.compare:
        earlier = json.loads(pathlib.Path(args.compare).read_text())["metrics"]
    summary = {}
    wide = steady = gated = worse = 0
    print(f"\n{'workload':<10} {'metric':<40} {'n':>3} {'q1':>12} "
          f"{'median':>12} {'q3':>12} {'spread':>8} {'bound':>6} "
          f"{'vs earlier':>10}")
    for w in workloads:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (med, med, med))
            spread = (q3 - q1) / abs(med) if med else float("inf")
            summary.setdefault(w, {})[name] = {
                "n": len(vals), "q1": q1, "median": med, "q3": q3,
                "spread": spread}
            if name not in bounds:
                print(f"{w:<10} {name:<40} {len(vals):>3} {q1:>12.6g} "
                      f"{med:>12.6g} {q3:>12.6g} {spread:>8.4f}")
                continue
            bound = bounds[name]["bound"]
            gated += 1
            marks = []
            if spread > bound:
                wide += 1
                marks.append("WIDE")
            elif spread < bound / 3:
                steady += 1
                marks.append("steady")
            change = ""
            before = earlier.get(w, {}).get(name)
            if before:
                change = med / before["median"] - 1.0
                if bounds[name]["better"] == "higher":
                    change = -change
                if change > bound:
                    worse += 1
                    marks.append("WORSE")
                change = f"{change * 100:+9.1f}%"
            print(f"{w:<10} {name:<40} {len(vals):>3} {q1:>12.6g} "
                  f"{med:>12.6g} {q3:>12.6g} {spread:>8.4f} {bound:>6.3g} "
                  f"{change:>10} {' '.join(marks)}")
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(
            {"seeds": [args.first_seed, args.first_seed + args.seeds - 1],
             "seconds": seconds, "trace": args.trace, "failures": failures,
             "metrics": summary}, indent=1) + "\n")
    print(f"\nfailed runs: {failures}; spreads over their bound: {wide}; "
          f"below a third of it: {steady} of {gated}; medians worse than "
          f"the earlier set's by more than the bound: {worse}")
    sys.exit(1 if failures or wide or worse else 0)


if __name__ == "__main__":
    main()
