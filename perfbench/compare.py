#!/usr/bin/env python3
"""Record and compare two sets of benchmark runs.

Record runs (each run's full standard output goes to DIR/<side>/<workload>-<seed>.txt):

    python3 perfbench/compare.py record --out DIR --checkout A [--checkout B]
        [--workloads paper-sweep,serve-points,route-mixed] [--seeds 1-10]
        [--seconds N]

With two checkouts the sides are alternated seed by seed (A first on even
seeds, B first on odd ones), so drift on the machine falls on both sides
alike. Give the same checkout twice to measure a commit against itself.

Compare two sets of runs:

    python3 perfbench/compare.py DIR/a DIR/b [--benchmark BENCHMARK.json]

For each workload and end-to-end metric it prints each side's median and
quartiles (statistics.quantiles, n=4), the share of (workload, seed) pairs
that B won, each side's failed-operation share, and a verdict against the
metric's bound from BENCHMARK.json:

  unresolved   a side's quartile spread is wider than the bound, and B's
               runs neither all beat nor all lose to A's
  worse        B's median is worse than A's by more than the bound (or,
               when unresolved by spread, every B run is worse)
  better       B won at least 9 of 10 pairs and the medians differ by more
               than A's quartile spread (or every B run is better)
  within bound otherwise
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def record(args):
    checkouts = args.checkout
    sides = ["a", "b"][:len(checkouts)]
    for side in sides:
        os.makedirs(os.path.join(args.out, side), exist_ok=True)
    for seed in parse_seeds(args.seeds):
        order = list(zip(sides, checkouts))
        if seed % 2 == 1:
            order.reverse()
        for workload in args.workloads.split(","):
            for side, checkout in order:
                cmd = ["python3", "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", "0"]
                done = subprocess.run(cmd, cwd=checkout, text=True,
                                      stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT)
                path = os.path.join(args.out, side,
                                    "%s-%d.txt" % (workload, seed))
                with open(path, "w") as f:
                    f.write(done.stdout)
                print("%s seed %d side %s exit %d" % (workload, seed, side,
                                                      done.returncode))
                sys.stdout.flush()
    return 0


def load_runs(directory):
    """{(workload, seed): result JSON} from a directory of run outputs."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".txt"):
            continue
        lines = open(os.path.join(directory, name)).read().strip().splitlines()
        header = next((l for l in lines if l.startswith("inputs seed=")), None)
        if header is None or not lines:
            print("skipping %s: no inputs line" % name, file=sys.stderr)
            continue
        m = re.match(r"inputs seed=(\d+) digest=\S+ ([a-z-]+):", header)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print("skipping %s: no JSON result" % name, file=sys.stderr)
            continue
        runs[(m.group(2), int(m.group(1)))] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, pairs, better, bound):
    """Verdict for B against A; `better` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    q1a, ma, q3a = quartiles(a)
    q1b, mb, q3b = quartiles(b)
    spread = max((q3a - q1a) / abs(ma), (q3b - q1b) / abs(mb))
    b_better = [sign * (y - x) < 0 for x, y in pairs]
    wins = sum(b_better) / len(pairs) if pairs else 0.0
    all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
    all_worse = min(b) > max(a) if better == "lower" else max(b) < min(a)
    change = sign * (mb - ma) / abs(ma)  # > 0 means B is worse
    if spread > bound:
        if all_better:
            return "better", wins, change
        if all_worse:
            return "worse", wins, change
        return "unresolved", wins, change
    if change > bound:
        return "worse", wins, change
    if wins >= 0.9 and abs(mb - ma) > (q3a - q1a) and change < 0:
        return "better", wins, change
    return "within bound", wins, change


def compare(dir_a, dir_b, benchmark):
    spec = json.load(open(benchmark))
    runs_a, runs_b = load_runs(dir_a), load_runs(dir_b)
    workloads = [w["name"] for w in spec["workloads"]]
    verdicts = []
    fmt = "%-13s %-12s %11s %11s %11s | %11s %11s %11s | %5s %7s  %s"
    print(fmt % ("workload", "metric", "A q1", "A median", "A q3", "B q1",
                 "B median", "B q3", "B won", "change", "verdict"))
    for workload in workloads:
        keys_a = {k for k in runs_a if k[0] == workload}
        keys_b = {k for k in runs_b if k[0] == workload}
        if not keys_a or not keys_b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [runs_a[k]["metrics"][name]["value"] for k in sorted(keys_a)]
            b = [runs_b[k]["metrics"][name]["value"] for k in sorted(keys_b)]
            pairs = [(runs_a[k]["metrics"][name]["value"],
                      runs_b[k]["metrics"][name]["value"])
                     for k in sorted(keys_a & keys_b)]
            v, wins, change = verdict(a, b, pairs, metric["better"],
                                      metric["bound"])
            verdicts.append(v)
            q1a, ma, q3a = quartiles(a)
            q1b, mb, q3b = quartiles(b)
            print(fmt % (workload, name, "%.5g" % q1a, "%.5g" % ma,
                         "%.5g" % q3a, "%.5g" % q1b, "%.5g" % mb,
                         "%.5g" % q3b, "%.2f" % wins, "%+.1f%%" % (100 * change),
                         v + " (bound %g)" % metric["bound"]))
        for side, runs, keys in (("A", runs_a, keys_a), ("B", runs_b, keys_b)):
            attempted = sum(runs[k]["attempted"] for k in keys)
            failed = sum(runs[k]["failed"] for k in keys)
            incorrect = sum(1 for k in keys if not runs[k]["correct"])
            print("%-13s %s: %d runs, failed share %.6f (%d of %d), "
                  "%d incorrect" % (workload, side, len(keys),
                                    failed / max(attempted, 1), failed,
                                    attempted, incorrect))
    print("summary: %d worse, %d better, %d unresolved, %d within bound"
          % (verdicts.count("worse"), verdicts.count("better"),
             verdicts.count("unresolved"), verdicts.count("within bound")))
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "record":
        p = argparse.ArgumentParser(prog="compare.py record")
        p.add_argument("--out", required=True)
        p.add_argument("--checkout", action="append", required=True)
        p.add_argument("--workloads",
                       default="paper-sweep,serve-points,route-mixed")
        p.add_argument("--seeds", default="1-10")
        p.add_argument("--seconds", type=int, default=20)
        args = p.parse_args(sys.argv[2:])
        if len(args.checkout) > 2:
            p.error("at most two checkouts")
        return record(args)
    p = argparse.ArgumentParser(prog="compare.py")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--benchmark",
                   default=os.path.join(os.path.dirname(HERE),
                                        "BENCHMARK.json"))
    args = p.parse_args()
    return compare(args.a, args.b, args.benchmark)


if __name__ == "__main__":
    sys.exit(main())
