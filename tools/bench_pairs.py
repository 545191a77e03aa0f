#!/usr/bin/env python3
"""Compare two checkouts on the host benchmark with alternating run pairs.

    tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload WORKLOAD \
        [--pairs 10] [--seed 1]

The parent's BENCHMARK.json sets the rest: WORKLOAD is one of its
`workloads`, each run lasts its `run_seconds`, and its
`end_to_end` metrics are the ones compared, each with its `better`
direction and its `bound`.

Runs `python3 perfbench/run.py` in each checkout in turn, the parent
first on odd pairs and the change first on even ones, and reads each run's
JSON result line. It prints one row per run, then for every end-to-end
metric:

- each side's median and quartiles;
- the change's wins over all pairs (ties count for neither side);
- the median delta, change minus parent;
- the gain rule: the change wins at least 9 of 10 pairs and the medians
  differ, in the better direction, by more than the parent's quartile
  spread;
- the no-regression rule: the change's median is worse than the parent's
  by at most the bound. It is "unresolved" when the parent's relative
  quartile spread exceeds the bound, unless every change run beats every
  parent run.

Each row also shows what the run cost the host: its minor page faults
and its user and system CPU seconds, the delta of
`resource.getrusage(RUSAGE_CHILDREN)` around the run, and each side's
medians of them follow the verdicts. They are information, not a
verdict. The delta includes run.py's no-op rebuild of the benchmark,
about 36 K faults and 0.2 s of system time on a 4-vCPU VM, the same on
both sides. A side that fits more sorts into its seconds takes more
faults only where each sort takes some.

Exits 1 as soon as a run fails or prints no result, 2 on bad arguments.
Standard library only.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty sample."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# What a run cost the host, from getrusage: (column, rusage field).
USAGE = (("minflt", "ru_minflt"), ("user_s", "ru_utime"),
         ("sys_s", "ru_stime"))


def run_once(checkout, args, seconds):
    """Run the benchmark in `checkout`; return (metrics, usage) or None."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seconds", str(seconds),
           "--seed", str(args.seed)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    usage = {col: getattr(after, field) - getattr(before, field)
             for col, field in USAGE}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        return None
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) != 0:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}, usage


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def verdicts(parent, change, spec, pairs):
    """Return (wins, gain_holds, no_regression) for one metric."""
    better, bound = spec["better"], spec["bound"]
    wins = sum(beats(c, p, better) for p, c in zip(parent, change))
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_spread = quantile(parent, 0.75) - quantile(parent, 0.25)
    # How much worse the change's median is; negative when it is better.
    shortfall = (c_med - p_med) if better == "lower" else (p_med - c_med)
    gain = wins * 10 >= 9 * pairs and -shortfall > p_spread
    worse = shortfall / abs(p_med) if p_med else 0.0
    if all(beats(c, p, better) for c in change for p in parent):
        no_regression = "holds (every change run beats every parent run)"
    elif p_med and p_spread / abs(p_med) > bound:
        no_regression = (f"unresolved (parent spread "
                         f"{p_spread / abs(p_med):.1%} > bound {bound:.0%})")
    else:
        verdict = "FAILS" if worse > bound else "holds"
        if worse == 0:
            change = "unchanged"
        else:
            change = f"{abs(worse):.1%} {'worse' if worse > 0 else 'better'}"
        no_regression = f"{verdict} ({change}, bound {bound:.0%})"
    return wins, gain, no_regression


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    try:
        with open(os.path.join(sides["parent"], "BENCHMARK.json")) as f:
            bench = json.load(f)
        seconds = bench["run_seconds"]
        workloads = [w["name"] for w in bench["workloads"]]
        specs = bench["end_to_end"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        parser.error(f"cannot read BENCHMARK.json in {args.parent_dir}: {e}")
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)} "
                     f"(BENCHMARK.json)")
    names = [spec["name"] for spec in specs]

    print(f"bench_pairs: {args.workload}, seed {args.seed}, {args.pairs} "
          f"pair(s) of {seconds:g} s")
    columns = names + [col for col, _ in USAGE]
    print("pair  side    " + "  ".join(f"{n:>15}" for n in columns),
          flush=True)
    samples = {"parent": [], "change": []}
    usages = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            run = run_once(sides[side], args, seconds)
            if run is None or any(n not in run[0] for n in names):
                print(f"bench_pairs: pair {pair}: the {side} run failed or "
                      f"printed no result", file=sys.stderr)
                sys.exit(1)
            metrics, usage = run
            samples[side].append(metrics)
            usages[side].append(usage)
            row = {**metrics, **usage}
            print(f"{pair:>4}  {side:<6}  "
                  + "  ".join(f"{row[n]:>15.7g}" for n in columns),
                  flush=True)

    print()
    for spec in specs:
        name = spec["name"]
        parent = [m[name] for m in samples["parent"]]
        change = [m[name] for m in samples["change"]]
        wins, gain, no_regression = verdicts(parent, change, spec, args.pairs)
        p_med = statistics.median(parent)
        c_med = statistics.median(change)
        delta = c_med - p_med
        rel = f" ({delta / p_med:+.1%})" if p_med else ""
        print(f"{name} [{spec['better']} is better, bound {spec['bound']:g}]")
        for side, values in (("parent", parent), ("change", change)):
            print(f"  {side}: median {statistics.median(values):.7g}, "
                  f"quartiles {quantile(values, 0.25):.7g}-"
                  f"{quantile(values, 0.75):.7g}")
        print(f"  change wins {wins}/{args.pairs} pairs; median delta "
              f"{delta:+.7g}{rel}")
        print(f"  gain rule: {'holds' if gain else 'does not hold'}; "
              f"no-regression rule: {no_regression}")

    print()
    print("host usage per run, median (information, not a verdict; it "
          "includes run.py's rebuild)")
    for side in ("parent", "change"):
        print(f"  {side}: " + ", ".join(
            f"{col} {statistics.median([u[col] for u in usages[side]]):.7g}"
            for col, _ in USAGE))


if __name__ == "__main__":
    main()
