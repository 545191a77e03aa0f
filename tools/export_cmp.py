#!/usr/bin/env python3
"""Compare every JSON export of two builds byte for byte.

Usage: tools/export_cmp.py PARENT_BUILD CHANGE_BUILD

Each argument is a CMake build directory of this repository (with the
bench and example binaries built). From each one the script runs

  bench/bench_harness --smoke --out --metrics-out --trace-out
  bench/bench_campaign --smoke --out
  examples/quickstart --trace --metrics
  examples/recovery_demo --lineage --timeline --trace --metrics
  examples/campaign_demo --out

and saves the standard output of five programs that run every variant of
the Steps 3-8 schedule (the Fig. 6 walkthrough phase by phase, the
FullSort Step 8, full vs half exchange, both Step 8 modes, the MFS and
ring baselines):

  examples/figure6_walkthrough
  bench/bench_formula
  bench/bench_ablation_protocol
  bench/bench_ablation_cost
  bench/bench_alternatives

and of seven that run the sorter against the MFS baseline across M (the
Fig. 7 panels, under store-and-forward and cut-through, and Table 2) or
print the human trace dump:

  bench/bench_fig7a .. bench/bench_fig7d
  bench/bench_fig7_wormhole
  bench/bench_table2
  examples/ncube_demo --trace

into a scratch directory of its own, then compares each pair of files
with `cmp`. BENCH_sort.json is compared after zeroing `wall_ns` and
`allocations`: host timing and process allocator counts that differ
between two runs of the same build. Its `pool_heap_allocations` is
compared as is: a delivered payload belongs to its receiver, so the pool
ledger follows each node's program order on both executors.

Exit status: 0 when every export is identical, 1 naming every file that
differs, 2 on a usage error or a command that failed.
"""

import os
import re
import subprocess
import sys
import tempfile

# (binary relative to the build directory, arguments, file its standard
# output is saved to or None; "{out}" is replaced by the run's scratch
# directory)
COMMANDS = [
    ("bench/bench_harness",
     ["--smoke", "--out", "{out}/BENCH_sort.json",
      "--metrics-out", "{out}/BENCH_metrics.json",
      "--trace-out", "{out}/BENCH_trace.json"], None),
    ("bench/bench_campaign",
     ["--smoke", "--out", "{out}/BENCH_campaign.json"], None),
    ("examples/quickstart",
     ["--trace", "{out}/quickstart_trace.json",
      "--metrics", "{out}/quickstart_metrics.json"], None),
    ("examples/recovery_demo",
     ["--lineage", "--timeline", "--trace", "{out}/recovery_trace.json",
      "--metrics", "{out}/recovery_metrics.json"], None),
    ("examples/campaign_demo", ["--out", "{out}/campaign_demo.json"], None),
    ("examples/figure6_walkthrough", [], "figure6_walkthrough.txt"),
    ("bench/bench_formula", [], "bench_formula.txt"),
    ("bench/bench_ablation_protocol", [], "bench_ablation_protocol.txt"),
    ("bench/bench_ablation_cost", [], "bench_ablation_cost.txt"),
    ("bench/bench_alternatives", [], "bench_alternatives.txt"),
    ("bench/bench_fig7a", [], "bench_fig7a.txt"),
    ("bench/bench_fig7b", [], "bench_fig7b.txt"),
    ("bench/bench_fig7c", [], "bench_fig7c.txt"),
    ("bench/bench_fig7d", [], "bench_fig7d.txt"),
    ("bench/bench_fig7_wormhole", [], "bench_fig7_wormhole.txt"),
    ("bench/bench_table2", [], "bench_table2.txt"),
    ("examples/ncube_demo", ["--trace"], "ncube_demo_trace.txt"),
]

EXPORTS = [
    "BENCH_sort.json", "BENCH_metrics.json", "BENCH_trace.json",
    "BENCH_campaign.json", "quickstart_trace.json", "quickstart_metrics.json",
    "recovery_trace.json", "recovery_metrics.json", "campaign_demo.json",
] + [stdout for _, _, stdout in COMMANDS if stdout]

# Counters of BENCH_sort.json that vary between runs of one build.
HOST_COUNTERS = re.compile(rb'("(?:wall_ns|allocations)": )\d+')


def run_exports(build, out):
    for binary, args, stdout in COMMANDS:
        cmd = [os.path.join(build, binary)] + [a.format(out=out) for a in args]
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, check=False)
        if res.returncode != 0:
            sys.stderr.write("export_cmp: %s exited %d\n%s" %
                             (" ".join(cmd), res.returncode,
                              res.stderr.decode(errors="replace")))
            sys.exit(2)
        if stdout:
            with open(os.path.join(out, stdout), "wb") as f:
                f.write(res.stdout)
    path = os.path.join(out, "BENCH_sort.json")
    with open(path, "rb") as f:
        text = f.read()
    with open(path, "wb") as f:
        f.write(HOST_COUNTERS.sub(rb"\g<1>0", text))


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    builds = argv[1:]
    for build in builds:
        if not os.path.isdir(build):
            sys.stderr.write("export_cmp: no build directory %s\n" % build)
            return 2
    with tempfile.TemporaryDirectory(prefix="export_cmp_") as scratch:
        outs = []
        for i, build in enumerate(builds):
            out = os.path.join(scratch, str(i))
            os.mkdir(out)
            run_exports(build, out)
            outs.append(out)
        differ = []
        for name in EXPORTS:
            res = subprocess.run(["cmp", os.path.join(outs[0], name),
                                  os.path.join(outs[1], name)],
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, check=False)
            if res.returncode != 0:
                differ.append(name)
                sys.stdout.write(res.stdout.decode(errors="replace"))
    for name in EXPORTS:
        print("%-28s %s" % (name, "DIFFERS" if name in differ else "same"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
