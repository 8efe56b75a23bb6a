"""Set-up as a user pays it: a fresh interpreter imports lienorm and
builds one workload's inputs, then exits.  run.py times this whole
process several times per run and reports the median as setup_s.

    python3 perfbench/setup_probe.py --workload NAME --seed N

Needs lienorm importable (run.py puts src/ on PYTHONPATH).
"""

import argparse

import lienorm

import workloads

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
parser.add_argument("--seed", type=int, required=True)
args = parser.parse_args()
workloads.build(args.workload, args.seed, lienorm)
