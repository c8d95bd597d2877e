"""Print one workload's set-up time, measured in this fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is what run.py times before its loop: importing skewseries and
building the workload's rings, algebras and instances.  The time printed
is scaled to the reference host speed (speed.py).
"""

import sys
import time

import speed
import workloads


def main():
    before = speed.sample(5)
    t0 = time.perf_counter()
    workloads.build(sys.argv[1], int(sys.argv[2]))
    raw = time.perf_counter() - t0
    print(raw * speed.factor(before + speed.sample(5)))


if __name__ == "__main__":
    main()
