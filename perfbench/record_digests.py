"""Record the per-operation output digests that run.py checks against.

    python3 perfbench/record_digests.py

Runs every operation key of every workload once at COMMITTED_SEED and
writes digests.json.  Re-record only when a change is meant to alter
outputs; a change that claims a speed-up must leave the file untouched.
"""

import json

import workloads


def main():
    table = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, workloads.COMMITTED_SEED)
        table[name] = {key: workloads.digest(wl.fingerprint(key, wl.run(key))) for key in sorted(wl.keys())}
    with open(workloads.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
