"""Run one skewseries command with spans recorded around its layers.

    python3 perfbench/cli_child.py FD SPAWNED_AT ARGS...

Behaves like ``python -m skewseries.cli ARGS...``: the same stdout,
stderr and exit code.  It imports ``skewseries.cli`` under a timer,
rebinds the layer boundaries plus ``load_spec_file``, ``build_context``
and the ``cmd_*`` handlers, calls ``cli.main(ARGS)``, and writes a JSON
span summary to file descriptor FD.  SPAWNED_AT is the parent's
CLOCK_MONOTONIC reading just before it started this process, so the
interpreter start-up time can be measured from here.
"""

import time

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402  (after the start-up reading on purpose)
import os  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def main():
    fd, spawned_at, argv = int(sys.argv[1]), float(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    workloads.load_package()
    import skewseries.cli as cli

    import_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.install()
    tracer.install_cli(cli)
    tracer.op = 1
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        summary = tracer.summary()
        summary["interp_start_s"] = STARTED - spawned_at
        summary["import_s"] = import_s
        with os.fdopen(fd, "w") as out:
            json.dump(summary, out)


if __name__ == "__main__":
    sys.exit(main())
