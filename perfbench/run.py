"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload {sps_mul,primes,cli} --seed N --seconds S --trace {0,1}

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished.  The loop runs whole cycles of
operations until ``--seconds`` have passed, then every result is checked.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
operation twice, untraced and traced, and prints the per-layer metrics,
including the tracing overhead between the two.  Timed values are scaled
to a reference host speed with the calibration kernel in speed.py.  The
last line of stdout is the JSON result; the line before it gives detail
(raw unscaled figures, tail percentile and sample counts, set-up
samples, failures).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time

import spans
import speed
import workloads

clock = time.perf_counter

# Set-ups per run: this process plus fresh interpreters; the median is reported.
SETUP_SAMPLES = 3
# op_tail_s is taken at the workload's tail percentile, or at the next
# lower one of these when a run has fewer than MIN_TAIL_BEYOND samples
# beyond it (a very short --seconds).
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_TAIL_BEYOND = 10

# Boundaries each workload must exercise (the prediction table's "moves"
# column).  A traced run fails when one of them records no call, which
# catches a name that escaped the rebinding.
EXERCISED = {
    "sps_mul": (
        "exactla.apply_map",
        "series.SeriesRing.mul",
        "skewder.SkewDerivation.sigma",
        "skewder.SkewDerivation.delta",
        "filtration.AdicFiltration.reduce",
        "sps.SPSRing.mul",
        "sps.SPSRing.normalize",
    ),
    "primes": (
        "exactla.rref",
        "exactla.left_kernel",
        "exactla.preimage",
        "exactla.subspace_intersection",
        "exactla.apply_map",
        "exactla.compose",
        "exactla.map_power",
        "skewder.SkewDerivation.delta",
        "skewder.pth_power",
        "finalg.radical",
        "finalg.central_idempotents",
        "finalg.minimal_primes_over",
        "finalg.minimal_sigma_primes",
        "finalg.quotient_algebra",
        "finalg.sigma_orbit",
        "finalg.is_sigma_prime",
        "finalg.FinAlgebra.mul",
        "finalg.FinAlgebra.__init__",
        "core.theorem_c_procedure",
        "core.stabilization_M",
        "core.delta_pm_core",
        "core.delta_core",
        "core.char0_checks",
    ),
    # The fixtures reach every boundary but the char-0 checks.
    "cli": tuple(b for b in spans.BOUNDARIES if b != "core.char0_checks") + spans.CLI_SPANS,
}


def percentile(values, q):
    """Linear interpolation between closest ranks (inclusive method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(latencies, highest=TAIL_LADDER[0]):
    """(percentile, latency, samples strictly beyond it)."""
    n = len(latencies)
    q = next((q for q in TAIL_LADDER if q <= highest and n * (100 - q) / 100 >= MIN_TAIL_BEYOND),
             TAIL_LADDER[-1])
    value = percentile(latencies, q)
    return q, value, sum(1 for x in latencies if x > value)


def run_op(wl, key, tracer=None):
    try:
        return wl.run(key) if tracer is None else wl.run_traced(key, tracer)
    except Exception as exc:  # a raising operation is counted as failed; the run goes on
        return workloads.Failure(f"{type(exc).__name__}: {exc}")


def timed_loop(wl, seconds):
    """Untraced whole cycles for at least `seconds`.

    Returns the outcomes, each operation's raw latency and its speed
    factor (from the kernel samples taken right before and right after
    it), the loop's wall time and the number of cycles.
    """
    outcomes, latencies, factors = [], [], []
    start = clock()
    cycles = 0
    before = speed.sample()
    while True:
        for key in wl.cycle(cycles):
            t = clock()
            result = run_op(wl, key)
            latencies.append(clock() - t)
            outcomes.append((key, result))
            after = speed.sample()
            factors.append(speed.factor(before + after))
            before = after
        cycles += 1
        if clock() - start >= seconds:
            break
    return outcomes, latencies, factors, clock() - start, cycles


def traced_loop(wl, seconds, tracer):
    """Each operation twice, untraced and traced, alternating which goes first.

    Running both versions of an operation back to back keeps slow drifts
    of the host out of the overhead estimate.  Also returns every kernel
    sample taken, for the run's speed factor.
    """
    outcomes, kernel_times = [], []
    spent = {False: 0.0, True: 0.0}
    start = clock()
    cycles = 0
    while True:
        for key in wl.cycle(cycles):
            kernel_times += speed.sample()
            for traced in (False, True) if len(outcomes) % 4 == 0 else (True, False):
                if traced:
                    tracer.install()
                try:
                    t = clock()
                    outcomes.append((key, run_op(wl, key, tracer if traced else None)))
                    spent[traced] += clock() - t
                finally:
                    tracer.uninstall()
        cycles += 1
        if clock() - start >= seconds:
            break
    return outcomes, spent[False], spent[True], kernel_times, cycles


def evaluate(wl, outcomes, recorded):
    """Failed operation count and messages.

    An operation fails when it raised, when its key fails the workload's
    invariants, when it differs from an earlier run of the same input, or
    when it differs from the recorded digest (``recorded`` may be None).
    """
    first, prints = {}, []
    for key, result in outcomes:
        if isinstance(result, workloads.Failure):
            prints.append(None)
            continue
        first.setdefault(key, result)
        prints.append(wl.fingerprint(key, result))
    invariant_errors = wl.check(first)
    reference = {}
    messages = []
    for (key, result), fp in zip(outcomes, prints):
        if fp is None:
            why = result.message
        elif key in invariant_errors:
            why = invariant_errors[key]
        elif reference.setdefault(key, fp) != fp:
            why = "result differs from an earlier run of the same input"
        elif recorded is not None and recorded.get(key) != workloads.digest(fp):
            why = "output differs from the recorded digest"
        else:
            continue
        messages.append(f"{key}: {why}")
    return len(messages), messages


def setup_probe(name, seed):
    """Scaled set-up time of a fresh interpreter, as measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(workloads.HERE / "setup_probe.py"), name, str(seed)],
        capture_output=True, text=True, check=True, cwd=workloads.ROOT, timeout=120,
    )
    return float(proc.stdout.split()[-1])


def timed_setup(name, seed, tiny=False):
    """(workload, raw set-up seconds, scaled set-up seconds)."""
    before = speed.sample(5)
    t0 = clock()
    wl = workloads.build(name, seed, tiny)
    raw = clock() - t0
    return wl, raw, raw * speed.factor(before + speed.sample(5))


def layer_metrics(summary, ops, overhead_frac, children, scale):
    """Per-layer rows, each normalised per traced operation where it is a sum.

    Times are multiplied by `scale`, the run's speed factor.
    """
    rows = summary["spans"]
    metrics = {}

    def put(metric, value, unit):
        metrics[metric] = {"value": value * scale if unit in ("s", "s/op") else value, "unit": unit}

    def per_op(value):
        return value / ops if ops else 0.0

    for boundary in spans.BOUNDARIES:
        calls, total, self_s = rows.get(boundary, (0, 0.0, 0.0))
        put(f"{boundary}.calls", per_op(calls), "calls/op")
        put(f"{boundary}.self_s", per_op(self_s), "s/op")
        if boundary in spans.ENTRY_POINTS:
            put(f"{boundary}.total_s", per_op(total), "s/op")
    put("cli.interp_start_s", statistics.median([c["interp_start_s"] for c in children]) if children else 0.0, "s")
    put("cli.import_s", statistics.median([c["import_s"] for c in children]) if children else 0.0, "s")
    for stage in spans.CLI_SPANS:
        put(f"{stage}.self_s", per_op(rows.get(stage, (0, 0.0, 0.0))[2]), "s/op")
    radical_calls = summary["radical_calls"]
    put("finalg.radical.repeat_frac",
        summary["radical_repeats"] / radical_calls if radical_calls else 0.0, "fraction")
    stabilizations = rows.get("core.stabilization_M", (0,))[0]
    steps = rows.get("core.delta_pm_core", (0,))[0]
    put("core.delta_pm_core.per_stabilization", steps / stabilizations if stabilizations else 0.0, "steps/call")
    products = rows.get("sps.SPSRing.mul", (0,))[0]
    put("skewder.sigma_delta.per_sps_mul",
        summary["sigma_delta_in_mul"] / products if products else 0.0, "apps/mul")
    put("trace.overhead_frac", overhead_frac, "fraction")
    return metrics


def measure(name, seed, seconds, trace, tiny=False, recorded=None):
    """One run; returns (result, detail).  `recorded` overrides digests.json."""
    wl, setup_raw, setup_s = timed_setup(name, seed, tiny)
    if recorded is None:
        recorded = workloads.load_digests()[name]
    if wl.seeded_outputs and seed != workloads.COMMITTED_SEED:
        recorded = None
    detail = {"workload": name, "seed": seed, "trace": trace, "tiny": tiny,
              "inputs": wl.inputs_fingerprint(), "digests_checked": recorded is not None}
    if trace:
        tracer = spans.Tracer()
        outcomes, plain_s, traced_s, kernel_times, cycles = traced_loop(wl, seconds, tracer)
        traced_ops = len(outcomes) // 2
        children = wl.child_summaries()
        summary = spans.merge([tracer.summary()] + children)
        scale = speed.factor(kernel_times)
        metrics = layer_metrics(summary, traced_ops, traced_s / plain_s - 1, children, scale)
        failed, messages = evaluate(wl, outcomes, recorded)
        missing = [] if tiny else [b for b in EXERCISED[name] if summary["spans"].get(b, (0,))[0] == 0]
        messages += [f"{b}: no calls recorded on a workload predicted to exercise it" for b in missing]
        detail.update(cycles=cycles, traced_ops=traced_ops, untraced_s=plain_s, traced_s=traced_s,
                      speed_factor=scale)
        correct = failed == 0 and not missing
    else:
        outcomes, raw, factors, wall_s, cycles = timed_loop(wl, seconds)
        who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
        peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024
        failed, messages = evaluate(wl, outcomes, recorded)
        setups = [setup_s] + ([] if tiny else [setup_probe(name, seed) for _ in range(SETUP_SAMPLES - 1)])
        latencies = [t * f for t, f in zip(raw, factors)]
        q, tail_s, beyond = tail(latencies, wl.tail_percentile)
        n = len(outcomes)
        metrics = {
            "ops_per_s": {"value": n / sum(latencies), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            "ok_frac": {"value": (n - failed) / n, "unit": "fraction"},
        }
        detail.update(
            cycles=cycles, tail_percentile=q, tail_samples=n, tail_samples_beyond=beyond,
            setup_samples_s=setups, speed_factor=statistics.median(factors),
            raw={"ops_per_s": n / sum(raw), "op_p50_s": statistics.median(raw),
                 "op_tail_s": percentile(raw, q), "setup_s": setup_raw, "loop_wall_s": wall_s},
        )
        correct = failed == 0
    detail["failures"] = messages[:10]
    result = {"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics}
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, args.trace)
    except workloads.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for message in detail["failures"]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
