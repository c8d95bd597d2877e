"""Tests of the benchmark harness itself, on tiny inputs.

    python3 -m pytest perfbench/test_harness.py
"""

import json

import pytest

import run
import spans
import workloads

with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

NAMES = [w["name"] for w in BENCHMARK["workloads"]]
SEED = workloads.COMMITTED_SEED


def named_units(result):
    return {(name, m["unit"]) for name, m in result["metrics"].items()}


def declared(kind):
    return {(m["name"], m["unit"]) for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_named_with_its_unit(name, trace, kind):
    result, _ = run.measure(name, SEED, 0, trace, tiny=True)
    assert named_units(result) == declared(kind)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_digest_is_caught(name):
    recorded = dict(workloads.load_digests()[name])
    key = sorted(k for k in recorded if k in workloads.build(name, SEED, tiny=True).cycle(0))[0]
    recorded[key] = "0" * 16
    result, detail = run.measure(name, SEED, 0, 0, tiny=True, recorded=recorded)
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] < 1
    assert any("recorded digest" in message for message in detail["failures"])


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_inputs_not_metric_names(name):
    a, b = workloads.build(name, 1, tiny=True), workloads.build(name, 2, tiny=True)
    assert a.inputs_fingerprint() != b.inputs_fingerprint()
    if name == "sps_mul":
        first, _ = run.measure(name, 1, 0, 0, tiny=True)
        second, _ = run.measure(name, 2, 0, 0, tiny=True)
        assert first["metrics"].keys() == second["metrics"].keys()
        assert second["correct"]


def test_tracer_rebinds_every_import_site():
    workloads.load_package()
    import skewseries
    from skewseries import cli, core, finalg
    from skewseries.skewder import SkewDerivation

    radical, theorem_c = finalg.radical, core.theorem_c_procedure
    tracer = spans.Tracer()
    tracer.install()
    try:
        for holder in (finalg, core, skewseries):
            assert holder.radical is not radical
        assert cli.theorem_c_procedure is not theorem_c
        A = finalg.truncated_poly_algebra(2, 2)
        sd = SkewDerivation.from_gen_images(A, A.basis_vec(1), A.one())
        I = finalg.ideal_generated(A, [A.basis_vec(1)])
        tracer.op += 1
        core.theorem_c_procedure(A, sd, I)
    finally:
        tracer.uninstall()
    assert finalg.radical is radical and core.radical is radical
    assert cli.theorem_c_procedure is theorem_c
    rows = tracer.summary()["spans"]
    assert rows["core.theorem_c_procedure"][0] == 1
    assert rows["finalg.radical"][0] > 1  # reached through core's own binding
    calls, total, self_s = rows["core.theorem_c_procedure"]
    assert 0 <= self_s <= total


def test_tail_has_ten_samples_beyond():
    latencies = [float(i) for i in range(200)]
    q, value, beyond = run.tail(latencies)
    assert q == 95.0 and beyond >= 10
    assert run.tail(latencies[:40])[0] == 75.0
