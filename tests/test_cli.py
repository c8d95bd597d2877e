import importlib.resources
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewseries
from skewseries import coeffcore, core, filtration, finalg, sps
from skewseries.cli import (
    SpecError,
    build_context,
    fixture_names,
    load_spec_file,
    main,
    parse_element,
    parse_spec,
    serialize_spec,
)
from skewseries.sps import crossed_decompose

from helpers import cyclic_quiver_square_zero, finalg_spec


def fixture_text(name):
    root = importlib.resources.files("skewseries") / "fixtures"
    return (root / name).read_text()


def test_parse_requires_header():
    with pytest.raises(SpecError) as err:
        parse_spec("not a header\n")
    assert err.value.line == 1
    with pytest.raises(SpecError):
        parse_spec("")


def test_parse_unknown_section():
    with pytest.raises(SpecError) as err:
        parse_spec("sps-spec 1\n[nope]\n")
    assert err.value.line == 2 and "nope" in str(err.value)


def test_parse_content_before_section():
    with pytest.raises(SpecError, match="before any section"):
        parse_spec("sps-spec 1\nkind = series\n")


def test_parse_missing_equals():
    with pytest.raises(SpecError) as err:
        parse_spec("sps-spec 1\n[ring]\nkind series\n")
    assert err.value.line == 3


def test_nonprime_p_rejected():
    text = "sps-spec 1\n[ring]\nkind = series\np = 4\nT = 4\n"
    with pytest.raises(SpecError, match="not prime"):
        build_context(parse_spec(text))


def test_fixture_round_trip_identity():
    names = fixture_names()
    assert len(names) == 6
    for name in names:
        text = fixture_text(name)
        assert serialize_spec(parse_spec(text)) == text


def test_fixtures_build():
    for name in fixture_names():
        ctx = build_context(load_spec_file(name))
        assert ctx.base is not None and ctx.sd is not None


def test_verify_exit_codes(capsys):
    for name in ("iwasawa_p2.spec", "tpow_p2.spec", "quotient_demo.spec"):
        assert main(["verify", name]) == 0
        assert "skew axioms: valid" in capsys.readouterr().out
    # d/dX lowers the X-adic filtration, so compatibility honestly fails
    assert main(["verify", "bergen_grzeszczuk_p2.spec"]) == 1
    out = capsys.readouterr().out
    assert "skew axioms: valid" in out and "compatible: False" in out
    assert main(["verify", "bad_char0_derivation.spec"]) == 1
    out = capsys.readouterr().out
    assert "Leibniz" in out


def test_mul_command(capsys):
    assert main(["mul", "iwasawa_p2.spec", "f", "g"]) == 0
    first = capsys.readouterr().out
    assert main(["mul", "iwasawa_p2.spec", "f", "g"]) == 0
    assert capsys.readouterr().out == first


def test_gr_command(capsys):
    assert main(["gr", "iwasawa_p2.spec", "--window", "0..5"]) == 0
    out = capsys.readouterr().out
    assert "graded iso: True" in out
    assert "degree 0/2: dim 1" in out


@pytest.mark.parametrize("window", ["4..0", "2", "0..x", "0..2..4", ".."])
def test_gr_refuses_a_bad_window(window, capsys):
    # an empty range used to report "graded iso: True" with no degree checked
    with pytest.raises(SystemExit) as exc:
        main(["gr", "iwasawa_p2.spec", "--window", window])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --window" in captured.err and "spec error" not in captured.err


def test_gr_window_of_one_degree(capsys):
    assert main(["gr", "iwasawa_p2.spec", "--window", "3..3"]) == 0
    assert capsys.readouterr().out == "degree 3/2: dim 2\ngraded iso: True\n"


def test_gr_values_each_spanning_symbol_once(monkeypatch, capsys):
    # the dimension check values each of the 64 spanning symbols once, not once
    # per window degree as well (320 calls); every later call values a product
    # of the multiplicativity check
    values, products = [], []
    f_u_value, mul = sps.SPSRing.f_u_value, sps.SPSRing.mul
    monkeypatch.setattr(sps.SPSRing, "f_u_value", lambda S, f: values.append(len(products)) or f_u_value(S, f))
    monkeypatch.setattr(sps.SPSRing, "mul", lambda S, f, g: products.append(g) or mul(S, f, g))
    assert main(["gr", "iwasawa_p2.spec", "--window", "0..4"]) == 0
    dims = [1, 1, 2, 2, 3]
    assert capsys.readouterr().out == "".join(f"degree {h}/2: dim {d}\n" for h, d in enumerate(dims)) + \
        "graded iso: True\n"
    assert values.count(0) == 64 and len(values) == 64 + len(products) and products


def test_gr_builds_the_adic_basis_once(monkeypatch, capsys):
    # compatibility, the spanning symbols and every degree's dimension read one
    # cached adapted basis (built 19 times by this command before it was cached)
    builds = []
    prop = filtration.AdicFiltration.__dict__["adapted_basis"]
    build = prop.func
    monkeypatch.setattr(prop, "func", lambda w: builds.append(w) or build(w))
    assert main(["gr", "iwasawa_p2.spec", "--window", "0..7"]) == 0
    capsys.readouterr()
    assert len(builds) == 1


LARGE_P_SPEC = """sps-spec 1
[ring]
kind = series
p = 2147483647
T = 4
D = 3
[skew]
sigma_gen = 1*t^1 + 1*t^2
delta_gen = 1*t^2
"""


# sigma = id and delta = X d/dX, a derivation of F_p[X]/(X^3) (d/dX is one only for p = 3)
LARGE_P_FINALG_SPEC = """sps-spec 1
[ring]
kind = finalg
p = 2147483647
preset = tpoly 3
[skew]
sigma = 1 0 0; 0 1 0; 0 0 1
delta = 0 0 0; 0 1 0; 0 0 2
[filtration]
levels = 1 0 0, 0 1 0, 0 0 1 | 0 1 0, 0 0 1 | 0 0 1 | -
[ideals]
I = 0 1 0
"""


def test_a_large_p_is_proved_prime_once_per_check(monkeypatch, tmp_path, capsys):
    # the spec and the ring (a series ring, or a checked finite algebra) each prove
    # p = 2^31 - 1 prime, by trial division, and nothing else does: the adic values of the
    # coefficients use the ring's p unchecked (verify made 596 calls, 590 of them from values,
    # when every value re-proved it), and a characteristic-p check reads the ring's proven p
    # (core made 9 calls and theoremc 10 when every such check re-proved it)
    calls, prime = [], coeffcore.is_prime
    for module in [m for name, m in sys.modules.items() if name.startswith("skewseries")]:
        if getattr(module, "is_prime", None) is prime:
            monkeypatch.setattr(module, "is_prime", lambda n: calls.append(n) or prime(n))
    series, finalg = tmp_path / "large_p.spec", tmp_path / "large_p_finalg.spec"
    series.write_text(LARGE_P_SPEC)
    finalg.write_text(LARGE_P_FINALG_SPEC)
    for argv, out in (
        (["verify", series], "skew axioms: valid\nfiltration axioms: valid\ncompatible: True\n"),
        (["gr", series, "--window", "0..2"],
         "degree 0/2: dim 1\ndegree 1/2: dim 1\ndegree 2/2: dim 2\ngraded iso: True\n"),
        (["core", finalg, "--ideal", "I"],
         "ideal dim: 2\nchain: m=0:dim=2 m=1:dim=2 m=2:dim=2 m=3:dim=2 m=4:dim=2\nM: 0\ncore dim: 2\n"
         "delta^(p^M)-stable: True\nis ideal: True\nsigma^(p^M)-prime: True\nsigma^(p^M)-stable: True\n"),
        (["theoremc", finalg, "--ideal", "I"],
         "M: 0\nJ dim: 2\nJ basis: 0 1 0\nJ basis: 0 0 1\nI is the sigma-orbit intersection of J: True\n"
         "delta^(p^M)(J) <= J: True\nminimal sigma^(p^M)-prime: True\n"),
    ):
        calls.clear()
        assert main([str(a) for a in argv]) == 0
        assert capsys.readouterr().out == out
        assert calls == [2147483647] * 2


def test_core_command_exit_codes(capsys):
    assert main(["core", "bergen_grzeszczuk_p2.spec", "--ideal", "I"]) == 0
    out = capsys.readouterr().out
    assert "M: 1" in out
    assert main(["core", "bergen_grzeszczuk_p2.spec", "--ideal", "I", "--cap", "1"]) == 3
    assert "inconclusive" in capsys.readouterr().out


def test_theoremc_command(capsys):
    assert main(["theoremc", "bergen_grzeszczuk_p3.spec", "--ideal", "I"]) == 0
    out = capsys.readouterr().out
    assert "M: 1" in out and "delta^(p^M)(J) <= J: True" in out


def test_decompose_command(capsys):
    assert main(["decompose", "iwasawa_p2.spec", "--N", "1", "f"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("s_0:") and "round trip: True" in out


def test_decompose_refuses_a_negative_N(capsys):
    # p^N was the float 1/2 and crossed_decompose failed at range(e)
    assert main(["decompose", "iwasawa_p2.spec", "--N", "-1", "f"]) == 2
    assert capsys.readouterr().err == "error: N must be >= 0, got -1\n"


Q_DECOMPOSE = """sps-spec 1

[ring]
kind = finalg
p = 0
preset = tpoly 2
D = 4

[skew]
sigma = 1 0; 0 1
delta = 0 0; 0 0

[filtration]
levels = 1 0, 0 1 | 0 1 | -

[elements]
f = 1 + 1*t^1*x^1
"""

Z8_DECOMPOSE = """sps-spec 1

[ring]
kind = modp
p = 2
k = 3
T = 2
D = 4

[skew]
sigma_gen = 1*t^1
delta_gen = 0

[elements]
f = 1 + 1*t^1*x^1
"""


def test_decompose_over_q_is_refused_and_over_z_mod_8_answers(tmp_path, capsys):
    # over Q there is no p for x_N = (x+1)^(p^N) - 1: the Q decompose computed None**N and
    # printed a TypeError traceback with exit 1, the code of a refuted property
    (tmp_path / "q.spec").write_text(Q_DECOMPOSE)
    (tmp_path / "z8.spec").write_text(Z8_DECOMPOSE)
    assert main(["decompose", str(tmp_path / "q.spec"), "--N", "1", "f"]) == 2
    assert capsys.readouterr() == ("", "error: p^N needs a base over Z/p^k, not over Q\n")
    assert main(["decompose", str(tmp_path / "z8.spec"), "--N", "1", "f"]) == 0
    assert capsys.readouterr().out == "s_0: 1 + 7*t^1 | 0\ns_1: 1*t^1 | 0\nround trip: True\n"


def test_demo_command(capsys):
    assert main(["demo", "iwasawa"]) == 0
    out = capsys.readouterr().out
    assert "sigma(t):" in out and "x*t:" in out


def test_demo_prints_exact_degrees(capsys):
    # sigma = id and delta = 0 at p = 5, T = 3: both degrees are the value of 0
    assert main(["demo", "iwasawa", "--p", "5", "--T", "3", "--D", "3"]) == 0
    assert capsys.readouterr().out == (
        "ring: SPSRing(D=3 over F_5[t]/(t^3))\n"
        "sigma(t): 1*t^1\n"
        "delta(t): 0\n"
        "deg(sigma - id): oo\n"
        "deg(delta): oo\n"
        "compatible: True\n"
        "x*t: 1*t^1*x^1\n"
    )
    assert main(["demo", "iwasawa", "--p", "3", "--T", "6", "--D", "6"]) == 0
    assert capsys.readouterr().out.splitlines()[3:5] == ["deg(sigma - id): 2", "deg(delta): 2"]


INCOMPATIBLE_SERIES = """sps-spec 1

[ring]
kind = series
p = 2
T = 4
{D}
[skew]
sigma_gen = 1*t^1
delta_gen = 1

[filtration]
kind = adic

[elements]
f = 1*t^1
g = 1*t^2
"""


def test_incompatible_pair_is_refused_not_multiplied(tmp_path, capsys):
    # delta(t) = 1 lowers the t-adic value, so the staircase quotient is not a ring
    spec = tmp_path / "incompatible.spec"
    spec.write_text(INCOMPATIBLE_SERIES.format(D="D = 4\n"))
    assert main(["mul", str(spec), "f", "g"]) == 2
    assert "not compatible with the filtration" in capsys.readouterr().err
    spec.write_text(INCOMPATIBLE_SERIES.format(D=""))
    assert main(["verify", str(spec)]) == 1
    assert "compatible: False" in capsys.readouterr().out


NOT_A_DERIVATION = """sps-spec 1

[ring]
kind = finalg
p = 2
preset = tpoly 2
D = 4

[skew]
sigma = 1 0; 0 1
delta = 0 1; 0 0

[filtration]
levels = 1 0, 0 1 | 0 1 | -

[elements]
x = 1*x^1
"""


def test_a_pair_that_is_no_skew_derivation_is_refused_not_multiplied(tmp_path, capsys):
    # delta(1) = X on F_2[X]/(X^2) breaks Leibniz, so the SPS ring is not associative: mul
    # refuses the pair, naming the first axiom verify reports, with its witness
    spec = tmp_path / "not_a_derivation.spec"
    spec.write_text(NOT_A_DERIVATION)
    assert main(["mul", str(spec), "x", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: (sigma, delta) is not a skew derivation: Leibniz: witness (0, 0)\n"
    assert main(["verify", str(spec)]) == 1
    assert capsys.readouterr().out.startswith("skew axioms: Leibniz: witness (0, 0)\ndelta(1) = 0: witness (1, 0)\n")


@pytest.mark.parametrize("argv", [["gr", "--window", "0..2"], ["decompose", "--N", "0", "x"]])
def test_the_other_commands_on_an_sps_ring_refuse_a_pair_that_is_no_skew_derivation(tmp_path, capsys, argv):
    # gr and decompose read the same ring as mul, which is not associative, and refuse it as mul does
    spec = tmp_path / "not_a_derivation.spec"
    spec.write_text(NOT_A_DERIVATION)
    assert main([argv[0], str(spec), *argv[1:]]) == 2
    assert capsys.readouterr() == ("", "error: (sigma, delta) is not a skew derivation: Leibniz: witness (0, 0)\n")


SWAP_PAIR = """sps-spec 1

[ring]
kind = finalg
p = 2
preset = fields 2
{D}
[skew]
sigma = 1 0; 0 1
delta = 0 1; 1 0

[ideals]
I = 1 0

[elements]
f = 1*t^0
"""


@pytest.mark.parametrize("argv", [["core", "--ideal", "I"], ["theoremc", "--ideal", "I"], ["mul", "f", "f"]])
def test_a_pair_that_breaks_only_leibniz_is_refused_by_a_verdict(tmp_path, capsys, argv):
    # sigma = id commutes with delta and is an automorphism, and 0 and I are ideals, so only the
    # Leibniz law catches this pair, which core and theoremc answered with exit 0 and every flag
    # True; mul refuses it with no D too, where it printed the product in the base
    spec = tmp_path / "swap.spec"
    spec.write_text(SWAP_PAIR.format(D=""))
    assert main([argv[0], str(spec), *argv[1:]]) == 2
    assert capsys.readouterr() == ("", "error: (sigma, delta) is not a skew derivation: Leibniz: witness (0, 0)\n")
    assert main(["verify", str(spec)]) == 1
    assert capsys.readouterr().out.startswith("skew axioms: Leibniz: witness (0, 0)\n")


def test_verify_reports_the_compatibility_of_a_spec_with_D(tmp_path, capsys):
    # D asks for an SPS ring, refused on an incompatible filtration; verify needs no such ring and
    # prints the report it prints without D, where it used to exit 2 first; the others still refuse
    spec = tmp_path / "swap.spec"
    spec.write_text(SWAP_PAIR.format(D=""))
    assert main(["verify", str(spec)]) == 1
    report = capsys.readouterr().out
    assert report.endswith("filtration axioms: valid\ncompatible: False\n")
    spec.write_text(SWAP_PAIR.format(D="D = 3\n"))
    assert main(["verify", str(spec)]) == 1
    assert capsys.readouterr() == (report, "")
    for argv in (["mul", "f", "f"], ["gr", "--window", "0..2"], ["decompose", "--N", "0", "f"],
                 ["core", "--ideal", "I"], ["theoremc", "--ideal", "I"]):
        assert main([argv[0], str(spec), *argv[1:]]) == 2
        assert capsys.readouterr() == ("", "error: skew derivation is not compatible with the filtration\n")


SINGULAR_SIGMA = """sps-spec 1

[ring]
kind = finalg
p = 2
preset = fields 2

[skew]
sigma = 1 0; 1 0
delta = 0 0; 0 0

[ideals]
I = 1 0
"""


@pytest.mark.parametrize("command", ["core", "theoremc"])
def test_a_singular_sigma_is_refused(tmp_path, capsys, command):
    # sigma is singular and moves 1; core used to report M: 0 with exit 0
    spec = tmp_path / "singular_sigma.spec"
    spec.write_text(SINGULAR_SIGMA)
    assert main([command, str(spec), "--ideal", "I"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sigma is not an algebra automorphism\n"


SIZED_FINALG = """sps-spec 1

[ring]
kind = finalg
p = 2
dim = 2
structure = 1 0, 0 1, 0 1, 0 0
unit = 1 0

[skew]
sigma = 1 0; 0 1
delta = 0 0; 1 0

[filtration]
levels = 1 0, 0 1 | 0 1 | -

[ideals]
I = 0 1
"""


@pytest.mark.parametrize("line,bad,message", [
    ("unit = 1 0", "unit = 1 0 0", "unit needs vectors of 2 coordinates"),
    ("sigma = 1 0; 0 1", "sigma = 1 0 0; 0 1 0; 0 0 1", "sigma must be a 2x2 matrix"),
    ("delta = 0 0; 1 0", "delta = 0", "delta must be a 2x2 matrix"),
    ("levels = 1 0, 0 1 | 0 1 | -", "levels = 1 0, 0 1 | 0 1 0 | -",
     "levels needs vectors of 2 coordinates"),
    ("I = 0 1", "I = 0 1 0", "ideal I needs vectors of 2 coordinates"),
])
def test_spec_sizes_are_checked_per_key(tmp_path, capsys, line, bad, message):
    spec = tmp_path / "sized.spec"
    spec.write_text(SIZED_FINALG)
    assert main(["core", str(spec), "--ideal", "I"]) == 0
    capsys.readouterr()
    spec.write_text(SIZED_FINALG.replace(line, bad))
    assert main(["core", str(spec), "--ideal", "I"]) == 2
    lineno = SIZED_FINALG.splitlines().index(line) + 1
    assert f"spec error: line {lineno}, column 1: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("name,line,bad,at,message", [
    # misspelled, the filtration was the trivial one and gr exited 1 with "graded iso: False"
    ("quotient_demo.spec", "levels =", "levles =", "levles", "'levles' is not a [filtration] key of a finalg ring"),
    ("quotient_demo.spec", "D = 4", "D = 4\nD = 2", "D = 2", "repeated key 'D' in [ring]"),
    ("quotient_demo.spec", "p = 2", "p = 2\nT = 4", "T = 4", "'T' is not a [ring] key of a finalg ring"),
    ("quotient_demo.spec", "p = 2", "p = 2\nk = 2", "k = 2", "'k' is not a [ring] key of a finalg ring"),
    ("quotient_demo.spec", "delta = 0 0; 0 0", "delta = 0 0; 0 0\nq = 1", "q = 1",
     "'q' is not a [skew] key of a finalg ring"),
    ("iwasawa_p2.spec", "T = 8", "T = 8\npreset = tpoly 2", "preset",
     "'preset' is not a [ring] key of a series ring"),
    ("iwasawa_p2.spec", "delta_gen", "sigma = 1 0; 0 1\ndelta_gen", "sigma =",
     "'sigma' is not a [skew] key of a series ring"),
    ("iwasawa_p2.spec", "delta_gen", "delta = 0 0; 1 0\ndelta_gen", "delta =",
     "'delta' is not a [skew] key of a series ring"),
    ("iwasawa_p2.spec", "[elements]", "[ideals]\nI = 0 1\n\n[elements]", "[ideals]",
     "a series ring has no [ideals] section"),
    ("iwasawa_p2.spec", "g = ", "g = 1\ng = ", "g = 1*t^2", "repeated key 'g' in [elements]"),
    ("iwasawa_p2.spec", "kind = adic", "kind = chain", "kind = chain",
     "[filtration] kind must be adic, got 'chain'"),
    # sigma without delta: the generator images were used and the matrix ignored
    ("bergen_grzeszczuk_p2.spec", "delta = 0 0; 1 0", "sigma_gen = 1*t^1\ndelta_gen = 1", "sigma =",
     "[skew] needs both sigma and delta matrices"),
])
def test_a_spec_key_that_is_not_read_is_refused(tmp_path, capsys, name, line, bad, at, message):
    spec = tmp_path / name
    argv = ["gr", str(spec), "--window", "0..2"]
    spec.write_text(fixture_text(name))
    assert main(argv) == 0
    capsys.readouterr()
    text = fixture_text(name).replace(line, bad, 1)
    spec.write_text(text)
    assert main(argv) == 2
    lineno = next(i for i, row in reversed(list(enumerate(text.splitlines(), 1))) if row.startswith(at))
    assert capsys.readouterr().err == f"spec error: line {lineno}, column 1: {message}\n"


def test_spec_error_names_the_line_of_its_key(tmp_path, capsys):
    text = fixture_text("bergen_grzeszczuk_p3.spec").replace(
        "sigma = 1 0 0; 0 1 0; 0 0 1", "sigma = 1 0; 0 1")
    spec = tmp_path / "small_sigma.spec"
    spec.write_text(text)
    assert main(["core", str(spec), "--ideal", "I"]) == 2
    lineno = text.splitlines().index("sigma = 1 0; 0 1") + 1
    assert lineno == 9
    assert capsys.readouterr().err == "spec error: line 9, column 1: sigma must be a 3x3 matrix\n"
    # a key that is absent has no line to name
    spec.write_text(text.replace("preset = tpoly 3\n", ""))
    assert main(["core", str(spec), "--ideal", "I"]) == 2
    assert capsys.readouterr().err == "spec error: [ring] finalg needs dim or preset\n"


@pytest.mark.parametrize("code,argv,stream,expected", [
    (0, ["verify", "iwasawa_p2.spec"], "out", "skew axioms: valid"),
    (1, ["verify", "bad_char0_derivation.spec"], "out", "skew axioms: Leibniz: witness (1, 1)"),
    (2, ["verify", "does_not_exist.spec"], "err", "spec error: spec file not found: does_not_exist.spec\n"),
    (3, ["core", "bergen_grzeszczuk_p3.spec", "--ideal", "I", "--cap", "0"], "out", "M: inconclusive at cap 0"),
    (4, ["core", "bergen_grzeszczuk_p3.spec", "--ideal", "I"], "err", "internal error: core chain is not ascending\n"),
])
def test_each_exit_code(monkeypatch, capsys, code, argv, stream, expected):
    if code == 4:  # a core chain that shrinks, which stabilization_M must never see: (X^2) at m = 0, then 0
        monkeypatch.setattr(core, "delta_pm_core", lambda A, sd, I, m: finalg.subspace(
            A, I.basis[-1:] if m == 0 else []))
    assert main(argv) == code
    captured = capsys.readouterr()
    assert expected in (captured.out if stream == "out" else captured.err)


def test_missing_spec_is_exit_2(capsys):
    assert main(["verify", "does_not_exist.spec"]) == 2
    assert "not found" in capsys.readouterr().err


def test_undefined_element_is_exit_2(capsys):
    assert main(["mul", "iwasawa_p2.spec", "f", "nope"]) == 2


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "failures: 0" in out
    for name in fixture_names():
        assert name in out


def test_core_negative_cap_is_exit_2(capsys):
    ctx = build_context(load_spec_file("bergen_grzeszczuk_p2.spec"))
    with pytest.raises(core.CoreError, match="cap must be >= 0"):
        core.stabilization_M(ctx.base, ctx.sd, ctx.ideals["I"], cap=-1)
    assert main(["core", "bergen_grzeszczuk_p2.spec", "--ideal", "I", "--cap", "-1"]) == 2
    assert capsys.readouterr().err == "error: cap must be >= 0, got -1\n"


def test_theoremc_negative_cap_is_exit_2(capsys):
    ctx = build_context(load_spec_file("bergen_grzeszczuk_p2.spec"))
    with pytest.raises(core.CoreError, match="cap must be >= 0"):
        core.theorem_c_procedure(ctx.base, ctx.sd, ctx.ideals["I"], cap=-1)
    assert main(["theoremc", "bergen_grzeszczuk_p2.spec", "--ideal", "I", "--cap", "-1"]) == 2
    assert capsys.readouterr().err == "error: cap must be >= 0, got -1\n"


@pytest.mark.parametrize("command", ["core", "theoremc"])
def test_cap_zero_is_exit_3(command, capsys):
    # the true M is 1; a cap of 0 compares no two cores, so nothing is claimed
    assert main([command, "bergen_grzeszczuk_p3.spec", "--ideal", "I", "--cap", "0"]) == 3
    out = capsys.readouterr().out
    assert "M: 0" not in out and "delta^(p^M)(J) <= J" not in out
    assert ("M: inconclusive at cap 0" if command == "core" else "inconclusive at cap") in out


def fields_spec(n):
    """F_2^n with sigma the cyclic shift, delta = sigma - id and the ideal I = 0."""
    def rows(shifts):  # row i: the image of e_i, sum of e_(i+s) for s in shifts
        return "; ".join(" ".join(str(int((j - i) % n in shifts)) for j in range(n)) for i in range(n))

    return ("sps-spec 1\n\n[ring]\nkind = finalg\np = 2\npreset = fields " f"{n}\n\n[skew]\n"
            f"sigma = {rows({1})}\ndelta = {rows({0, 1})}\n\n[ideals]\nI = -\n")


def test_theoremc_without_convergence_is_exit_3(monkeypatch, capsys, tmp_path):
    # 0 is the minimal sigma-prime of F_2^16 under the cyclic shift, the meet of
    # an orbit of 16 primes; each round adds 1 to M, so round j meets every
    # 2^j-th member of the orbit, a new ideal each round, and no round meets
    # the ideal it started from; the first meet is the minimal-sigma-prime test
    rounds, meets = [], []

    def one_more(A, sd, I, cap=None):
        rounds.append(I)
        return core.CoreReport(ideal_dim=I.dim, cap=cap, M=1)

    meet = core.ideal_meet
    monkeypatch.setattr(core, "stabilization_M", one_more)
    monkeypatch.setattr(core, "ideal_meet", lambda ideals: meets.append(ideals) or meet(ideals))
    spec = tmp_path / "fields16.spec"
    spec.write_text(fields_spec(16))
    assert main(["theoremc", str(spec), "--ideal", "I", "--cap", "2"]) == 3
    assert capsys.readouterr().out == "inconclusive at cap\n"
    assert len(rounds) == 4  # cap + 2 rounds ran
    assert len(set(rounds)) == 4 and len(meets) == 5  # the minimality test and one meet per round


def test_theoremc_walks_a_sigma_orbit_of_65_primes(tmp_path, capsys):
    # F_2^65 with the cyclic shift and delta = sigma - id: 0 is the minimal
    # sigma-prime, and its orbit of 65 primes is walked without a cap
    spec = tmp_path / "fields65.spec"
    spec.write_text(fields_spec(65))
    assert main(["theoremc", str(spec), "--ideal", "I"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "M: 0", "J dim: 0", "I is the sigma-orbit intersection of J: True",
        "delta^(p^M)(J) <= J: True", "minimal sigma^(p^M)-prime: True"]


def test_theoremc_on_a_second_round_refinement(tmp_path, capsys):
    A, sd = cyclic_quiver_square_zero(4)
    spec = tmp_path / "quiver4.spec"
    spec.write_text(finalg_spec(A, sd, A.basis()[4:]))  # I = (a_0, ..., a_3), the radical
    assert main(["theoremc", str(spec), "--ideal", "I"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("M: 1\nJ dim: 6\n") and ": False" not in out


def _fresh_interpreter(code):
    """Run code in a new interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(skewseries.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_sympy_stays_off_the_import_path():
    out = _fresh_interpreter(
        "import sys, skewseries, skewseries.cli\n"
        "from skewseries.cli import main\n"
        "assert main(['demo', 'iwasawa']) == 0\n"
        "assert main(['theoremc', 'bergen_grzeszczuk_p3.spec', '--ideal', 'I']) == 0\n"
        "print('sympy' in sys.modules)\n"
    )
    assert out.endswith("\nFalse\n")


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # each CLI command is one process, so every module its import loads is start-up time
    out = _fresh_interpreter("import sys, skewseries.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    assert out == "[]\n"


def test_no_fp_path_imports_sympy():
    # the F_p centre split is the Frobenius fixed space: no factoring
    out = _fresh_interpreter(
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from helpers import permutation_group_algebra\n"
        "from skewseries.cli import main\n"
        "from skewseries.finalg import prime_spectrum\n"
        "S3, A4 = [(1, 0, 2), (1, 2, 0)], [(1, 2, 0, 3), (1, 0, 3, 2)]\n"
        "print(len(prime_spectrum(permutation_group_algebra(3, S3))))\n"
        "print(len(prime_spectrum(permutation_group_algebra(2, A4))))\n"
        "assert main(['theoremc', 'bergen_grzeszczuk_p3.spec', '--ideal', 'I']) == 0\n"
        "print('sympy' in sys.modules)\n"
    )
    assert out.startswith("2\n2\n") and out.endswith("\nFalse\n")


FRACTION_SERIES = """sps-spec 1

[ring]
kind = series
p = 3
T = 4
D = 4

[skew]
sigma_gen = 1*t^1
delta_gen = 1*t^2
q = 1

[filtration]
kind = adic

[elements]
f = 1*t^1
g = 1*x^1
"""

FRACTION_FINALG = """sps-spec 1

[ring]
kind = finalg
p = {p}
preset = tpoly 3
{D}
[skew]
sigma = 1 0 0; 0 1 0; 0 0 1
delta = 0 0 0; 0 0 0; 0 0 0

[filtration]
levels = 1 0 0, 0 1 0, 0 0 1 | 0 1 0, 0 0 1 | 0 0 1 | -

[elements]
f = 1*t^1
g = 1*t^1
"""


@pytest.mark.parametrize("text,line,bad", [
    (FRACTION_SERIES, "sigma_gen = 1*t^1", "sigma_gen = 1*t^1 + 1/2*t^2"),
    (FRACTION_SERIES, "delta_gen = 1*t^2", "delta_gen = 1/2*t^2"),
    (FRACTION_SERIES, "q = 1", "q = 1 + 1/2*t^2"),
    (FRACTION_SERIES, "f = 1*t^1", "f = 1/2*t^1"),
    (FRACTION_FINALG.format(p=3, D=""), "f = 1*t^1", "f = 1/2*t^1"),
    (FRACTION_FINALG.format(p=3, D="D = 3\n"), "f = 1*t^1", "f = 1/2*t^1"),
], ids=["series-sigma_gen", "series-delta_gen", "series-q", "series-element",
        "finalg-element", "sps-over-finalg-element"])
def test_a_fraction_mod_p_is_a_spec_error(tmp_path, capsys, text, line, bad):
    # these were read as delta(t) = 0, q = 1 or an element holding 1/2, with exit 0
    spec = tmp_path / "fraction.spec"
    spec.write_text(text)
    assert main(["mul", str(spec), "f", "g"]) == 0
    capsys.readouterr()
    spec.write_text(text.replace(line, bad))
    assert main(["mul", str(spec), "f", "g"]) == 2
    lineno = text.splitlines().index(line) + 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"spec error: line {lineno}, column 1: bad scalar '1/2'\n"


def test_a_fraction_over_q_is_a_scalar(tmp_path, capsys):
    spec = tmp_path / "fraction_q.spec"
    spec.write_text(FRACTION_FINALG.format(p=0, D="").replace("f = 1*t^1", "f = 1/2*t^1"))
    assert main(["mul", str(spec), "f", "g"]) == 0
    assert capsys.readouterr().out == "1/2*t^2\n"


@pytest.mark.parametrize("text,bad,message", [
    (FRACTION_SERIES, "f = 1*t^-1", "t^-1 out of range"),
    (FRACTION_SERIES, "f = 1*x^-1", "x^-1 out of range"),
    (FRACTION_FINALG.format(p=0, D=""), "f = 1/0*t^1", "bad scalar '1/0'"),
    (FRACTION_SERIES, "f = 2*2*t^1", "term '2*2*t^1' repeats a factor"),
    (FRACTION_SERIES, "f = 1*t^1*t^1", "term '1*t^1*t^1' repeats a factor"),
    (FRACTION_FINALG.format(p=0, D=""), "f = 1*e^3", "e^3 out of range"),
    (FRACTION_FINALG.format(p=0, D=""), "f = 1*t^1*e^1", "term '1*t^1*e^1' repeats a factor"),
], ids=["negative-t", "negative-x", "zero-denominator", "two-coefficients", "two-t-powers", "e-out-of-range",
        "t-and-e-powers"])
def test_a_malformed_term_is_a_spec_error(tmp_path, capsys, text, bad, message):
    # a negative exponent indexed from the end (t^-1 was read as t^(T-1)),
    # and a repeated factor kept only its last value (2*2*t^1 was read as 2*t^1)
    spec = tmp_path / "malformed.spec"
    spec.write_text(text.replace("f = 1*t^1", bad))
    assert main(["mul", str(spec), "f", "g"]) == 2
    lineno = text.splitlines().index("f = 1*t^1") + 1
    assert capsys.readouterr().err == f"spec error: line {lineno}, column 1: {message}\n"


def test_a_spec_path_that_cannot_be_read_is_exit_2(tmp_path, capsys):
    # a directory used to end in an IsADirectoryError traceback and exit 1, the "refuted" code
    assert main(["verify", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"spec error: cannot read spec file {tmp_path}: ")


def test_a_missing_fixture_directory_is_exit_2(monkeypatch, tmp_path, capsys):
    missing = tmp_path / "nonexistent"
    monkeypatch.setenv("SKEWSERIES_FIXTURES", str(missing))
    assert main(["selftest"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"spec error: cannot list fixtures in {missing}: ")


def test_a_preset_with_extra_tokens_is_refused(tmp_path, capsys):
    # the third token used to be ignored, and verify exited 0
    text = fixture_text("quotient_demo.spec").replace("preset = tpoly 2", "preset = tpoly 2 junk")
    spec = tmp_path / "junk.spec"
    spec.write_text(text)
    assert main(["verify", str(spec)]) == 2
    lineno = text.splitlines().index("preset = tpoly 2 junk") + 1
    assert capsys.readouterr().err == (
        f"spec error: line {lineno}, column 1: preset takes a name and a size, got 'tpoly 2 junk'\n")


@pytest.mark.parametrize("name", ["iwasawa_p2.spec", "tpow_p2.spec", "quotient_demo.spec"])
def test_a_printed_product_parses_back(name, capsys):
    # mul prints e^a over a finite-algebra base; a spec element reads it back as the same coordinate
    ctx = build_context(load_spec_file(name))
    assert main(["mul", name, "f", "g"]) == 0
    printed = capsys.readouterr().out.strip()
    product = ctx.sps.mul(ctx.elements["f"], ctx.elements["g"])
    assert ctx.sps.normalize(parse_element(ctx.base, printed, ctx.sps.D)) == product


@pytest.mark.parametrize("name", ["iwasawa_p2.spec", "quotient_demo.spec"])  # delta = sigma - id
def test_printed_components_parse_back(name, capsys):
    ctx = build_context(load_spec_file(name))
    assert main(["decompose", name, "--N", "1", "f"]) == 0
    lines = capsys.readouterr().out.splitlines()
    comps = crossed_decompose(ctx.sps, 1, ctx.elements["f"])
    assert len(lines) == len(comps) + 1
    for line, comp in zip(lines, comps):
        texts = line.split(": ", 1)[1].split(" | ")
        assert [parse_element(ctx.base, text)[0] for text in texts] == list(comp)


def test_e_powers_are_refused_over_a_series_base():
    base = build_context(load_spec_file("iwasawa_p2.spec")).base
    with pytest.raises(SpecError, match="bad scalar 'e\\^1'"):
        parse_element(base, "1*e^1")
