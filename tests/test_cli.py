import importlib.resources

import pytest

from skewseries.cli import (
    SpecError,
    build_context,
    fixture_names,
    load_spec_file,
    main,
    parse_spec,
    serialize_spec,
)


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


def test_demo_command(capsys):
    assert main(["demo", "iwasawa"]) == 0
    out = capsys.readouterr().out
    assert "sigma(t):" in out and "x*t:" in out


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
