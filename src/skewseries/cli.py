"""Batch command-line front end.

Reads line-oriented spec files (versioned grammar ``sps-spec 1``),
builds the described rings, skew derivations, filtrations and elements,
and dispatches deterministic report-producing commands.  Exit codes:
0 = success / property holds, 1 = property refuted (with witness),
2 = usage or spec error, 3 = inconclusive (a cap was reached),
4 = implementation error (an internal consistency check failed).
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from importlib import resources

from . import exactla as la
from .coeffcore import is_prime
from .core import core_flags, stabilization_M, theorem_c_procedure
from .filtration import (
    AdicFiltration,
    ChainFiltration,
    assoc_graded,
    check_axioms,
    endo_degree,
    is_compatible,
)
from .finalg import FinAlgebra, ImplementationError, ideal_generated, truncated_poly_algebra, product_of_fields, matrix_algebra
from .series import SeriesRing
from .skewder import SkewDerivation, check_skew_derivation, require_skew_derivation
from .sps import SPSRing, crossed_decompose, crossed_recompose, graded_dim, graded_iso_check, iwasawa_demo

GRAMMAR_VERSION = "sps-spec 1"
FIXTURE_ENV = "SKEWSERIES_FIXTURES"

SECTION_ORDER = ("ring", "skew", "filtration", "ideals", "elements")
PRESETS = {"tpoly": truncated_poly_algebra, "fields": product_of_fields, "matrix": matrix_algebra}


class SpecError(Exception):
    """A spec mistake; ``line`` is None when no spec line is to blame."""

    def __init__(self, message, line=None, column=1):
        super().__init__(message if line is None else f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SpecValue(str):
    """A value string that remembers the spec line it was read from."""

    def __new__(cls, text, line):
        value = super().__new__(cls, text)
        value.line = line
        return value


def _line(text):
    return getattr(text, "line", None)


class SpecFile:
    def __init__(self):
        self.sections = {}  # name -> list of (key, SpecValue)
        self.header_lines = {}  # name -> line of its first header
        self.read = set()  # (section, key) of every lookup: build_context refuses the rest

    def get(self, section, key, default=None):
        self.read.add((section, key))
        return next((v for k, v in self.items(section) if k == key), default)

    def items(self, section):
        return self.sections.get(section, [])


def parse_spec(text: str) -> SpecFile:
    lines = text.splitlines()
    if not lines or lines[0].strip() != GRAMMAR_VERSION:
        raise SpecError(f"first line must be '{GRAMMAR_VERSION}'", line=1)
    spec = SpecFile()
    current = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise SpecError("unterminated section header", lineno, line.index("[") + 1)
            name = stripped[1:-1].strip()
            if name not in SECTION_ORDER:
                raise SpecError(f"unknown section '{name}'", lineno)
            current = name
            spec.sections.setdefault(name, [])
            spec.header_lines.setdefault(name, lineno)
            continue
        if current is None:
            raise SpecError("content before any section header", lineno)
        if "=" not in line:
            raise SpecError("expected 'key = value'", lineno, len(line))
        key, value = (part.strip() for part in line.split("=", 1))
        if any(k == key for k, _ in spec.sections[current]):
            raise SpecError(f"repeated key '{key}' in [{current}]", lineno)
        spec.sections[current].append((key, SpecValue(value, lineno)))
    if "ring" not in spec.sections:
        raise SpecError("missing [ring] section", len(lines))
    return spec


def serialize_spec(spec: SpecFile) -> str:
    out = [GRAMMAR_VERSION, ""]
    for name in SECTION_ORDER:
        if name not in spec.sections:
            continue
        out.append(f"[{name}]")
        for key, value in spec.sections[name]:
            out.append(f"{key} = {value}")
        out.append("")
    return "\n".join(out)


# -- value parsers -------------------------------------------------------------


def _int(value, lineno=None):
    try:
        return int(value)
    except ValueError:
        raise SpecError(f"expected an integer, got '{value}'", lineno or _line(value)) from None


def _scalar(token, mod, lineno):
    """A reduced rational over Q (mod None), else an integer reduced mod the modulus."""
    token = token.strip()
    try:
        return la.fnorm(Fraction(token), None) if mod is None else int(token) % mod
    except (ValueError, ZeroDivisionError):
        raise SpecError(f"bad scalar '{token}'", lineno) from None


def parse_element(ring, text, D=None):
    """Sparse 'c*t^a*x^b + ...' (t^a, x^b optional) as D or 1 ring elements, one per x^b.

    Over a FinAlgebra, e^a (as SPSRing.serialize prints it) is t^a.
    """
    lineno = _line(text)
    rows = [[0] * ring.dim for _ in range(D or 1)]
    coordinate = ("t^", "e^") if isinstance(ring, FinAlgebra) else ("t^",)
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise SpecError("empty term in element", lineno)
        coef, a, b, sym = None, 0, 0, "t"
        parts = [part.strip() for part in term.split("*")]
        kinds = ["t" if part[:2] in coordinate else "x" if part[:2] == "x^" else "c" for part in parts]
        for part, kind in zip(parts, kinds):
            if kind == "t":
                a, sym = _int(part[2:], lineno), part[0]
            elif kind == "x":
                b = _int(part[2:], lineno)
            else:
                coef = _scalar(part, ring.scalar_mod, lineno)
        if len(set(kinds)) < len(kinds):
            raise SpecError(f"term '{term}' repeats a factor", lineno)
        if coef is None:
            raise SpecError(f"term '{term}' has no coefficient", lineno)
        for name, n, size in ((sym, a, ring.dim), ("x", b, len(rows))):
            if not 0 <= n < size:
                raise SpecError(f"{name}^{n} out of range", lineno)
        rows[b][a] += coef
    return [ring.element(row) for row in rows]


def parse_matrix(text, mod):
    rows = [tuple(_scalar(tok, mod, _line(text)) for tok in row_text.split())
            for row_text in text.split(";")]
    if any(len(r) != len(rows) for r in rows):
        raise SpecError("matrix is not square", _line(text))
    return tuple(rows)


def parse_vectors(text, mod, lineno=None):
    lineno = lineno or _line(text)
    return [tuple(_scalar(tok, mod, lineno) for tok in vec_text.split())
            for vec_text in text.split(",") if vec_text.strip() not in ("", "-")]


def _check_dim(text, mod, dim, key, lineno=None):
    """The vectors of text, each of the ring dimension."""
    vectors = parse_vectors(text, mod, lineno)
    if any(len(v) != dim for v in vectors):
        raise SpecError(f"{key} needs vectors of {dim} coordinates (the ring dimension)",
                        lineno or _line(text))
    return vectors


# -- context construction -------------------------------------------------------


class Context:
    def __init__(self, base, sd: SkewDerivation, filtration, sps: SPSRing | None,
                 ideals: dict, elements: dict):
        self.base, self.sd, self.filtration, self.sps = base, sd, filtration, sps
        self.ideals, self.elements = ideals, elements


def build_context(spec: SpecFile, compatible=True) -> Context:  # False: verify reports compatibility itself
    kind = spec.get("ring", "kind")
    if kind is None:
        raise SpecError("[ring] needs kind = series | finalg | modp")
    if kind not in ("series", "modp", "finalg"):
        raise SpecError(f"unknown ring kind '{kind}'", _line(kind))
    p_text = spec.get("ring", "p")
    if p_text is None:
        raise SpecError("[ring] needs p (0 means rationals)")
    p_num = _int(p_text)
    D = spec.get("ring", "D")
    D = _int(D) if D is not None else None

    if kind in ("series", "modp"):
        if not is_prime(p_num):
            raise SpecError(f"p = {p_num} is not prime", _line(p_text))
        T = _int(spec.get("ring", "T", "1"))
        k = _int(spec.get("ring", "k", "1"))
        base = SeriesRing(p_num, T, k)
        filtration = spec.get("filtration", "kind", "adic")
        if filtration != "adic":
            raise SpecError(f"[filtration] kind must be adic, got '{filtration}'", _line(filtration))
        if "ideals" in spec.sections:
            raise SpecError(f"a {kind} ring has no [ideals] section", spec.header_lines["ideals"])
        u = AdicFiltration(base)
        sigma_text = spec.get("skew", "sigma_gen")
        delta_text = spec.get("skew", "delta_gen")
        if sigma_text is None or delta_text is None:
            raise SpecError("[skew] needs sigma_gen and delta_gen for series rings")
        q_text = spec.get("skew", "q")
        q = parse_element(base, q_text)[0] if q_text else None
        sd = SkewDerivation.from_gen_images(
            base, parse_element(base, sigma_text)[0], parse_element(base, delta_text)[0], q=q
        )
    else:  # finalg
        p = None if p_num == 0 else p_num
        if p is not None and not is_prime(p):
            raise SpecError(f"p = {p_num} is not prime", _line(p_text))
        preset = spec.get("ring", "preset")
        if preset:
            parts = preset.split()
            if len(parts) > 2:
                raise SpecError(f"preset takes a name and a size, got '{preset}'", _line(preset))
            name, n = parts[0], _int(parts[1]) if len(parts) > 1 else 2
            if name not in PRESETS:
                raise SpecError(f"unknown preset '{name}'", _line(preset))
            base = PRESETS[name](p, n)
        else:
            dim_text = spec.get("ring", "dim", "0")
            dim = _int(dim_text)
            if dim < 1:
                raise SpecError("[ring] finalg needs dim or preset", _line(dim_text))
            structure_text = spec.get("ring", "structure")
            unit_text = spec.get("ring", "unit")
            if structure_text is None or unit_text is None:
                raise SpecError("[ring] finalg needs structure and unit")
            flat = parse_vectors(structure_text, p)
            if len(flat) != dim * dim or any(len(v) != dim for v in flat):
                raise SpecError("structure must list dim*dim coordinate vectors", _line(structure_text))
            units = _check_dim(unit_text, p, dim, "unit")
            if len(units) != 1:
                raise SpecError("unit must be one vector", _line(unit_text))
            base = FinAlgebra(p, dim, [flat[i * dim:(i + 1) * dim] for i in range(dim)], units[0])
        sigma_text = spec.get("skew", "sigma")
        delta_text = spec.get("skew", "delta")
        if sigma_text is not None or delta_text is not None:
            if sigma_text is None or delta_text is None:
                raise SpecError("[skew] needs both sigma and delta matrices", _line(sigma_text or delta_text))
            sigma, delta = parse_matrix(sigma_text, base.p), parse_matrix(delta_text, base.p)
            for key, m, text in (("sigma", sigma, sigma_text), ("delta", delta, delta_text)):
                if len(m) != base.dim:
                    raise SpecError(f"{key} must be a {base.dim}x{base.dim} matrix", _line(text))
            sd = SkewDerivation(base, sigma, delta)
        else:
            sg = spec.get("skew", "sigma_gen")
            dg = spec.get("skew", "delta_gen")
            if sg is None or dg is None:
                raise SpecError("[skew] needs sigma/delta matrices or generator images")
            sd = SkewDerivation.from_gen_images(
                base, parse_element(base, sg)[0], parse_element(base, dg)[0]
            )
        levels_text = spec.get("filtration", "levels")
        if levels_text is not None:
            levels = [
                _check_dim(lvl, base.p, base.dim, "levels", _line(levels_text))
                for lvl in levels_text.split("|")
            ]
            u = ChainFiltration(base, levels)
        else:
            u = ChainFiltration(base, [[v for v in base.basis()], []])

    for section in ("ring", "skew", "filtration"):
        for key, value in spec.items(section):
            if (section, key) not in spec.read:
                raise SpecError(f"'{key}' is not a [{section}] key of a {kind} ring", _line(value))
    sps = SPSRing(base, sd, u, D, check=compatible) if D is not None else None
    ideals = {}
    for key, value in spec.items("ideals"):
        ideals[key] = ideal_generated(base, _check_dim(value, base.p, base.dim, f"ideal {key}"))

    elements = {}
    for key, value in spec.items("elements"):
        rows = parse_element(base, value, D)
        elements[key] = sps.normalize(rows) if sps is not None else rows[0]

    return Context(base, sd, u, sps, ideals, elements)


def load_spec_file(path: str) -> SpecFile:
    fixture_dir = os.environ.get(FIXTURE_ENV)
    candidates = [path, os.path.join(fixture_dir, path)] if fixture_dir else [path]
    found = next((cand for cand in candidates if os.path.exists(cand)), None)
    try:
        if found is None:
            text = resources.files("skewseries").joinpath("fixtures", path).read_text()
        else:
            with open(found, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, ModuleNotFoundError) as exc:
        if found is None:
            raise SpecError(f"spec file not found: {path}") from None
        raise SpecError(f"cannot read spec file {found}: {exc.strerror}") from None
    return parse_spec(text)


def fixture_names() -> list[str]:
    fixture_dir = os.environ.get(FIXTURE_ENV)
    if fixture_dir:
        try:
            names = [n for n in os.listdir(fixture_dir) if n.endswith(".spec")]
        except OSError as exc:
            raise SpecError(f"cannot list fixtures in {fixture_dir}: {exc.strerror}") from None
    else:
        root = resources.files("skewseries").joinpath("fixtures")
        names = [entry.name for entry in root.iterdir() if entry.name.endswith(".spec")]
    return sorted(names)


# -- elements and reporting helpers ---------------------------------------------


def _serialize_base(e) -> str:
    terms = [str(c) if a == 0 else f"{c}*t^{a}" for a, c in enumerate(e) if c != 0]
    return " + ".join(terms) if terms else "0"


def _require(ctx, name, kind="elements"):
    store = ctx.elements if kind == "elements" else ctx.ideals
    if name not in store:
        raise SpecError(f"undefined {kind[:-1]} '{name}'")
    return store[name]


# -- commands --------------------------------------------------------------------


def cmd_verify(ctx: Context, args) -> tuple[int, str]:
    lines = []
    report = check_skew_derivation(ctx.sd)
    lines.append(f"skew axioms: {report}")
    rng = random.Random(args.seed)
    filt_report = check_axioms(ctx.filtration, samples=20, rng=rng)
    lines.append(f"filtration axioms: {filt_report}")
    compatible = is_compatible(ctx.filtration, ctx.sd)
    lines.append(f"compatible: {compatible}")
    ok = report.valid and filt_report.valid and compatible
    return (0 if ok else 1), "\n".join(lines)


def cmd_mul(ctx: Context, args) -> tuple[int, str]:
    f, g = _require(ctx, args.f), _require(ctx, args.g)
    require_skew_derivation(ctx.sd)  # with or without D: no command answers on a pair verify rejects
    if ctx.sps is None:
        return 0, _serialize_base(ctx.base.mul(f, g))
    return 0, ctx.sps.serialize(ctx.sps.mul(f, g))


def _window(text):
    """'LO..HI' as the doubled degrees LO, ..., HI; LO <= HI."""
    lo, _, hi = text.partition("..")
    try:
        halves = range(int(lo), int(hi) + 1)
    except ValueError:
        halves = None
    if not halves:
        raise argparse.ArgumentTypeError(f"expected LO..HI with integers LO <= HI, got '{text}'")
    return halves


def cmd_gr(ctx: Context, args) -> tuple[int, str]:
    halves = args.window
    lines = []
    if ctx.sps is not None:
        require_skew_derivation(ctx.sd)
        rng = random.Random(args.seed)
        ok = graded_iso_check(ctx.sps, list(halves), rng=rng)
        lines += [f"degree {h}/2: dim {graded_dim(ctx.sps, h)}" for h in halves]
        lines.append(f"graded iso: {ok}")
        return (0 if ok else 1), "\n".join(lines)
    degrees = [h // 2 for h in halves if h % 2 == 0]
    gr = assoc_graded(ctx.filtration, degrees)
    for d in degrees:
        lines.append(f"degree {d}: dim {gr.dim(d)}")
    return 0, "\n".join(lines)


def cmd_core(ctx: Context, args) -> tuple[int, str]:
    I = _require(ctx, args.ideal, kind="ideals")
    report, flags = core_flags(ctx.base, ctx.sd, I, cap=args.cap)
    lines = [report.serialize()] + [f"{name}: {flags[name]}" for name in sorted(flags)]
    return (0 if report.conclusive else 3), "\n".join(lines)


def cmd_theoremc(ctx: Context, args) -> tuple[int, str]:
    I = _require(ctx, args.ideal, kind="ideals")
    J, M, flags = theorem_c_procedure(ctx.base, ctx.sd, I, cap=args.cap)
    if flags["inconclusive"]:
        return 3, "inconclusive at cap"
    lines = [f"M: {M}", f"J dim: {J.dim}"]
    for v in J.basis:
        lines.append("J basis: " + " ".join(str(c) for c in v))
    ok = True
    for name in sorted(k for k in flags if k not in ("reports", "inconclusive")):
        lines.append(f"{name}: {flags[name]}")
        ok = ok and bool(flags[name])
    return (0 if ok else 1), "\n".join(lines)


def cmd_decompose(ctx: Context, args) -> tuple[int, str]:
    if ctx.sps is None:
        raise SpecError("decompose needs an SPS ring (set D in [ring])")
    f = _require(ctx, args.f)
    require_skew_derivation(ctx.sd)
    comps = crossed_decompose(ctx.sps, args.N, f)
    lines = []
    for i, comp in enumerate(comps):
        text = " | ".join(_serialize_base(c) for c in comp)
        lines.append(f"s_{i}: {text}")
    back = crossed_recompose(ctx.sps, args.N, comps)
    ok = back == f
    lines.append(f"round trip: {ok}")
    return (0 if ok else 1), "\n".join(lines)


def cmd_demo(args) -> tuple[int, str]:
    if args.which != "iwasawa":
        raise SpecError(f"unknown demo '{args.which}'")
    S = iwasawa_demo(args.p, args.T, args.D)
    lines = [
        f"ring: {S!r}",
        f"sigma(t): {_serialize_base(S.sd.sigma(S.base.gen()))}",
        f"delta(t): {_serialize_base(S.sd.delta(S.base.gen()))}",
        f"deg(sigma - id): {endo_degree(S.u, S.sd.sigma_minus_id())}",
        f"deg(delta): {endo_degree(S.u, S.sd.delta_matrix)}",
        f"compatible: {is_compatible(S.u, S.sd)}",
    ]
    xt = S.mul(S.x(), S.constant(S.base.gen()))
    lines.append(f"x*t: {S.serialize(xt)}")
    return 0, "\n".join(lines)


def cmd_selftest(args) -> tuple[int, str]:
    lines = []
    failures = 0
    for name in fixture_names():
        spec = load_spec_file(name)
        if serialize_spec(parse_spec(serialize_spec(spec))) != serialize_spec(spec):
            lines.append(f"{name}: serialization round trip FAILED")
            failures += 1
            continue
        ctx = build_context(spec)
        expect_invalid = name.startswith("bad_")
        report = check_skew_derivation(ctx.sd)
        if report.valid == expect_invalid:
            lines.append(f"{name}: axiom check FAILED")
            failures += 1
            continue
        checks = ["parse", "axioms"]
        if not expect_invalid:
            rng = random.Random(args.seed)
            if not check_axioms(ctx.filtration, samples=10, rng=rng).valid:
                lines.append(f"{name}: filtration axioms FAILED")
                failures += 1
                continue
            checks.append("filtration")
            if ctx.sps is not None:
                f = ctx.sps.random_element(rng)
                g = ctx.sps.random_element(rng)
                h = ctx.sps.random_element(rng)
                assoc = ctx.sps.mul(ctx.sps.mul(f, g), h) == ctx.sps.mul(f, ctx.sps.mul(g, h))
                if not assoc:
                    lines.append(f"{name}: associativity FAILED")
                    failures += 1
                    continue
                checks.append("assoc")
            if ctx.ideals and isinstance(ctx.base, FinAlgebra) and ctx.base.p is not None:
                for iname, ideal in sorted(ctx.ideals.items()):
                    rep = stabilization_M(ctx.base, ctx.sd, ideal)
                    checks.append(f"core({iname}):M={rep.M}")
        lines.append(f"{name}: ok [{', '.join(checks)}]")
    lines.append(f"fixtures: {len(fixture_names())}, failures: {failures}")
    return (0 if failures == 0 else 1), "\n".join(lines)


# -- entry point -------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewseries",
        description="Exact computations in truncated skew power series rings.",
    )
    parser.add_argument("--seed", type=int, default=20260823, help="seed for sampled checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check skew/filtration axioms and compatibility")
    p_verify.add_argument("spec")

    p_mul = sub.add_parser("mul", help="multiply two named elements")
    p_mul.add_argument("spec")
    p_mul.add_argument("f")
    p_mul.add_argument("g")

    p_gr = sub.add_parser("gr", help="graded component dimensions")
    p_gr.add_argument("spec")
    p_gr.add_argument("--window", type=_window, required=True, help="doubled degrees, e.g. 0..5")

    p_core = sub.add_parser("core", help="delta-core stabilization report")
    p_core.add_argument("spec")
    p_core.add_argument("--ideal", required=True)
    p_core.add_argument("--cap", type=int, default=None)

    p_thc = sub.add_parser("theoremc", help="run the constructive procedure")
    p_thc.add_argument("spec")
    p_thc.add_argument("--ideal", required=True)
    p_thc.add_argument("--cap", type=int, default=None)

    p_dec = sub.add_parser("decompose", help="crossed product decomposition")
    p_dec.add_argument("spec")
    p_dec.add_argument("--N", type=int, required=True)
    p_dec.add_argument("f")

    p_demo = sub.add_parser("demo", help="build a shipped demo ring")
    p_demo.add_argument("which")
    p_demo.add_argument("--p", type=int, default=2)
    p_demo.add_argument("--T", type=int, default=8)
    p_demo.add_argument("--D", type=int, default=8)

    p_self = sub.add_parser("selftest", help="run the fixture property suite")

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "demo":
            code, text = cmd_demo(args)
        elif args.command == "selftest":
            code, text = cmd_selftest(args)
        else:
            spec = load_spec_file(args.spec)
            ctx = build_context(spec, compatible=args.command != "verify")
            handler = {
                "verify": cmd_verify,
                "mul": cmd_mul,
                "gr": cmd_gr,
                "core": cmd_core,
                "theoremc": cmd_theoremc,
                "decompose": cmd_decompose,
            }[args.command]
            code, text = handler(ctx, args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except ImplementationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
