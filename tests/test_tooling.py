"""Source checks on the package (with the standard library's ast), the CLI's import path, and a guard for the benchmark harness."""

import ast
import collections
import gc
import inspect
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import skewseries

from helpers import iwasawa_group_algebra

PACKAGE = Path(skewseries.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def unused_imports(source):
    """(line, name) of each name a module imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def imported_modules(source):
    """The top-level module of every import in a module, deferred ones included."""
    tree = ast.parse(source)
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module and not node.level}
    return {name.split(".")[0] for name in names}


def test_the_import_check_sees_deferred_imports():
    source = "import os.path\ndef f():\n    import sympy\n    from numpy import array\nfrom . import x\n"
    assert imported_modules(source) == {"os", "sympy", "numpy"}


def test_no_module_imports_sympy():
    # no module factors a polynomial: sympy is the tests' reference only
    found = [path.name for path in sorted(PACKAGE.glob("*.py")) if "sympy" in imported_modules(path.read_text())]
    assert found == []


def test_no_module_imports_dataclasses():
    # dataclasses pulls inspect, ast and dis into every CLI process; the records are plain classes
    found = [path.name for path in sorted(PACKAGE.glob("*.py")) if "dataclasses" in imported_modules(path.read_text())]
    assert found == []


def structure_reads(source):
    """Line of each read of a ``structure`` attribute, the dense view of a FinAlgebra's products."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "structure")


def test_the_structure_check_sees_every_read():
    source = "A.structure[0][1]\nS = self.structure\nstructure = 1\nself._structure\nf(B.structure)\n"
    assert structure_reads(source) == [1, 2, 5]


def test_no_module_reads_the_dense_structure():
    # a FinAlgebra stores only its nonzero products (_pairs); the dense view it derives on a first
    # read is for callers outside the package (specs, the benchmark's fingerprints, the tests)
    found = {path.name: structure_reads(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_a_group_algebra_of_dim_112_is_built_from_its_products_in_little_memory():
    # F_2[C_2^4 x C_7], checked, from its 12,544 one-term products, with its Iwasawa pair: equal products
    # share one stored tuple, and building it peaked at 0.78 MB when this guard was added, where the
    # dense 112 x 112 x 112 cube the constructor used to keep holds about 12 MB on its own
    iwasawa_group_algebra(1)  # first uses
    gc.collect()
    tracemalloc.start()
    try:
        A, _ = iwasawa_group_algebra(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.dim == 112 and A.integral and peak <= 2_000_000


# ``cat src/skewseries/*.py | wc -l`` at the last change that moved it, the figure ROADMAP's
# design aim tracks: a change that grows the package raises it here, where a review sees it.
LINE_CEILING = 2997


def test_the_package_stays_within_its_line_ceiling():
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert lines <= LINE_CEILING


# one refusal per hypothesis of a pair, in skewder, which every caller goes through
PAIR_REFUSALS = ["requires characteristic p", "requires sigma delta = delta sigma",
                 "(sigma, delta) is not a skew derivation: "]


def test_each_pair_hypothesis_is_refused_in_one_place():
    source = "".join(path.read_text() for path in sorted(PACKAGE.glob("*.py")))
    assert {text: source.count(text) for text in PAIR_REFUSALS} == dict.fromkeys(PAIR_REFUSALS, 1)


def test_the_check_sees_unused_imports():
    source = "import os\nimport a.b\nfrom x import y as z, w\nfrom __future__ import annotations\nw(os)\n"
    assert unused_imports(source) == [(2, "a"), (3, "z")]


def test_no_unused_imports_in_the_package():
    # __init__.py re-exports the public names, so it imports what it does not read
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: unused for name, unused in found.items() if unused} == {}


EXACT_MATH = {"comb", "factorial", "gcd", "lcm", "isqrt"}


def float_uses(source):
    """(line, what) of each float literal, ``float`` name, inexact ``math`` name and ``/`` without a Fraction."""
    def is_fraction(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Fraction"

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math"
              and node.attr not in EXACT_MATH):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names if a.name not in EXACT_MATH]
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            if not (is_fraction(node.left) or is_fraction(node.right)):
                found.append((node.lineno, "/"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div) and not is_fraction(node.value):
            found.append((node.lineno, "/="))
    return sorted(found)


def test_the_float_check_sees_every_kind_of_float():
    source = (
        "import math\nfrom math import log, gcd\nx = 0.5\ny = float(3)\nz = math.ceil(math.log(8, 2))\n"
        "w = math.comb(4, 2) + math.isqrt(9)\nq = 1 / Fraction(3)\nr = Fraction(1) / 3\ns = 1 / 3\ns /= 2\n"
        "u = 2 // 3\nv = '0.5'\n"
    )
    assert float_uses(source) == [(2, "math.log"), (3, "0.5"), (4, "float"), (5, "math.ceil"),
                                  (5, "math.log"), (9, "/"), (10, "/=")]


def test_no_floating_point_in_the_package():
    # filtration values are ints, Fractions or INFINITY; every scalar is exact
    found = {path.name: float_uses(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}


# every module a command reaches; a reference that only tests read lives under tests/
CLI_MODULES = ["cli", "coeffcore", "core", "exactla", "filtration", "finalg", "series", "skewder", "sps"]


def test_the_cli_loads_only_the_modules_its_commands_use():
    code = "import sys, skewseries.cli\nprint(*sorted(m for m in sys.modules if m.startswith('skewseries.')))\n"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == [f"skewseries.{name}" for name in CLI_MODULES]


def test_the_traced_harness_sees_every_predicted_boundary(capsys):
    # a boundary that a change leaves uncalled fails perfbench/run.py --trace 1; catch it here
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import spans
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    from skewseries import cli

    result, detail = run.measure("primes", 1, 0, 1)  # one traced cycle
    assert result["correct"], detail["failures"]
    tracer = spans.Tracer()
    tracer.install()
    tracer.install_cli(cli)
    try:
        for args in workloads.criterion10_commands(cli.fixture_names()):
            cli.main(args)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = tracer.summary()["spans"]
    assert [b for b in run.EXERCISED["cli"] if calls.get(b, (0,))[0] == 0] == []


def package_functions():
    """module.qualname of every def in the package (methods and nested defs, not lambdas or
    class bodies), keyed by where its code starts: (real path, first line, name)."""
    found = {}

    def walk(code, path, module):
        for c in code.co_consts:
            if isinstance(c, types.CodeType):
                named = not c.co_name.startswith("<")  # not a lambda or a comprehension
                inner = path + [c.co_name] if named else path
                if named and c.co_flags & inspect.CO_OPTIMIZED:  # a def, not a class body
                    found[os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name] = ".".join([module, *inner])
                walk(c, inner, module)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), os.path.realpath(path), "exec"), [], path.stem)
    return found


# The package functions that no criterion-10 command and no seed-1 primes cycle (its build
# included) calls, grouped by why each stays (ROADMAP item 10). A change that adds such a
# function, or reaches one, edits this table where a review sees it.
UNREACHED = {
    "paper checks with no command, and what only they call": (
        "core.prop39_check filtration.lemma16_check skewder.lemma31_check "
        "skewder.cor36_check skewder._minimal_escape "
        "skewder.delta_n_product skewder.trinomial_expand skewder.binomial_terms skewder.trinomial_terms "
        "skewder.evaluate "
        "sps.quotient_sps sps.quotient_sps.project_elem sps.quotient_kernel_check filtration.quotient_filtration "
        "filtration.gr_prime_implies_prime filtration.GradedAlgebra.to_algebra "
        "filtration.GradedAlgebra.to_algebra.at_value finalg.is_prime_fd exactla.solve "
        "coeffcore.binom_valuation_check coeffcore.vp"),
    "the digit combinatorics of the expansions": (
        "coeffcore._digit_splits coeffcore.carry_free_splits coeffcore.digits coeffcore.multinomial "
        "coeffcore.qfactorial"),
    "the ring and value protocol": (
        "filtration.AdicFiltration.__repr__ filtration.ChainFiltration.__repr__ finalg.FinAlgebra.__repr__ "
        "finalg.IdealSubspace.__repr__ skewder.SkewDerivation.__repr__ coeffcore._Infinity.__repr__ "
        "coeffcore._Infinity.__reduce__ coeffcore._Infinity.__ge__ coeffcore._Infinity.__le__ "
        "finalg.FinAlgebra.is_central series.SeriesRing.is_central series.SeriesRing.char"),
    "test-only constructors (tests call it; perfbench does not)": "skewder.SkewDerivation.identity",
    "read by perfbench/workloads.py through getattr": "sps.tpow_demo",
    "the matrix preset, which no shipped fixture uses": "finalg.matrix_algebra",
    "refusals these runs never meet (a malformed spec, a char-0 q), and the report of a broken "
    "filtration or q law (the ring laws come from finalg.law_violations)": (
        "cli.SpecError.__init__ core._rational_scalar skewder.AxiomReport.add"),
    "the full commutation check a characteristic-p refusal replays when the pair's check on the "
    "generators (skewder.require_pair) fails": (
        "skewder.require_commuting skewder.SkewDerivation.commuting"),
}


def test_the_unreached_package_functions_are_the_pinned_ones(capsys):
    # about 1 s: every call is profiled, so the runs are kept to the two that define the list
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    from skewseries import cli

    reached, previous = set(), sys.getprofile()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for args in workloads.criterion10_commands(cli.fixture_names()):
            cli.main(args)
        workload = workloads.build("primes", 1)
        for key in workload.cycle(0):
            workload.run(key)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    keys = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in reached}
    unreached = sorted(name for key, name in package_functions().items() if key not in keys)
    assert unreached == sorted(name for names in UNREACHED.values() for name in names.split())


def test_a_primes_cycle_makes_the_pinned_calls(monkeypatch):
    # exact call counts over two seed-1 primes cycles, in process and with no timing, so a
    # change that raises p-power rungs or computes cores again fails here instead of hiding
    # in host noise; a second cycle finds every instance's radical kept, so the radicals
    # left to compute are the fresh quotients'.  Each of the 25 verdicts proves its pair once, by
    # one law pass on the generators, and composes sigma and delta both ways only on the e_s, s in S.
    # Every map applied to a basis is one compose: 14 in the p-power ladders, 50 in require_pair's
    # commutation on S, 43 in is_stable, 37 in sigma_orbit's steps, 12 in subspace_intersection, 12 in
    # char0_checks' Z(C)^sigma, 7 in _split_centre_fp, 4 in induced_map and, in the first cycle only,
    # 10 in radical; quotient_algebra projects its products from the pairs, with none.  apply_map is
    # left to single vectors: 50 from _law_pass (sigma(1), delta(1)) and 42 from SkewDerivation.delta.
    # Each left_kernel is exactly one rref of its columns, a zero system's included: 99 and 88 of them
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    from skewseries import core, exactla, finalg

    workload, calls = workloads.build("primes", 1), []
    for module, name in ((exactla, "map_power"), (exactla, "compose"), (exactla, "apply_map"),
                         (exactla, "preimage"), (exactla, "rref"), (exactla, "left_kernel"),
                         (core, "delta_pm_core"), (finalg, "_law_pass")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, original=original, name=name, **kwargs: (
            calls.append(name) or original(*args, **kwargs)))
    for key in workload.cycle(0):
        workload.run(key)
    assert collections.Counter(calls) == {
        "map_power": 48, "compose": 189, "apply_map": 92, "preimage": 12, "rref": 227, "left_kernel": 99,
        "delta_pm_core": 24, "_law_pass": 25}
    calls.clear()
    for key in workload.cycle(1):
        workload.run(key)
    assert collections.Counter(calls) == {
        "map_power": 48, "compose": 179, "apply_map": 92, "preimage": 12, "rref": 216, "left_kernel": 88,
        "delta_pm_core": 24, "_law_pass": 25}


def retained_bytes_per_op(name, cycles, warm_ops=None):
    """Bytes still allocated per operation after ``cycles`` seed-1 cycles of a perfbench workload
    whose results are all kept, as its timed loop keeps them, traced after a warm-up of
    ``warm_ops`` operations (a whole cycle when None), which settles lazy imports and first uses."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    workload = workloads.build(name, 1)
    for key in workload.cycle(0)[:warm_ops]:
        workload.run(key)
    gc.collect()
    tracemalloc.start()
    try:
        kept = [(key, workload.run(key)) for c in range(cycles) for key in workload.cycle(c)]
        gc.collect()
        return tracemalloc.get_traced_memory()[0] / len(kept)
    finally:
        tracemalloc.stop()


def test_kept_results_hold_no_more_memory():
    # the benchmark keeps every result until its run ends, so a cache hung on a
    # returned object (a J, a core, a report) reads as peak RSS; 556 B per primes
    # verdict over 4 cycles and 3,741 B per sps_mul product over one cycle of 52
    # (the same per product over two) were measured when this guard was added, and
    # 524 B per primes verdict once CoreReport took __slots__
    assert retained_bytes_per_op("primes", 4) <= 560
    assert retained_bytes_per_op("sps_mul", 1, warm_ops=2) <= 3900
