"""The benchmark's workloads: seeded inputs, one operation, output checks.

Each workload builds its inputs from a seed and hands the timed loop one
cycle of operation keys at a time.  The loop runs whole cycles, so every
run does the same mix of sizes whatever the seed; the seed changes the
inputs themselves (random ring elements, a relabelled basis, the order
of commands), never how large they are.

Why these workloads:

* ``sps_mul`` -- products in truncated skew power series rings, the hot
  path of the SPS ring laws.  Work sits in ``sps``, ``skewder``,
  ``series``, the adic ``reduce`` and ``exactla.apply_map``; ``finalg``
  and ``core`` do none, so a change there must leave it unchanged.
* ``primes`` -- Theorem-C verdicts over F_p plus characteristic-0
  checks over Q on algebras of dimension 4 to 12.  Work sits in the
  radical, the delta-core fixpoint (``exactla`` elimination) and
  central idempotents; the Q share runs the same layers on Fractions.
* ``cli`` -- one ``python -m skewseries.cli`` process per operation over
  every shipped fixture: what a command-line user waits for, dominated
  by interpreter start and import time rather than by computation.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
CHILD = HERE / "cli_child.py"

# The seed whose per-operation output digests are recorded in digests.json.
COMMITTED_SEED = 1

# Wall-clock limit for one command-line process; criterion-10 commands
# take under a second.
CLI_TIMEOUT_S = 120


class MissingSource(RuntimeError):
    """The checkout has no ``src/skewseries`` to benchmark."""


class Failure:
    """Stands in for the result of an operation that raised."""

    def __init__(self, message):
        self.message = message

    def __repr__(self):
        return f"Failure({self.message!r})"


def load_package():
    """Import skewseries from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "skewseries" / "__init__.py").is_file():
        raise MissingSource(f"no skewseries sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import skewseries

    if Path(skewseries.__file__).resolve().parent != SRC / "skewseries":
        raise MissingSource(f"skewseries imported from {skewseries.__file__}, not {SRC}")
    return skewseries


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


class Workload:
    """Inputs for one seed, the operation on them, and the checks."""

    name = ""
    # Percentile of op_tail_s: the highest one with at least ten samples
    # beyond it in every run of the benchmark's configured length.  It is
    # fixed per workload so that it does not jump between runs that fit a
    # different number of cycles.
    tail_percentile = 75.0
    # True when outputs depend on the seed, so recorded digests only
    # apply at COMMITTED_SEED; False when they apply to every seed.
    seeded_outputs = True

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def cycle(self, index: int) -> list:
        """Operation keys of the index-th cycle."""
        raise NotImplementedError

    def keys(self) -> list:
        """Every distinct operation key the cycles use."""
        return list(self.cycle(0))

    def run(self, key):
        raise NotImplementedError

    def run_traced(self, key, tracer):
        """One operation with spans recorded (tracer installed by the caller)."""
        tracer.op += 1
        return self.run(key)

    def fingerprint(self, key, result) -> str:
        """Canonical text of a result; equal results give equal text."""
        raise NotImplementedError

    def check(self, first: dict) -> dict:
        """Invariant failures, as {key: message}, given each key's first result."""
        return {}

    def inputs_fingerprint(self) -> str:
        """Digest of the generated inputs, to show what the seed changes."""
        raise NotImplementedError

    def child_summaries(self) -> list:
        return []


# -- sps_mul ----------------------------------------------------------------------


class SpsMul(Workload):
    """One ``SPSRing.mul(f, g)`` per operation on seeded random pairs."""

    name = "sps_mul"
    tail_percentile = 95.0
    # Every T = D from 12 to 24 in both demo rings for p = 2 and 3: 52 rings
    # whose product times spread evenly, so no percentile of the mix sits
    # in a gap between two very different sizes.
    SIZES = range(12, 25)
    POOL = 2  # pairs per ring; cycle c uses pair c mod POOL
    # Share of pairs whose product also gets the associativity and
    # distributivity check (each costs four more products).
    CHECK_SHARE = 0.125

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        load_package()
        from skewseries import sps

        if tiny:
            configs = [("iwasawa", 2, 12), ("tpow", 2, 12)]
            self.pool = 2
        else:
            configs = [
                (demo, p, n)
                for demo in ("iwasawa", "tpow")
                for p in (2, 3)
                for n in self.SIZES
            ]
            self.pool = self.POOL
        self.rings = {}
        self.inputs = {}
        for demo, p, n in configs:
            S = getattr(sps, f"{demo}_demo")(p, n, n)
            rng = random.Random(f"sps_mul/{seed}/{demo}/{p}/{n}")
            for k in range(self.pool):
                key = f"{demo}/p{p}/D{n}/pair{k}"
                self.inputs[key] = (S, S.random_element(rng), S.random_element(rng))
            self.rings[(demo, p, n)] = S
        self.order = list(self.rings)
        random.Random(f"sps_mul/{seed}/order").shuffle(self.order)

    def cycle(self, index):
        k = index % self.pool
        return [f"{demo}/p{p}/D{n}/pair{k}" for demo, p, n in self.order]

    def keys(self):
        return list(self.inputs)

    def run(self, key):
        S, f, g = self.inputs[key]
        return S.mul(f, g)

    def fingerprint(self, key, result):
        return repr(result)

    def check(self, first):
        """x*a = sigma(a)x + delta(a) per ring; ring laws on a seeded share."""
        errors = {}
        rng = random.Random(f"sps_mul/{self.seed}/check")
        for key in sorted(first):
            S, f, g = self.inputs[key]
            fg = first[key]
            if key.endswith("/pair0"):
                a = f[0]
                if S.mul(S.x(), S.constant(a)) != S.normalize([S.sd.delta(a), S.sd.sigma(a)]):
                    errors[key] = "x*a != sigma(a)x + delta(a)"
            if rng.random() >= self.CHECK_SHARE and not self.tiny:
                continue
            h = S.random_element(rng)
            if S.mul(fg, h) != S.mul(f, S.mul(g, h)):
                errors[key] = "(fg)h != f(gh)"
            elif S.mul(f, S.add(g, h)) != S.add(fg, S.mul(f, h)):
                errors[key] = "f(g+h) != fg + fh"
        return errors

    def inputs_fingerprint(self):
        return digest(repr([(key, f, g) for key, (_S, f, g) in sorted(self.inputs.items())]))


# -- primes -----------------------------------------------------------------------

# Permutation groups by generators (images of 0..n-1).
GROUPS = {
    "S3": ([(1, 0, 2), (1, 2, 0)], 3),
    "C6": ([(1, 2, 3, 4, 5, 0)], 6),
    "D4": ([(1, 2, 3, 0), (3, 2, 1, 0)], 4),
    "A4": ([(1, 2, 0, 3), (1, 0, 3, 2)], 4),
}

# Published Jacobson radical dimensions of the group algebras F_p[G].
RADICAL_DIM = {
    (2, "S3"): 1,
    (3, "S3"): 4,
    (2, "D4"): 7,
    (2, "C6"): 3,
    (3, "C6"): 4,
    (2, "A4"): 9,
    (3, "A4"): 2,
}

THEOREM_C_FLAGS = (
    "minimal sigma^(p^M)-prime",
    "I is the sigma-orbit intersection of J",
    "delta^(p^M)(J) <= J",
)

# One cycle: 19 Theorem-C verdicts over F_p and 6 char-0 verdicts over Q.
# The cycle length is odd and the verdict times are spread so that the
# median and the 75th percentile fall among verdicts of similar cost,
# not in a gap between two very different ones.
# (a) F_p[X]/(X^n), (id, d/dX), p | n, I = (X);
# (b) k copies of F_p[X]/(X^m), sigma cycling the copies, delta = sigma - id;
# (c) group algebras, sigma = conjugation by the first generator, delta = sigma - id.
PRIMES_SLOTS = (
    ("tpoly", 2, 4), ("tpoly", 2, 6), ("tpoly", 2, 8), ("tpoly", 3, 6), ("tpoly", 3, 9),
    ("blocks", 2, 2, 2), ("blocks", 3, 2, 2), ("blocks", 2, 3, 2), ("blocks", 3, 2, 3),
    ("blocks", 2, 2, 4), ("blocks", 3, 3, 3), ("blocks", 2, 4, 3),
    ("group", 2, "S3"), ("group", 3, "S3"), ("group", 2, "D4"), ("group", 2, "C6"),
    ("group", 3, "C6"), ("group", 2, "A4"), ("group", 3, "A4"),
    # Q[X]/(X^n) with sigma = id, delta(X) = b X^j
    ("qder", 6, 1, 2), ("qder", 8, 2, 1), ("qder", 10, 3, -3),
    # Q[X]/(X^n) with sigma(X) = c X, delta = l (sigma - id)
    ("qscale", 12, 2, 3),
    # Q^n with sigma permuting coordinates in the given cycle type, delta = l (sigma - id)
    ("qperm", (3, 3, 2), 2), ("qperm", (4, 3, 3), -1),
)
TINY_PRIMES_SLOTS = (("tpoly", 2, 4), ("blocks", 2, 2, 2), ("group", 2, "S3"), ("qder", 6, 1, 2))


def slot_key(slot) -> str:
    return "/".join(str(part).replace(" ", "") for part in slot)


def _perm_group(gens, n):
    identity = tuple(range(n))
    elements, frontier = {identity}, [identity]
    while frontier:
        fresh = []
        for g in frontier:
            for h in gens:
                gh = tuple(g[h[i]] for i in range(n))
                if gh not in elements:
                    elements.add(gh)
                    fresh.append(gh)
        frontier = fresh
    return sorted(elements)


class _Instance:
    def __init__(self, A, sd, I=None, radical_dim=None):
        self.A, self.sd, self.I, self.radical_dim = A, sd, I, radical_dim


class Primes(Workload):
    """One verdict per operation: ``theorem_c_procedure`` or ``char0_checks``."""

    name = "primes"

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        load_package()
        from skewseries import core, exactla, finalg
        from skewseries.skewder import SkewDerivation

        self.core, self.finalg, self.la, self.SD = core, finalg, exactla, SkewDerivation
        self.instances = {}
        for slot in TINY_PRIMES_SLOTS if tiny else PRIMES_SLOTS:
            key = slot_key(slot)
            rng = random.Random(f"primes/{seed}/{key}")
            self.instances[key] = self._build(slot, rng)
        self.order = list(self.instances)
        random.Random(f"primes/{seed}/order").shuffle(self.order)

    # -- instance construction -------------------------------------------------

    def _relabel(self, A, sd, rng):
        """The same algebra in the basis f_m = s_m e_perm(m), signs s_m = +-1.

        Returns the relabelled algebra (validated), skew derivation and the
        map taking old coordinates to new ones.
        """
        la, finalg = self.la, self.finalg
        n, p = A.dim, A.p
        perm = list(range(n))
        rng.shuffle(perm)
        sign = [1 if p == 2 else rng.choice((1, -1)) for _ in range(n)]

        def coords(v):
            return tuple(la.fnorm(sign[m] * v[perm[m]], p) for m in range(n))

        def scaled(s, v):
            return la.vscale(la.fnorm(s, p), v, p)

        def matrix(M):
            return tuple(scaled(sign[i], coords(M[perm[i]])) for i in range(n))

        structure = [
            [scaled(sign[i] * sign[j], coords(A.structure[perm[i]][perm[j]])) for j in range(n)]
            for i in range(n)
        ]
        B = finalg.FinAlgebra(p, n, structure, coords(A.unit))
        return B, self.SD(B, matrix(sd.sigma_matrix), matrix(sd.delta_matrix)), coords

    def _shift_derivation(self, A, sigma, scale=1):
        """(sigma, scale * (sigma - id))."""
        la = self.la
        delta = la.map_sub(sigma, la.identity_map(A.dim, A.p), A.p)
        delta = tuple(la.vscale(la.fnorm(scale, A.p), row, A.p) for row in delta)
        return self.SD(A, sigma, delta)

    def _build(self, slot, rng):
        finalg, la = self.finalg, self.la
        kind = slot[0]
        if kind == "tpoly":
            _, p, n = slot
            A = finalg.truncated_poly_algebra(p, n)
            sd = self.SD.from_gen_images(A, A.basis_vec(1), A.one())
            B, sd, coords = self._relabel(A, sd, rng)
            return _Instance(B, sd, finalg.ideal_generated(B, [coords(A.basis_vec(1))]))
        if kind == "blocks":
            _, p, k, m = slot
            block = finalg.truncated_poly_algebra(p, m)
            A = block
            for _ in range(k - 1):
                A = finalg.direct_sum(A, block)
            n = k * m
            sigma = tuple(A.basis_vec((i + m) % n) for i in range(n))
            B, sd, _ = self._relabel(A, self._shift_derivation(A, sigma), rng)
            return _Instance(B, sd, self._first_sigma_prime(B, sd))
        if kind == "group":
            _, p, name = slot
            gens, degree = GROUPS[name]
            G = _perm_group(gens, degree)
            index = {g: i for i, g in enumerate(G)}
            n = len(G)

            def basis_of(g):
                return tuple(1 if i == index[g] else 0 for i in range(n))

            def compose(g, h):
                return tuple(g[h[i]] for i in range(degree))

            c = gens[0]
            c_inv = tuple(sorted(range(degree), key=lambda i: c[i]))
            structure = [[basis_of(compose(g, h)) for h in G] for g in G]
            A = finalg.FinAlgebra(p, n, structure, basis_of(tuple(range(degree))))
            sigma = tuple(la.vec(basis_of(compose(compose(c, g), c_inv)), p) for g in G)
            B, sd, _ = self._relabel(A, self._shift_derivation(A, sigma), rng)
            return _Instance(B, sd, self._first_sigma_prime(B, sd), RADICAL_DIM[(p, name)])
        if kind == "qder":
            _, n, j, b = slot
            A = finalg.truncated_poly_algebra(None, n)
            sd = self.SD.from_gen_images(A, A.basis_vec(1), la.vscale(Fraction(b), A.basis_vec(j), None))
            return _Instance(*self._relabel(A, sd, rng)[:2])
        if kind == "qscale":
            _, n, c, scale = slot
            A = finalg.truncated_poly_algebra(None, n)
            sigma = self.SD.from_gen_images(A, la.vscale(Fraction(c), A.basis_vec(1), None), A.zero()).sigma_matrix
            return _Instance(*self._relabel(A, self._shift_derivation(A, sigma, scale), rng)[:2])
        if kind == "qperm":
            _, cycle_type, scale = slot
            n = sum(cycle_type)
            A = finalg.product_of_fields(None, n)
            image, start = [], 0
            for length in cycle_type:
                image += [start + (i + 1) % length for i in range(length)]
                start += length
            sigma = tuple(A.basis_vec(image[i]) for i in range(n))
            return _Instance(*self._relabel(A, self._shift_derivation(A, sigma, scale), rng)[:2])
        raise ValueError(f"unknown slot kind {kind!r}")

    def _first_sigma_prime(self, A, sd):
        zero = self.finalg.subspace(A, [])
        return self.finalg.minimal_sigma_primes(A, sd.sigma_matrix, zero)[0]

    # -- operation and checks -----------------------------------------------------

    def cycle(self, index):
        return self.order

    def run(self, key):
        inst = self.instances[key]
        if inst.I is None:
            return self.core.char0_checks(inst.A, inst.sd)
        return self.core.theorem_c_procedure(inst.A, inst.sd, inst.I)

    def fingerprint(self, key, result):
        if self.instances[key].I is None:
            return (
                f"radical preserved={result['radical preserved']};"
                f"sigma-primes preserved={result['sigma-primes preserved']};"
                f"witnesses={result['witnesses']!r}"
            )
        J, M, flags = result
        if J is None:
            return "inconclusive"
        return f"M={M};J={J.basis!r};" + ";".join(f"{k}={flags[k]}" for k in THEOREM_C_FLAGS)

    def check(self, first):
        errors = {}
        for key, result in sorted(first.items()):
            inst = self.instances[key]
            if inst.I is None:
                if not (result["radical preserved"] and result["sigma-primes preserved"]):
                    errors[key] = "char-0 preservation check failed"
                continue
            J, _M, flags = result
            if J is None:
                errors[key] = "inconclusive at cap"
            elif not all(flags[k] for k in THEOREM_C_FLAGS):
                errors[key] = "a Theorem-C flag is false"
            elif inst.radical_dim is not None and self.finalg.radical(inst.A).dim != inst.radical_dim:
                errors[key] = f"radical dimension is not {inst.radical_dim}"
        return errors

    def inputs_fingerprint(self):
        return digest(repr([
            (key, inst.A.structure, inst.sd.sigma_matrix, inst.sd.delta_matrix,
             inst.I.basis if inst.I is not None else None)
            for key, inst in sorted(self.instances.items())
        ]))


# -- cli --------------------------------------------------------------------------


def criterion10_commands(fixture_names) -> list:
    """The command set of acceptance criterion 10 over every shipped fixture."""
    commands = [["demo", "iwasawa"], ["selftest"]]
    for name in fixture_names:
        commands.append(["verify", name])
        commands.append(["gr", name, "--window", "0..4"])
        if name.startswith("bergen"):
            commands.append(["core", name, "--ideal", "I"])
            commands.append(["theoremc", name, "--ideal", "I"])
        if name in ("iwasawa_p2.spec", "tpow_p2.spec", "quotient_demo.spec"):
            commands.append(["mul", name, "f", "g"])
        if name == "iwasawa_p2.spec":
            commands.append(["decompose", name, "--N", "1", "f"])
    return commands


TINY_CLI_COMMANDS = (
    "verify bergen_grzeszczuk_p2.spec",
    "theoremc bergen_grzeszczuk_p2.spec --ideal I",
    "gr quotient_demo.spec --window 0..4",
)


class Cli(Workload):
    """One ``python -m skewseries.cli ...`` process per operation, run one at a time."""

    name = "cli"
    seeded_outputs = False  # the seed only orders the commands

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        load_package()
        from skewseries.cli import fixture_names

        commands = {" ".join(args): args for args in criterion10_commands(fixture_names())}
        if tiny:
            commands = {key: commands[key] for key in TINY_CLI_COMMANDS}
        self.commands = commands
        self.order = list(commands)
        random.Random(f"cli/{seed}/order").shuffle(self.order)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env
        self._summaries = []

    def cycle(self, index):
        return self.order

    def run(self, key):
        proc = subprocess.run(
            [sys.executable, "-m", "skewseries.cli", *self.commands[key]],
            capture_output=True, env=self.env, cwd=ROOT, timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run_traced(self, key, tracer):
        """The same command through cli_child.py, which records spans in the child."""
        read_fd, write_fd = os.pipe()
        try:
            spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(write_fd), repr(spawned), *self.commands[key]],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                pass_fds=(write_fd,), env=self.env, cwd=ROOT,
            )
        finally:
            os.close(write_fd)
        with os.fdopen(read_fd, "rb") as summary_pipe:
            try:
                out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
            payload = summary_pipe.read()
        if not payload:
            raise RuntimeError("traced child wrote no span summary")
        self._summaries.append(json.loads(payload))
        return proc.returncode, out, err

    def child_summaries(self):
        return self._summaries

    def fingerprint(self, key, result):
        code, out, err = result
        return f"exit={code};stdout={digest(out)};stderr={digest(err)}"

    def inputs_fingerprint(self):
        return digest(repr(self.order))


WORKLOADS = {cls.name: cls for cls in (SpsMul, Primes, Cli)}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](seed, tiny)


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)
