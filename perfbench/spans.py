"""Span recorder that times calls into skewseries from outside the package.

``Tracer.install`` rebinds each listed public function or method with a
wrapper that records one span (name, start, end, parent).  A function is
rebound in every ``skewseries`` module that holds it, so names bound by
``from .finalg import radical`` (``core.radical``) are caught as well as
``finalg.radical``.  Spans stay in memory as compact arrays until
``summary`` folds them into per-boundary calls, total and self time.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# Layer boundaries, as "<module>.<qualname>".  Per-scalar helpers (fadd,
# fmul, fnorm, vec, zero_vec, SeriesRing.add) are left out on purpose: a
# wrapper costs more than they do.
BOUNDARIES = (
    "exactla.rref",
    "exactla.left_kernel",
    "exactla.preimage",
    "exactla.subspace_intersection",
    "exactla.apply_map",
    "exactla.compose",
    "exactla.map_power",
    "series.SeriesRing.mul",
    "skewder.SkewDerivation.sigma",
    "skewder.SkewDerivation.delta",
    "skewder.pth_power",
    "skewder.check_skew_derivation",
    "filtration.AdicFiltration.reduce",
    "filtration.ChainFiltration.reduce",
    "filtration.ChainFiltration.value",
    "filtration.is_compatible",
    "filtration.check_axioms",
    "sps.SPSRing.mul",
    "sps.SPSRing.normalize",
    "sps.graded_iso_check",
    "sps.crossed_decompose",
    "sps.crossed_recompose",
    "finalg.radical",
    "finalg.central_idempotents",
    "finalg.minimal_primes_over",
    "finalg.minimal_sigma_primes",
    "finalg.quotient_algebra",
    "finalg.sigma_orbit",
    "finalg.is_sigma_prime",
    "finalg.ideal_generated",
    "finalg.FinAlgebra.mul",
    "finalg.FinAlgebra.__init__",
    "core.theorem_c_procedure",
    "core.stabilization_M",
    "core.delta_pm_core",
    "core.delta_core",
    "core.char0_checks",
)

# Operation entry points: these also report total (inclusive) time.
ENTRY_POINTS = ("sps.SPSRing.mul", "core.theorem_c_procedure", "core.char0_checks")

# Spans the command-line child records around its own stages.
CLI_SPANS = ("cli.load_spec_file", "cli.build_context", "cli.cmd")


class Tracer:
    """In-memory span store plus the rebinding that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.op = 0  # operation counter, advanced once per traced operation
        # (operation, structure constants) of every radical call, for the
        # share of calls that repeat an algebra within one operation.
        self.radical_keys: list[tuple] = []
        self._undo: list[tuple] = []
        self._plan = None

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        radical_keys = self.radical_keys if name == "finalg.radical" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            if radical_keys is not None:
                A = args[0]
                radical_keys.append((self.op, A.p, A.structure))
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    # -- rebinding ---------------------------------------------------------

    def install(self):
        """Rebind every boundary at every import site inside the package.

        The rebinding plan is worked out on the first call and replayed on
        later ones, so installing around each operation stays cheap.
        """
        if self._undo:
            raise RuntimeError("tracer already installed")
        if self._plan is None:
            self._plan = self._rebinding_plan()
        for owner, attr, wrapper in self._plan:
            self._undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def _rebinding_plan(self):
        package = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "skewseries" or name.startswith("skewseries."))
        ]
        plan = []
        for boundary in BOUNDARIES:
            module_name, qualname = boundary.split(".", 1)
            module = sys.modules[f"skewseries.{module_name}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owners = [getattr(module, cls_name)]
                original = vars(owners[0])[attr]
            else:
                owners = package
                original = getattr(module, qualname)
            wrapper = self.wrap(boundary, original)
            for owner in owners:
                for alias, value in vars(owner).items():
                    if value is original:  # e.g. core.radical, SPSRing.multiply = mul
                        plan.append((owner, alias, wrapper))
        return plan

    def install_cli(self, cli):
        """Spans around the command-line stages: spec loading, context, handler."""
        stages = [("load_spec_file", "cli.load_spec_file"), ("build_context", "cli.build_context")]
        stages += [(attr, "cli.cmd") for attr in sorted(vars(cli)) if attr.startswith("cmd_")]
        for attr, name in stages:
            original = getattr(cli, attr)
            self._undo.append((cli, attr, original))
            setattr(cli, attr, self.wrap(name, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-boundary calls, total and self seconds, plus derived counts.

        Self time is a span's duration minus the durations of its direct
        children.  ``sigma_delta_in_mul`` counts sigma/delta spans that
        have an ``SPSRing.mul`` span among their ancestors.
        """
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        dur = array("d", (e - s for s, e in zip(self.span_start, self.span_end)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child[parent] += dur[i]
        mul_id = self._ids.get("sps.SPSRing.mul", -1)
        sd_ids = {self._ids.get("skewder.SkewDerivation.sigma"), self._ids.get("skewder.SkewDerivation.delta")}
        in_mul = bytearray(n)
        sigma_delta_in_mul = 0
        rows = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            parent = parents[i]
            if parent >= 0 and (in_mul[parent] or names[parent] == mul_id):
                in_mul[i] = 1
                if names[i] in sd_ids:
                    sigma_delta_in_mul += 1
            row = rows[self.names[names[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        repeats = len(self.radical_keys) - len(set(self.radical_keys))
        return {
            "spans": {name: row for name, row in rows.items()},
            "sigma_delta_in_mul": sigma_delta_in_mul,
            "radical_calls": len(self.radical_keys),
            "radical_repeats": repeats,
        }


def merge(summaries) -> dict:
    """Sum several summaries (one per child process)."""
    out = {"spans": {}, "sigma_delta_in_mul": 0, "radical_calls": 0, "radical_repeats": 0}
    for summ in summaries:
        for name, row in summ["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += row[k]
        for key in ("sigma_delta_in_mul", "radical_calls", "radical_repeats"):
            out[key] += summ[key]
    return out
