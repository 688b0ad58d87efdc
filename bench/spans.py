"""Span recorder for the traced pass.

It wraps public functions of each veronese layer from outside the package
and records one span per call: name, start, end, parent span and op id.
Spans live in flat arrays until the pass ends; self time is a span's
duration minus the part its child spans cover.

HomPoly arithmetic, Fraction arithmetic and other calls made millions of
times are deliberately not wrapped: their wrappers would cost more than
the work they time.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "bundles", "curves", "gradedmap", "poly", "linalg", "p1split", "chow", "symlin", "verify")

# Wrapped names per layer.  `verify` has none: the benchmark opens its
# `verify.check` span around each corpus entry it runs.
WRAPPED = {
    "cli": ("main",),
    "bundles": (
        "normal_presentation", "theta_matrix", "xi_matrix", "delta_matrix",
        "k_bundle_stats", "euler_presentation", "verify_dual_identity",
    ),
    "curves": ("standard_line", "random_line", "rnc"),
    "gradedmap": (
        "binary_gcd", "binary_gcd_many", "CurveParam.from_json",
        "GradedMap.compose", "GradedMap.dual", "GradedMap.pullback", "GradedMap.stratum",
    ),
    "poly": ("parse_poly", "render_poly", "HomPoly.substitute", "HomPoly.evaluate", "HomPoly.differentiate"),
    "linalg": ("QMatrix.rref", "QMatrix.kernel_basis", "QMatrix.__mul__", "RowSpan.add"),
    "p1split": ("splitting_type", "h0_direct"),
    "chow": ("gm_check", "chern_normal", "normal_stats", "hilbert_poly"),
    "symlin": ("check_commute", "sym_power", "random_ses", "quotient_map"),
}


def _rref_measure(tracer: "Tracer", args, result) -> None:
    m = args[0]
    tracer.counts["linalg.QMatrix.rref.cells"] += m.rows * m.cols
    bits = max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for row in m.data for x in row),
        default=0,
    )
    tracer.counts["linalg.QMatrix.rref.max_bits"] = max(tracer.counts["linalg.QMatrix.rref.max_bits"], bits)


def _stratum_measure(tracer: "Tracer", args, result) -> None:
    tracer.counts["gradedmap.GradedMap.stratum.cells"] += result.rows * result.cols


def _rowspan_measure(tracer: "Tracer", args, result) -> None:
    tracer.counts["linalg.RowSpan.add.useful"] += bool(result)


MEASURES = {
    "linalg.QMatrix.rref": _rref_measure,
    "gradedmap.GradedMap.stratum": _stratum_measure,
    "linalg.RowSpan.add": _rowspan_measure,
}


class Tracer:
    """Records spans of wrapped calls; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, measure=None):
        """`fn` recording a span called `name`; `measure` then updates counts
        inside a `trace.measure` span of its own, so its cost is kept out of
        every layer's self time."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack, name_id, parent, op, start, end = (
            self._stack, self.name_id, self.parent, self.op, self.start, self.end,
        )
        if measure is not None:
            measure = self.wrap("trace.measure", measure)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if measure is not None:
                measure(self, args, result)
            return result

        return traced

    def install(self, vr) -> None:
        """Wrap every name in WRAPPED, rebinding it wherever a veronese
        module holds it (modules that imported it, and the package)."""
        modules = [m for key, m in sys.modules.items() if key == "veronese" or key.startswith("veronese.")]
        for layer, names in WRAPPED.items():
            mod = getattr(vr, layer)
            for dotted in names:
                span = f"{layer}.{dotted}"
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(span, raw.__func__, MEASURES.get(span)))
                    else:
                        new = self.wrap(span, raw, MEASURES.get(span))
                    self._patch(cls, attr, new)
                    continue
                fn = getattr(mod, dotted)
                new = self.wrap(span, fn, MEASURES.get(span))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, key, new)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def self_times(self) -> tuple[Counter, Counter]:
        """Calls and exclusive seconds per span name."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
        return calls, self_s

    def write(self, path: Path) -> None:
        """Every span as one tab-separated line, times in seconds from the first start."""
        t0 = self.start[0] if self.start else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("span\top\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i}\t{self.op[i]}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )
