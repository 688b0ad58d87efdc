"""Maps between direct sums of twisted line bundles on projective space.

A GradedMap from O(s_1) + ... + O(s_q) to O(t_1) + ... + O(t_p) is a p x q
matrix of forms, entry (i, j) homogeneous of degree t_i - s_j (zero when
that is negative).  Twist convention: sections of O(a) in twist m are the
forms of degree a + m; twists always name the line-bundle summands
themselves, never shifted duals, so dual() is a pure transpose with both
twist lists negated.

A binary map is also read as row terms: for each target summand i, the
list of (j, b, c) for the terms c s^a t^b of entry (i, j).  `row_terms()`
is the one decoder of a binary entry's terms; `splitting_type` and binary
strata read only its lists.  A pullback is built as row terms, summed
straight from the curve's monomial images (the key of s^a t^b in
`poly.monomial_images` is b), and the dual of a binary map as its row
terms transposed; `entries` builds their forms on first read, so
anything else that reads entries (equality, compose, JSON) still sees
the same map.
"""

from __future__ import annotations

import json
import operator
from itertools import accumulate, repeat
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .poly import (
    HomPoly,
    monomial_images,
    monomial_index,
    monomials,
    parse_poly,
    render_poly,
    section_dim,
)
from .linalg import QMatrix, exact, pivot_columns, rank


class TwistMismatchError(ValueError):
    """Composition attempted between maps with incompatible twists."""


class BasePointError(ValueError):
    """Parametrization forms share a common zero."""


# -- binary form gcd ----------------------------------------------------------


def binary_gcd(f: HomPoly, g: HomPoly) -> HomPoly:
    """Monic gcd of two binary forms, its coefficient of the highest power
    of s being 1 (the zero form if both are zero).

    For nonzero f, g of degrees a, b and top = a + b - 1 >= 0, the rows of
    the transposed Sylvester matrix, the stratum at top of [f g] : O(-a) +
    O(-b) -> O(0), are the multiples f s^(b-1-j) t^j and g s^(a-1-j) t^j,
    indexed by t-exponent.  The cofactors of the gcd h, of degree k, are
    coprime, so they generate every form of degree top - k: the rows span
    h S_(top-k), their rank is top + 1 - k, and the last pivot row of their
    `rref`, divided by its pivot there, is h t^(top-k) with h monic.
    """
    if f.num_vars != 2 or g.num_vars != 2:
        raise ValueError("binary_gcd needs forms in two variables")
    if f.is_zero() and g.is_zero():
        return HomPoly.zero(2, 0)
    if f.is_zero() or g.is_zero():
        h = g if f.is_zero() else f
        lead = h.sorted_terms()[0][1]
        return h * Fraction(1, lead)
    a, b = f.degree, g.degree
    top = a + b - 1
    if top < 0:
        return HomPoly.constant(2, 1)
    mat, _ = GradedMap(2, (-a, -b), (0,), [[f, g]]).stratum_rows(top)
    red, pivots = QMatrix(zip(*mat), top + 1).rref()
    k = top + 1 - len(pivots)
    row = red.data[len(pivots) - 1]
    return HomPoly(2, k, {(top - c, c - top + k): x for c, x in enumerate(row) if x})


def binary_gcd_many(forms: Sequence[HomPoly]) -> HomPoly:
    acc = HomPoly.zero(2, 0)
    for f in forms:
        if f.is_zero():
            continue
        acc = binary_gcd(acc, f)
        if acc.degree == 0:
            break
    return acc


# -- curves --------------------------------------------------------------------


@dataclass(frozen=True)
class CurveParam:
    """A base-point-free parametrization of a rational curve in P^n.

    forms: n+1 binary forms of one common degree e >= 1 with no common zero.
    span: the ascending indices of the pivot forms of the (e+1) x (n+1)
    coefficient matrix, one basis of the curve's linear span P^k with k =
    len(span) - 1.  It is computed once, here, by one `pivot_columns`
    call, and left out of the constructor, equality, hash and repr.
    Forms that span S_e (len(span) = e + 1), which holds s^e and t^e,
    have no common zero; others have none exactly when V . S_(e-1) is all
    of S_(2e-1), V the span of the forms, as two coprime combinations
    generate S_(2e-1) (Sylvester) and a common factor h caps its dimension
    at 2e - deg h.  V . S_(e-1) is the column space of the stratum at
    2e - 1 of the pivot forms, [f_j for j in span] : O(-e)^(k+1) -> O, as
    it is of the stratum of all n + 1 forms, so the check ranks the
    2e x (k+1)e one.  Its columns are the multiples f_j s^(e-1-c) t^c,
    c = 0..e-1: each pivot coefficient row shifted c places.
    """

    degree: int
    forms: tuple[HomPoly, ...]
    span: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("parametrization degree must be >= 1")
        if len(self.forms) < 2:
            raise ValueError("need at least two forms")
        for f in self.forms:
            if f.num_vars != 2:
                raise ValueError("parametrization forms must be binary")
            if f.degree != self.degree:
                raise ValueError("inhomogeneous parametrization")
        e = self.degree
        rows = [[f.terms.get((e - k, k), 0) for k in range(e + 1)] for f in self.forms]
        object.__setattr__(self, "span", tuple(pivot_columns(zip(*rows), len(rows))))
        if len(self.span) <= e:
            shifted = [[0] * c + rows[i] + [0] * (e - 1 - c) for i in self.span for c in range(e)]
            if rank(zip(*shifted), len(shifted)) < 2 * e:
                raise BasePointError("parametrization has base point")

    @property
    def ambient_vars(self) -> int:
        return len(self.forms)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "forms": [render_poly(f) for f in self.forms],
        }

    @classmethod
    def from_json(cls, obj: object) -> "CurveParam":
        """Parse the curveparam v1 shape; a malformed blob raises ValueError.

        The shape is checked by hand, mirroring curveparam.schema.json, so
        that parsing needs no schema validator at run time.
        """
        if not isinstance(obj, dict):
            raise ValueError("curve must be a JSON object")
        if set(obj) != {"degree", "forms"}:
            raise ValueError(
                f"curve must have exactly the keys 'degree' and 'forms', got {list(obj)}"
            )
        degree, forms = obj["degree"], obj["forms"]
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
            raise ValueError(f"curve degree must be an integer >= 1, got {degree!r}")
        if not isinstance(forms, list) or not all(isinstance(s, str) for s in forms):
            raise ValueError("curve forms must be a list of strings")
        return cls(degree, tuple(parse_poly(s, 2, degree) for s in forms))


# -- graded maps ----------------------------------------------------------------


class GradedMap:
    """Matrix of forms between twisted free sheaves."""

    __slots__ = ("num_vars", "source_twists", "target_twists", "_entries", "_row_terms")

    def __init__(
        self,
        num_vars: int,
        source_twists: Sequence[int],
        target_twists: Sequence[int],
        entries: Sequence[Sequence[HomPoly]],
    ):
        self.num_vars = num_vars
        self.source_twists = tuple(map(operator.index, source_twists))
        self.target_twists = tuple(map(operator.index, target_twists))
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != len(self.target_twists):
            raise ValueError("row count != number of target twists")
        for i, row in enumerate(rows):
            if len(row) != len(self.source_twists):
                raise ValueError("column count != number of source twists")
            for j, e in enumerate(row):
                if e.num_vars != num_vars:
                    raise ValueError("entry variable count mismatch")
                want = self.target_twists[i] - self.source_twists[j]
                if e.is_zero():
                    continue
                if want < 0:
                    raise ValueError(
                        f"entry ({i},{j}) must vanish: twist gap {want} < 0"
                    )
                if e.degree != want:
                    raise ValueError(
                        f"entry ({i},{j}) has degree {e.degree}, expected {want}"
                    )
        self._entries = rows
        self._row_terms = None

    @property
    def entries(self) -> tuple[tuple[HomPoly, ...], ...]:
        """The p x q matrix of forms.  A pullback builds it here, on first
        read, from its row terms and its own twists: entry (i, j) gets the
        degree max(t_i - s_j, 0), so a zero entry gets that degree whatever
        degree the entry it was pulled back from carried."""
        if self._entries is None:
            rows = []
            for t, terms in zip(self.target_twists, self._row_terms):
                degrees = [max(t - s, 0) for s in self.source_twists]
                forms: list[dict] = [{} for _ in degrees]
                for j, b, c in terms:
                    forms[j][degrees[j] - b, b] = c
                rows.append(tuple(map(HomPoly._trusted, repeat(2), degrees, forms)))
            self._entries = tuple(rows)
        return self._entries

    def row_terms(self) -> list[list[tuple[int, int, int | Fraction]]]:
        """The terms of a binary map row by row: (j, b, c) for each term
        c s^a t^b of entry (i, j), listed in row i.  A pullback holds the
        lists it was built as; any other binary map flattens its entries
        once.  The lists are shared, so callers must not change them.  A
        map in any other number of variables raises ValueError."""
        if self._row_terms is None:
            if self.num_vars != 2:
                raise ValueError(f"row terms need binary forms, got {self.num_vars} variables")
            self._row_terms = [
                [(j, b, c) for j, e in enumerate(row) for (_, b), c in e.terms.items()]
                for row in self._entries
            ]
        return self._row_terms

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def _trusted(
        num_vars: int,
        source_twists: Sequence[int],
        target_twists: Sequence[int],
        entries: Sequence[Sequence[HomPoly]] | None,
        row_terms: list[list[tuple[int, int, int | Fraction]]] | None = None,
    ) -> "GradedMap":
        """A map whose shape and entry degrees already follow from valid
        operands (compose, twist, dual, pullback) or from monomials the
        package lists itself (theta, xi, the monomial columns).

        It stores the twists and rows as tuples, as the public constructor
        does, but skips its checks on row widths, twist gaps and entry
        degrees.  A binary map may be given only as row terms, with
        `entries` None; `entries` then builds its forms when read.  Maps
        from outside the package enter through the public constructor or
        `from_json`, which keep every check.
        """
        out = object.__new__(GradedMap)
        out.num_vars = num_vars
        out.source_twists = tuple(source_twists)
        out.target_twists = tuple(target_twists)
        out._entries = None if entries is None else tuple(map(tuple, entries))
        out._row_terms = row_terms
        return out

    @classmethod
    def identity(cls, num_vars: int, twists: Sequence[int]) -> "GradedMap":
        n = len(twists)
        one = HomPoly.constant(num_vars, 1)
        rows = [
            [one if i == j else HomPoly.zero(num_vars, 0) for j in range(n)]
            for i in range(n)
        ]
        return cls(num_vars, twists, twists, rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.target_twists), len(self.source_twists))

    def entry(self, i: int, j: int) -> HomPoly:
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedMap)
            and self.num_vars == other.num_vars
            and self.source_twists == other.source_twists
            and self.target_twists == other.target_twists
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        p, q = self.shape
        return f"GradedMap({p}x{q}, {self.source_twists} -> {self.target_twists})"

    # -- operations --------------------------------------------------------------

    def compose(self, inner: "GradedMap") -> "GradedMap":
        """self after inner: requires inner's target twists = self's source twists."""
        if self.num_vars != inner.num_vars:
            raise TwistMismatchError("variable count mismatch in composition")
        if self.source_twists != inner.target_twists:
            raise TwistMismatchError(
                f"cannot compose: {self.source_twists} != {inner.target_twists}"
            )
        p, _ = self.shape
        _, q = inner.shape
        outer_rows, inner_rows = self.entries, inner.entries
        rows = []
        for i in range(p):
            row = []
            for j in range(q):
                deg = self.target_twists[i] - inner.source_twists[j]
                acc = HomPoly.zero(self.num_vars, max(deg, 0))
                for k in range(len(self.source_twists)):
                    a = outer_rows[i][k]
                    b = inner_rows[k][j]
                    if not a.is_zero() and not b.is_zero():
                        acc = acc + a * b
                row.append(acc)
            rows.append(row)
        return GradedMap._trusted(self.num_vars, inner.source_twists, self.target_twists, rows)

    def dual(self) -> "GradedMap":
        """Transpose with negated twists: the map between dual twisted frees.

        Entry (j, i) of the dual is entry (i, j), of the same degree, so a
        binary map's dual is its row terms transposed, (i, b, c) in row j
        for each (j, b, c) in row i; `entries` builds its forms when read.
        """
        source = tuple(-t for t in self.target_twists)
        target = tuple(-s for s in self.source_twists)
        if self.num_vars == 2:
            columns: list[list[tuple[int, int, int | Fraction]]] = [[] for _ in target]
            for i, terms in enumerate(self.row_terms()):
                for j, b, c in terms:
                    columns[j].append((i, b, c))
            return GradedMap._trusted(2, source, target, None, columns)
        p, q = self.shape
        entries = self.entries
        rows = [[entries[i][j] for i in range(p)] for j in range(q)]
        return GradedMap._trusted(self.num_vars, source, target, rows)

    def twist(self, a: int) -> "GradedMap":
        """Tensor with O(a): all twists shift, entries unchanged."""
        return GradedMap._trusted(
            self.num_vars,
            tuple(s + a for s in self.source_twists),
            tuple(t + a for t in self.target_twists),
            self.entries,
        )

    def pullback(self, curve: CurveParam) -> "GradedMap":
        """Restrict along a parametrized rational curve; twists scale by e.

        Entry (i, j) of degree t_i - s_j becomes one of degree
        e * (t_i - s_j).  The result holds only the row terms, summed
        straight from the curve's monomial images, whose keys are the
        t-exponents; `entries` builds the forms when read.
        """
        if curve.ambient_vars != self.num_vars:
            raise ValueError(
                f"curve lives in P^{curve.ambient_vars - 1}, map in P^{self.num_vars - 1}"
            )
        e = curve.degree
        top = max(self.target_twists, default=0) - min(self.source_twists, default=0)
        images = monomial_images(curve.forms, max(top, 0))
        row_terms = []
        for row in self.entries:
            terms = []
            for j, f in enumerate(row):
                if len(f.terms) == 1:  # the image of one term needs no summing
                    [(g, c)] = f.terms.items()
                    terms += [
                        (j, b, x if type(x) is int else exact(x))
                        for b, v in images[g].items()
                        if (x := c * v)
                    ]
                elif f.terms:
                    acc: dict[int, int | Fraction] = {}
                    for g, c in f.terms.items():
                        for b, v in images[g].items():
                            acc[b] = acc.get(b, 0) + c * v
                    terms += [
                        (j, b, c if type(c) is int else exact(c)) for b, c in acc.items() if c
                    ]
            row_terms.append(terms)
        return GradedMap._trusted(
            2,
            tuple(e * s for s in self.source_twists),
            tuple(e * t for t in self.target_twists),
            None,
            row_terms,
        )

    def stratum_rows(self, m: int) -> tuple[list[list], int]:
        """Rows and column count of the scalar matrix induced on degree-m sections.

        Source basis: per summand j, the monomials of degree m + s_j (empty
        when negative); target likewise with m + t_i.  Block (i, j) is
        multiplication by entry (i, j).  The rows hold the entries'
        coefficients as they are, so a presentation with integer
        coefficients gives rows of ints; a Fraction enters only where a
        coefficient is not integral.

        A binary map is read from its shared `row_terms()`, never changed
        here, so a pullback builds no forms.  The index of s^a t^b among the
        monomials of degree a + b is b, so each block is a Toeplitz band:
        the term (j, b, c) of row i lands at row b + k of source column k.
        """
        nv = self.num_vars
        src_dims = [section_dim(nv, m + s) for s in self.source_twists]
        tgt_dims = [section_dim(nv, m + t) for t in self.target_twists]
        col_offs = list(accumulate(src_dims, initial=0))
        row_offs = list(accumulate(tgt_dims, initial=0))
        mat = [[0] * col_offs[-1] for _ in range(row_offs[-1])]
        if nv == 2:
            for row_off, terms in zip(row_offs, self.row_terms()):
                for j, b, c in terms:
                    shift = row_off + b - col_offs[j]
                    for col in range(col_offs[j], col_offs[j + 1]):
                        mat[shift + col][col] = c
        else:
            for t, row_off, row in zip(self.target_twists, row_offs, self.entries):
                tgt_index = monomial_index(nv, m + t)
                for j, (s, entry) in enumerate(zip(self.source_twists, row)):
                    for emono, c in entry.terms.items():
                        for col, mono in enumerate(monomials(nv, m + s), col_offs[j]):
                            prod = tuple(map(operator.add, mono, emono))
                            mat[row_off + tgt_index[prod]][col] = c
        return mat, col_offs[-1]

    def stratum(self, m: int) -> QMatrix:
        """The scalar matrix of `stratum_rows(m)`."""
        return QMatrix._trusted(*self.stratum_rows(m))

    # -- serialization --------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "numVars": self.num_vars,
            "sourceTwists": list(self.source_twists),
            "targetTwists": list(self.target_twists),
            "entries": [[render_poly(e) for e in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj: object) -> "GradedMap":
        """Parse the gradedmap v1 shape; a malformed blob raises ValueError.

        The shape is checked by hand, mirroring gradedmap.schema.json, so
        that parsing needs no schema validator at run time.
        """
        keys = ("numVars", "sourceTwists", "targetTwists", "entries")
        if not isinstance(obj, dict) or set(obj) != set(keys):
            raise ValueError(f"graded map must be a JSON object with exactly the keys {keys}")
        nv, src, tgt, entries = (obj[k] for k in keys)
        if type(nv) is not int or nv < 1:
            raise ValueError(f"numVars must be an integer >= 1, got {nv!r}")
        for name, tw in (("sourceTwists", src), ("targetTwists", tgt)):
            if not isinstance(tw, list) or not all(type(x) is int for x in tw):
                raise ValueError(f"{name} must be a list of integers")
        if not isinstance(entries, list) or not all(
            isinstance(row, list) and all(isinstance(e, str) for e in row)
            for row in entries
        ):
            raise ValueError("entries must be a list of lists of strings")
        if len(entries) != len(tgt) or any(len(row) != len(src) for row in entries):
            raise ValueError("entries must be len(targetTwists) x len(sourceTwists)")
        rows = [
            [parse_poly(text, nv, max(tgt[i] - src[j], 0)) for j, text in enumerate(row)]
            for i, row in enumerate(entries)
        ]
        return cls(nv, src, tgt, rows)

    def dumps(self) -> str:
        return json.dumps(self.to_json())
