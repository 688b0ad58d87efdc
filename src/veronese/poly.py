"""Sparse homogeneous polynomials with exact rational coefficients.

Coefficients follow the package's scalar convention (`linalg.exact`): an
int when integral, otherwise a Fraction, so forms with integer
coefficients are multiplied and substituted in int arithmetic.

Variables are Z0..Z{k-1}; the projective line uses two variables, written
(s, t) = (Z0, Z1) in prose but serialized with the same Z-names.  Monomials
are exponent tuples; every polynomial carries an explicit degree so the
zero polynomial of a prescribed degree is representable (graded map
entries need it).

The global monomial order is graded lexicographic: within one total
degree, exponent tuples compare lexicographically with Z0 largest.  All
row/column indexing in the package derives from this order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul
from typing import Mapping, Sequence

from .linalg import exact

Monomial = tuple[int, ...]


@lru_cache(maxsize=None)
def monomials(num_vars: int, degree: int) -> tuple[Monomial, ...]:
    """All exponent tuples of the given total degree, graded-lex ordered."""
    if num_vars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        return ()
    if num_vars == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials(num_vars - 1, degree - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(num_vars: int, degree: int) -> dict[Monomial, int]:
    return {m: i for i, m in enumerate(monomials(num_vars, degree))}


def section_dim(num_vars: int, degree: int) -> int:
    """Dimension of the space of forms of the given degree (0 if negative)."""
    return comb(num_vars - 1 + degree, degree) if degree >= 0 else 0


class HomPoly:
    """A homogeneous polynomial: map from exponent tuple to coefficient."""

    __slots__ = ("num_vars", "degree", "terms")

    def __init__(self, num_vars: int, degree: int, terms: Mapping[Monomial, object]):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("negative degree")
        clean: dict[Monomial, int | Fraction] = {}
        for mono, c in terms.items():
            c = exact(c)
            if not c:
                continue
            if len(mono) != num_vars or any(e < 0 for e in mono):
                raise ValueError(f"bad monomial {mono} for {num_vars} variables")
            if sum(mono) != degree:
                raise ValueError(f"monomial {mono} not of degree {degree}")
            clean[tuple(mono)] = c
        self.num_vars = num_vars
        self.degree = degree
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _trusted(num_vars: int, degree: int, terms: Mapping[Monomial, object]) -> "HomPoly":
        """A form whose monomials are already known to be exponent tuples
        of length `num_vars` and total degree `degree`: the result of
        arithmetic on valid forms, or monomials the package lists itself
        (`monomials`, and the s^(e-k) t^k of `curves._from_rows`).

        The coefficients are still normalized by `exact` and zeros dropped,
        so the form holds what the public constructor would store; only
        its checks on the monomials' length, signs and degree are skipped.
        Values from outside the package enter through the public
        constructor or `parse_poly`, which keep every check.
        """
        out = object.__new__(HomPoly)
        out.num_vars = num_vars
        out.degree = degree
        out.terms = {m: c if type(c) is int else exact(c) for m, c in terms.items() if c}
        return out

    @classmethod
    def zero(cls, num_vars: int, degree: int) -> "HomPoly":
        return cls(num_vars, degree, {})

    @classmethod
    def constant(cls, num_vars: int, c) -> "HomPoly":
        return cls(num_vars, 0, {(0,) * num_vars: c})

    @classmethod
    def variable(cls, num_vars: int, i: int, coeff=1) -> "HomPoly":
        if not 0 <= i < num_vars:
            raise ValueError("variable index out of range")
        mono = tuple(1 if j == i else 0 for j in range(num_vars))
        return cls(num_vars, 1, {mono: coeff})

    @classmethod
    def monomial(cls, num_vars: int, exps: Sequence[int], coeff=1) -> "HomPoly":
        exps = tuple(exps)
        return cls(num_vars, sum(exps), {exps: coeff})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono: Monomial) -> int | Fraction:
        return self.terms.get(tuple(mono), 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomPoly)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
            and (self.degree == other.degree or not self.terms or not other.terms)
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"HomPoly({render_poly(self)!r})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "HomPoly") -> "HomPoly":
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            acc = terms.get(mono, 0) + c
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
        return HomPoly._trusted(self.num_vars, self.degree, terms)

    def __neg__(self) -> "HomPoly":
        return HomPoly._trusted(
            self.num_vars, self.degree, {m: -c for m, c in self.terms.items()}
        )

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + (-other)

    def __mul__(self, other) -> "HomPoly":
        if not isinstance(other, HomPoly):
            c = exact(other)
            return HomPoly._trusted(
                self.num_vars, self.degree, {m: c * v for m, v in self.terms.items()}
            )
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")
        deg = self.degree + other.degree
        terms: dict[Monomial, int | Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                acc = terms.get(m, 0) + c1 * c2
                if acc:
                    terms[m] = acc
                else:
                    terms.pop(m, None)
        return HomPoly._trusted(self.num_vars, deg, terms)

    def __rmul__(self, other) -> "HomPoly":
        return self.__mul__(other)

    def power(self, k: int) -> "HomPoly":
        if k < 0:
            raise ValueError("negative power")
        out = HomPoly.constant(self.num_vars, 1)
        for _ in range(k):
            out = out * self
        return out

    # -- calculus and substitution -------------------------------------------

    def differentiate(self, i: int) -> "HomPoly":
        """Partial derivative with respect to variable i; drops degree by 1."""
        if not 0 <= i < self.num_vars:
            raise ValueError("variable index out of range")
        if self.degree == 0:
            return HomPoly.zero(self.num_vars, 0)
        terms: dict[Monomial, int | Fraction] = {}
        for mono, c in self.terms.items():
            e = mono[i]
            if e:
                m = mono[:i] + (e - 1,) + mono[i + 1 :]
                terms[m] = terms.get(m, 0) + c * e
        return HomPoly._trusted(self.num_vars, self.degree - 1, terms)

    def substitute(self, forms: Sequence["HomPoly"]) -> "HomPoly":
        """Substitute forms[i] for Z_i: forms of one common degree e in any
        number of variables; the result has degree e * deg(self).

        The terms are summed from one `monomial_images` table and their keys
        read back into exponent tuples by `images.monomial`, so the cost is
        the number of terms, whatever the result degree.
        """
        if len(forms) != self.num_vars:
            raise ValueError("need one form per variable")
        images = monomial_images(forms, self.degree)
        acc: dict[int, int | Fraction] = {}
        for g, c in self.terms.items():
            for k, v in images[g].items():
                acc[k] = acc.get(k, 0) + c * v
        nv, deg = forms[0].num_vars, forms[0].degree * self.degree
        return HomPoly._trusted(nv, deg, {images.monomial(k, deg): c for k, c in acc.items()})

    def evaluate(self, point: Sequence) -> int | Fraction:
        vals = [exact(x) for x in point]
        if len(vals) != self.num_vars:
            raise ValueError("point dimension mismatch")
        acc = 0
        for mono, c in self.terms.items():
            term = c
            for v, e in zip(vals, mono):
                term *= v**e
            acc += term
        return exact(acc)

    def sorted_terms(self) -> list[tuple[Monomial, int | Fraction]]:
        order = monomial_index(self.num_vars, self.degree)
        return sorted(self.terms.items(), key=lambda kv: order[kv[0]])


class _ImageTable(dict):
    """Images of monomials Z^g keyed by g; see `monomial_images`."""

    __slots__ = ("factors", "weights")

    def __init__(self, factors: list[list[tuple[int, int | Fraction]]], weights: list[int]):
        super().__init__({(0,) * len(factors): {0: 1}})
        self.factors = factors  # per form, its terms as (key, coefficient)
        self.weights = weights  # per variable of the forms, its key weight

    def key(self, mono: Monomial) -> int:
        """The int key of a monomial in the forms' variables."""
        return sum(map(mul, mono, self.weights))

    def monomial(self, key: int, degree: int) -> Monomial:
        """The monomial of the given degree whose key is `key`, the inverse
        of `key`: its exponents past the first are the digits of `key` in
        the weights, and the first follows from the degree."""
        rest = []
        for w in self.weights[:0:-1]:
            a, key = divmod(key, w)
            rest.append(a)
        return (degree - sum(rest), *reversed(rest))

    def __missing__(self, g: Monomial) -> dict[int, int | Fraction]:
        steps = []  # walk down to a known image, then multiply back up
        while g not in self:
            for i, a in enumerate(g):
                if a:
                    break
            steps.append((g, i))
            g = (*g[:i], a - 1, *g[i + 1 :])
        img = self[g]
        for g, i in reversed(steps):
            prod: dict[int, int | Fraction] = {}
            get = prod.get
            factor = self.factors[i]
            for k1, c1 in img.items():
                for k2, c2 in factor:
                    k = k1 + k2
                    prod[k] = get(k, 0) + c1 * c2
            self[g] = img = prod
        return img


def monomial_images(forms: Sequence[HomPoly], top: int) -> _ImageTable:
    """The table of monomial images under Z_i -> forms[i], filled on lookup.

    The forms share one degree e and one variable count.  `images[g]` is
    the image of Z^g, for g of total degree at most `top`, as a plain dict
    from monomial key to coefficient.  The key of Z^a, `images.key(a)`, is
    sum_{i>=1} a_i * base^(i-1), with base = e * top + 1 above every
    exponent reached, so the product of two monomials has the sum of their
    keys; a_0 follows from the degree.  For binary forms the key of s^a t^b
    is b.  A missing image is built, and kept, as the image of Z^(g - e_i)
    times forms[i] with i the first nonzero exponent of g, by walking down
    to a known image and multiplying back up without recursion, so
    monomials of degree above the recursion limit work.
    """
    degrees = {f.degree for f in forms}
    if len(degrees) != 1:
        raise ValueError("inhomogeneous parametrization")
    nv = forms[0].num_vars
    if any(f.num_vars != nv for f in forms):
        raise ValueError("substitution forms disagree on variable count")
    base = degrees.pop() * top + 1
    weights = [0] + [base**i for i in range(nv - 1)]
    factors = [[(sum(map(mul, m, weights)), c) for m, c in f.terms.items()] for f in forms]
    return _ImageTable(factors, weights)


# -- text format --------------------------------------------------------------
#
# Canonical rendering: terms in graded-lex order, "coeff*Z0^a*Z1^b" with unit
# exponents shortened to "Z0" and pure constants rendered as the coefficient.
# The parser reads what render_poly writes and round-trips it exactly; its digits
# are ASCII only.  It also takes "+" and "-" between terms in any spacing, a leading
# "+", a "+" before "-", spaces after a sign, a second "-" on a coefficient, unit and
# zero coefficients and exponents, unreduced fractions, repeated terms and variable
# factors, and leading zeros in indices and exponents.  Every term ends in a digit, so
# a "-" after a digit (and any spaces) separates terms; any other "-" is a sign.  An
# integer coefficient is read by int(); a Fraction is made only for "a/b".
#
# Grammar of one unsigned term, all of it matched once by _TERM_RE:
#   term     := coeff | [coeff ["*"]] monomial
#   coeff    := ["-"] digits ["/" digits]
#   monomial := factor ("*" factor)*
#   factor   := "Z" digits ["^" digits]
# _FACTOR_RE then reads the factors off the monomial group that _TERM_RE
# captured, so no factor is matched twice.

_BINARY_MINUS_RE = re.compile(r"(?<=\d)\s*-", re.ASCII)
_TERM_RE = re.compile(r"^(?:(-?\d+(?:/\d+)?)\*?)?(Z\d+(?:\^\d+)?(?:\*Z\d+(?:\^\d+)?)*)?$", re.ASCII)
_FACTOR_RE = re.compile(r"Z(\d+)(?:\^(\d+))?", re.ASCII)


def render_poly(p: HomPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for mono, c in p.sorted_terms():
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(f"Z{i}")
            elif e > 1:
                factors.append(f"Z{i}^{e}")
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = str(abs(c)) + "*" + "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def parse_poly(text: str, num_vars: int, degree: int) -> HomPoly:
    """Inverse of render_poly for forms of known variable count and degree."""
    s = text.strip()
    if s == "0":
        return HomPoly.zero(num_vars, degree)
    # normalize to '+'-separated signed terms
    s = _BINARY_MINUS_RE.sub("+-", s).removeprefix("+")
    chunks = [c.strip() for c in s.split("+")]
    terms: dict[Monomial, int | Fraction] = {}
    for chunk in chunks:
        if not chunk:
            raise ValueError(f"empty term in {text!r}")
        negate = chunk.startswith("-")
        chunk = chunk.removeprefix("-").lstrip()
        m = _TERM_RE.match(chunk)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"cannot parse term {chunk!r}")
        num = m.group(1)
        if num is None:
            coeff = 1
        elif "/" not in num:
            coeff = int(num)
        else:
            try:
                coeff = Fraction(num)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in term {chunk!r}") from None
        exps = [0] * num_vars
        for index, power in _FACTOR_RE.findall(m.group(2) or ""):
            idx = int(index)
            if idx >= num_vars:
                raise ValueError(f"variable Z{idx} out of range")
            exps[idx] += int(power or 1)
        mono = tuple(exps)
        if sum(mono) != degree:
            raise ValueError(
                f"term {chunk!r} has degree {sum(mono)}, expected {degree}"
            )
        terms[mono] = terms.get(mono, 0) + (-coeff if negate else coeff)
    return HomPoly(num_vars, degree, terms)
