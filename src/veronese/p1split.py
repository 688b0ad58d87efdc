"""Birkhoff-Grothendieck splitting types on the projective line.

Input: an injective map of twisted frees F1 -> F0 on P^1 whose cokernel E
is locally free.  The dual of E is the kernel sheaf of the dualized map,
and its graded module of sections over k[s,t] is free (second syzygies
over a two-variable polynomial ring), hence automatically saturated.  The
splitting degrees of E are exactly the generator degrees b_i of that
kernel module.  A free module with generators in degrees b_i has Hilbert
function K(m) = sum_i max(0, m - b_i + 1), so the number of generators of
degree m is the second difference K(m) - 2K(m-1) + K(m-2).  K(m) is the
nullity of the dual's degree-m stratum: the scan needs exact ranks only.

The scan reads the presentation as row terms (`GradedMap.row_terms`): the
(j, b, c) of each term c s^a t^b of entry (i, j), listed by row i.  A
pullback is built as these lists, so a restriction never forms a
HomPoly entry; a map built from entries is flattened into them.

Image recursion.  The dual stratum at twist m maps H0(F0^v(m)) to
H0(F1^v(m)), and its image Im(m) has the rank the scan needs:
K(m) = sum_i max(0, m - t_i + 1) - dim Im(m).  Every column at twist m+1
is s or t times a column at m, except the columns of the summands with
t_i = m+1, so Im(m+1) = s Im(m) + t Im(m) + those new columns.  The scan
keeps a basis of Im(m) as columns of the stratum (shifted presentation
coefficients, so entries never grow) and ranks only the candidates:
the two shifts of the basis and the new columns.  The next basis is the
pivot columns of the candidate matrix (`linalg.pivot_columns`).  Where
the stratum is much wider than tall this ranks far fewer columns.

Preconditions are enforced, not assumed.  Injectivity is decided exactly
by scalar ranks at D+1 points of the line, D a degree bound on maximal
minors, evaluated from the row terms, unless the scan proves it first:
once Im(m) is all of H0(F1^v(m)) at some m >= max(s), every O(m - s_j)
is globally generated, so the dual map is onto every fiber, and the
presentation is injective on every fiber.  It is then injective with a
locally free cokernel, the point test is skipped, and every later Im is
everything, so K follows by formula.  Without such a stratum the point
test runs after the scan and before any torsion diagnosis, which keeps
every outcome of the earlier order (a surjective stratum at m < max(s)
proves nothing: O(m - s_j) may have no sections).  Square presentations
have no scan and always run it.
Local freeness is decided by degree conservation: the kernel
module is free even when E has torsion, and its degrees then describe the
torsion-free quotient of E, so any deficit against sum(t) - sum(s) is
precisely the torsion length.  With rank 0 there is no kernel module; the
cokernel is then torsion of length sum(t) - sum(s), the degree of the
determinant, and E = 0 exactly when the two twist sums agree.

Degree-sum stop.  Before the stratum at twist m is built, K is known up to
m-1, so every generator of degree < m is known.  The k generators still
missing have degrees >= m, and their sum is want - (sum of the known
degrees) - tau, where want = sum(t) - sum(s) and tau >= 0 is the torsion
length.  If want - (sum of the known degrees) == m*k, then m*k <= m*k - tau
forces tau = 0 and all k missing degrees equal m: the scan appends them
and stops without building stratum m.  For a locally free cokernel this
fires at m = max(b) at the latest, so the last and largest stratum of
every scan is skipped.  With torsion the equality never holds, and the
scan runs as before to its torsion diagnosis.

Balanced start.  The kernel module sits in a free module, so it is
torsion-free and multiplication by s embeds its degree m-1 part in its
degree m part: K(m-1) <= K(m).  K = 0 at a twist thus means no generator
at or below it.  The degrees of the kernel module sum to at most
want = sum(t) - sum(s), so min(b) <= a = floor(want / rank) and K(a) > 0;
for the nearly balanced types of general curves every generator lies
close to a.  So when a-1 > min(t) the scan first ranks the full stratum
at a-1 (every column at a-2 shifted, plus the new columns), and, if that
one has kernel, the full stratum at a-2.  Every general type computed so
far spans at most three consecutive degrees, so two probes suffice for
them, and the cap bounds the cost for special curves; correctness rests
on monotonicity alone.  The ascending scan starts at the highest probe
with K = 0, or at min(t) if neither has K = 0, and at a probed twist it
takes the probe's pivot columns as its basis instead of ranking again; so
a scan ranks at most two strata more than before, and every K it reads is
the K of the scan from min(t).  A surjective probe at m >= max(s) proves
injectivity as any scan stratum does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gradedmap import GradedMap
from . import linalg


class NotInjectiveError(ValueError):
    """The relation matrix has a sheaf-level kernel."""


class NotLocallyFreeError(ValueError):
    """The cokernel has torsion: maximal minors share a zero."""


@dataclass(frozen=True)
class SplittingType:
    """Multiset of line-bundle degrees, stored descending."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(sorted(self.degrees, reverse=True)))

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def degree(self) -> int:
        return sum(self.degrees)

    def h0_profile(self, m_lo: int, m_hi: int) -> list[int]:
        """Global-section dimensions of all twists in [m_lo, m_hi]."""
        if m_lo > m_hi:
            raise ValueError("empty twist window")
        return [
            sum(max(0, b + m + 1) for b in self.degrees)
            for m in range(m_lo, m_hi + 1)
        ]

    def sym_square(self) -> "SplittingType":
        """Degrees of the symmetric square: all pairwise sums b_i + b_j, i <= j."""
        degs = self.degrees
        return SplittingType(
            tuple(
                degs[i] + degs[j]
                for i in range(len(degs))
                for j in range(i, len(degs))
            )
        )

    def to_json(self) -> dict:
        return {"degrees": list(self.degrees), "rank": self.rank, "degree": self.degree}


def _assert_injective(pres: GradedMap) -> None:
    """Exact sheaf-injectivity test by scalar ranks at D+1 points.

    A nonzero maximal minor has degree at most D, so it cannot vanish at
    D+1 distinct points of the line; full column rank at any one point
    certifies injectivity, rank defect at all of them refutes it.  At the
    point (s, t) = (1, k) the row term (j, b, c) adds c k^b to column j.
    """
    p, q = pres.shape
    top = sorted(pres.target_twists, reverse=True)[:q]
    bound = sum(top) - sum(pres.source_twists)
    if p < q or bound < 0:
        raise NotInjectiveError("presentation not injective")
    row_terms = pres.row_terms()
    for k in range(bound + 1):
        rows = [[0] * q for _ in row_terms]
        for row, terms in zip(rows, row_terms):
            for j, b, c in terms:
                row[j] += c * k**b
        if linalg.rank(rows, q) == q:
            return
    raise NotInjectiveError("presentation not injective")


def _image_basis(
    row_terms: list[list[tuple[int, int, object]]],
    src: tuple[int, ...],
    basis: list[tuple[int, int]],
    new: list[int],
    m: int,
) -> list[tuple[int, int]]:
    """Columns that form a basis of the image of the dual stratum at twist m.

    Column (i, b) of that stratum is s^(m - t_i - b) t^b times row i of
    the presentation, whose terms are `row_terms[i]`: the term c s^a t^beta
    of entry (i, j) sits at row beta + b of block j, which has m - s_j + 1
    rows.  s and t times column (i, b) of twist m - 1 are (i, b) and
    (i, b + 1) of twist m, so the image at m is spanned by those shifts of
    `basis`, a basis at m - 1, and by the columns (i, 0) of the summands
    `new` with t_i = m.  The candidates stay presentation coefficients, and
    the pivot columns among them are the basis.
    """
    cands: list[tuple[int, int]] = []
    for i, b in basis:  # grouped by i, ascending b: shifts meet only within a run
        if not cands or cands[-1] != (i, b):
            cands.append((i, b))
        cands.append((i, b + 1))
    cands += [(i, 0) for i in new]
    offsets = [0]
    for s in src:
        offsets.append(offsets[-1] + max(0, m - s + 1))
    rows = [[0] * len(cands) for _ in range(offsets[-1])]
    for col, (i, b) in enumerate(cands):
        for j, beta, c in row_terms[i]:
            rows[offsets[j] + beta + b][col] = c
    return [cands[c] for c in linalg.pivot_columns(rows, len(cands))]


def splitting_type(pres: GradedMap) -> SplittingType:
    """Splitting degrees of the cokernel bundle of an injective presentation.

    Scan window: every degree b of the cokernel satisfies
    min(t) <= b <= sum(t) - sum(s) - (rank-1)*min(t); the scan stops as
    soon as rank-many generators are found, or when the degree sum left
    over admits only generators of the current degree (degree-sum stop).

    Balanced start: K is monotone and K(a) > 0 for the average degree
    a = floor((sum(t) - sum(s)) / rank), so when a-1 > min(t) the full
    strata at a-1 and, if it has kernel, at a-2 are ranked first; the scan
    starts at the highest of them with K = 0 (else at min(t)) and reuses
    their bases, so it ranks at most two strata more than from min(t).
    """
    if pres.num_vars != 2:
        raise ValueError("splitting types live on the projective line")
    p, q = pres.shape
    rank = p - q
    if q == 0:
        return SplittingType(pres.target_twists)
    want = sum(pres.target_twists) - sum(pres.source_twists)
    if rank <= 0:
        _assert_injective(pres)  # raises when p < q
        if want != 0:
            raise NotLocallyFreeError(
                f"cokernel not locally free: torsion length {want}"
            )
        return SplittingType(())

    src, tgt = pres.source_twists, pres.target_twists
    row_terms = pres.row_terms()
    lo, top = min(tgt), max(src)
    hi = want - (rank - 1) * lo
    # balanced start: K is monotone, so K = 0 at a probe means no generator
    # at or below it; a probe ranks the full stratum, every column at m - 1
    # serving as the basis
    probes: dict[int, list[tuple[int, int]]] = {}
    start = lo
    a = want // rank
    for m in (a - 1, a - 2) if a - 1 > lo else ():
        every = [(i, b) for i, t in enumerate(tgt) for b in range(m - t)]
        new = [i for i, t in enumerate(tgt) if t == m]
        probes[m] = _image_basis(row_terms, src, every, new, m)
        if len(probes[m]) == sum(max(0, m - t + 1) for t in tgt):
            start = m
            break
    basis: list[tuple[int, int]] = []  # columns spanning the image at m - 1
    surjective = False  # the image is all of H0(F1^v(m)) at some m >= max(s)
    degrees: list[int] = []
    k1 = k2 = 0  # K(m-1), K(m-2); K vanishes below start
    for m in range(start, hi + 1):
        # degrees holds every generator of degree < m; the other k have
        # degree >= m and sum to want - sum(degrees) - torsion length, so
        # equality with m * k forces no torsion and all k of degree m
        k = rank - len(degrees)
        if want - sum(degrees) == m * k:
            degrees.extend([m] * k)
            break
        n_rows = sum(max(0, m - s + 1) for s in src)
        if not surjective:
            if m in probes:
                basis = probes[m]
            else:
                new = [i for i, t in enumerate(tgt) if t == m]
                basis = _image_basis(row_terms, src, basis, new, m)
            surjective = len(basis) == n_rows and m >= top
        # once surjective, the image stays all of H0(F1^v(m))
        k0 = sum(max(0, m - t + 1) for t in tgt) - (n_rows if surjective else len(basis))
        degrees.extend([m] * (k0 - 2 * k1 + k2))
        if len(degrees) == rank:
            break
        k1, k2 = k0, k1
    if not surjective:
        _assert_injective(pres)
    # injective now: the kernel module is free of rank p - q with every
    # degree in [lo, hi], so the scan has found all `rank` generators
    st = SplittingType(tuple(degrees))
    if st.degree != want:
        # the computed degrees describe the torsion-free quotient; a deficit
        # is exactly the torsion length
        raise NotLocallyFreeError(
            f"cokernel not locally free: degree sum {st.degree} != "
            f"twist difference {want} (torsion length {want - st.degree})"
        )
    return st


def h0_direct(pres: GradedMap, m: int) -> int:
    """Sections of the cokernel at twist m, from strata alone.

    dim coker(stratum at m) plus the kernel of the induced map on first
    cohomology, the latter computed by Serre duality as a stratum of the
    dual at twist -m-2.  Independent of splitting_type's kernel scan.  A
    stratum with no rows or no columns has rank 0 and is not built.
    """
    if pres.num_vars != 2:
        raise ValueError("h0_direct is specific to the projective line")
    src, tgt = pres.source_twists, pres.target_twists
    h0_f0 = sum(max(0, t + m + 1) for t in tgt)
    h0_f1 = sum(max(0, s + m + 1) for s in src)
    h1_f0 = sum(max(0, -t - m - 1) for t in tgt)
    h1_f1 = sum(max(0, -s - m - 1) for s in src)
    rk_h0 = linalg.rank(*pres.stratum_rows(m)) if h0_f0 and h0_f1 else 0
    rk_h1 = linalg.rank(*pres.dual().stratum_rows(-m - 2)) if h1_f0 and h1_f1 else 0
    return (h0_f0 - rk_h0) + (h1_f1 - rk_h1)
