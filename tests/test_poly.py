import json
from fractions import Fraction
from importlib import resources

import pytest

from veronese.bundles import VeroneseContext, normal_presentation
from veronese.curves import random_line, rnc
from veronese.poly import HomPoly, monomials, parse_poly, render_poly, section_dim
from veronese.prng import SplitMix64


def Z(i, nv=3):
    return HomPoly.variable(nv, i)


@pytest.mark.parametrize(
    "num_vars, degree, terms, message",
    [
        (0, 0, {}, "need at least one variable"),
        (2, -1, {}, "negative degree"),
        (2, 1, {(1,): 1}, r"bad monomial \(1,\) for 2 variables"),
        (2, 1, {(2, -1): 1}, r"bad monomial \(2, -1\) for 2 variables"),
        (2, 2, {(1, 0): 3}, r"monomial \(1, 0\) not of degree 2"),
    ],
)
def test_hompoly_refusals(num_vars, degree, terms, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        HomPoly(num_vars, degree, terms)


def test_multiply_basic():
    assert Z(0) * Z(1) == HomPoly.monomial(3, (1, 1, 0))


def test_multiply_difference_of_squares():
    p = (Z(0, 2) + Z(1, 2)) * (Z(0, 2) - Z(1, 2))
    assert p == HomPoly.monomial(2, (2, 0)) - HomPoly.monomial(2, (0, 2))


def test_multiply_by_zero():
    z = HomPoly.zero(2, 1)
    p = Z(0, 2) + Z(1, 2)
    assert (z * p).is_zero()


def test_power():
    p = HomPoly(3, 2, {(2, 0, 0): 1, (0, 1, 1): Fraction(-1, 2)})
    one = p.power(0)
    assert (one.num_vars, one.degree, one.terms) == (3, 0, {(0, 0, 0): 1})
    assert p.power(1) == p
    cube = p.power(3)
    assert cube == p * p * p and cube.degree == 6
    assert HomPoly.zero(2, 2).power(2) == HomPoly.zero(2, 4)
    with pytest.raises(ValueError, match="negative power"):
        p.power(-1)


def test_differentiate_square():
    assert HomPoly.monomial(2, (2, 0)).differentiate(0) == HomPoly.variable(2, 0, 2)


def test_differentiate_mixed():
    assert HomPoly.monomial(2, (1, 1)).differentiate(1) == Z(0, 2)


def test_differentiate_missing_variable():
    assert HomPoly.monomial(2, (0, 3)).differentiate(0).is_zero()


def test_substitute_conic():
    # Z0*Z2 along (s^2, st, t^2) -> s^2 t^2
    forms = [
        HomPoly.monomial(2, (2, 0)),
        HomPoly.monomial(2, (1, 1)),
        HomPoly.monomial(2, (0, 2)),
    ]
    assert HomPoly.monomial(3, (1, 0, 1)).substitute(forms) == HomPoly.monomial(2, (2, 2))


def test_substitute_line():
    forms = [Z(0, 2), Z(1, 2), HomPoly.zero(2, 1)]
    assert Z(1).substitute(forms) == Z(1, 2)


def test_substitute_cubic_curve():
    forms = [HomPoly.monomial(2, (3 - k, k)) for k in range(4)]
    assert HomPoly.monomial(4, (2, 0, 0, 0)).substitute(forms) == HomPoly.monomial(
        2, (6, 0)
    )


def test_substitute_rejects_mixed_degrees():
    with pytest.raises(ValueError, match="inhomogeneous"):
        Z(0, 2).substitute([Z(0, 2), HomPoly.monomial(2, (1, 1))])


def test_monomials_two_vars_degree_one():
    assert monomials(2, 1) == ((1, 0), (0, 1))


def test_monomials_count():
    assert len(monomials(3, 2)) == 6


def test_monomials_degree_zero():
    assert monomials(2, 0) == ((0, 0),)


def test_section_dim_counts_without_listing():
    """section_dim is a binomial: it neither lists nor caches monomials."""
    before = monomials.cache_info()
    assert section_dim(4, 120) == 302621
    assert monomials.cache_info() == before
    assert section_dim(3, -1) == 0
    for nv in range(1, 5):
        for deg in range(7):
            assert section_dim(nv, deg) == len(monomials(nv, deg))


def test_monomial_order_golden():
    path = resources.files("veronese").joinpath("golden", "monomial_order_v1.json")
    with path.open() as f:
        golden = json.load(f)
    for key, monos in golden.items():
        nv, m = (int(x) for x in key.split(","))
        assert [list(t) for t in monomials(nv, m)] == monos


def _random_poly(rng, nv, deg):
    terms = {}
    for mono in monomials(nv, deg):
        c = rng.next_int(-6, 6)
        if c and rng.next_below(2):
            terms[mono] = c
    return HomPoly(nv, deg, terms)


def test_euler_identity_random():
    rng = SplitMix64(77)
    for _ in range(60):
        nv = rng.next_int(2, 4)
        deg = rng.next_int(1, 5)
        p = _random_poly(rng, nv, deg)
        acc = HomPoly.zero(nv, deg)
        for i in range(nv):
            acc = acc + HomPoly.variable(nv, i) * p.differentiate(i)
        assert acc == p * deg


def test_substitute_is_ring_homomorphism():
    rng = SplitMix64(78)
    for _ in range(60):
        nv = rng.next_int(2, 3)
        e = rng.next_int(1, 2)
        forms = [_random_poly(rng, 2, e) for _ in range(nv)]
        p = _random_poly(rng, nv, rng.next_int(1, 3))
        q = _random_poly(rng, nv, rng.next_int(1, 3))
        assert (p * q).substitute(forms) == p.substitute(forms) * q.substitute(forms)


def _reference_substitute(p, forms):
    """Substitution by a per-call power cache: the powers of each form up to
    its largest exponent in p, then one HomPoly product per term.  An
    oracle for the shared product table of `monomial_images`."""
    nv = forms[0].num_vars
    max_exp = [0] * p.num_vars
    for mono in p.terms:
        for i, a in enumerate(mono):
            max_exp[i] = max(max_exp[i], a)
    powers = []
    for i, f in enumerate(forms):
        row = [HomPoly.constant(nv, 1)]
        for _ in range(max_exp[i]):
            row.append(row[-1] * f)
        powers.append(row)
    out = HomPoly.zero(nv, forms[0].degree * p.degree)
    for mono, c in p.terms.items():
        piece = HomPoly.constant(nv, c)
        for i, a in enumerate(mono):
            if a:
                piece = piece * powers[i][a]
        out = out + piece
    return out


def _random_form(rng, nv, deg):
    """Zero one time in four; otherwise Fraction coefficients half the time."""
    if not rng.next_below(4):
        return HomPoly.zero(nv, deg)
    den = rng.next_int(2, 3) if rng.next_below(2) else 1
    return HomPoly(nv, deg, {m: Fraction(rng.next_int(-4, 4), den) for m in monomials(nv, deg)})


def _assert_same_form(got, want):
    assert (got.num_vars, got.degree, got.terms) == (want.num_vars, want.degree, want.terms)


def test_substitute_matches_power_cache_reference():
    rng = SplitMix64(80)
    for _ in range(80):
        nv = rng.next_int(2, 4)
        e = rng.next_int(0, 3)
        form_vars = rng.next_int(1, 3)
        forms = [_random_form(rng, form_vars, e) for _ in range(nv)]
        p = _random_poly(rng, nv, rng.next_int(0, 4))
        _assert_same_form(p.substitute(forms), _reference_substitute(p, forms))
    # a monomial of degree above the default recursion limit
    p = HomPoly.monomial(2, (1200, 3))
    forms = [HomPoly.variable(2, 0, 2), HomPoly(2, 1, {(1, 0): 1, (0, 1): -1})]
    _assert_same_form(p.substitute(forms), _reference_substitute(p, forms))
    for n, d in ((2, 3), (3, 2), (2, 4), (4, 2)):
        pres = normal_presentation(VeroneseContext(n, d))
        for curve in (random_line(n, rng.next_u64()), rnc(n, 0), rnc(n, rng.next_int(1, 99))):
            pulled = pres.pullback(curve)
            for row, pulled_row in zip(pres.entries, pulled.entries):
                for entry, got in zip(row, pulled_row):
                    _assert_same_form(got, _reference_substitute(entry, curve.forms))
    # forms in four variables
    for _ in range(20):
        nv = rng.next_int(2, 3)
        e = rng.next_int(0, 2)
        forms = [_random_form(rng, 4, e) for _ in range(nv)]
        p = _random_poly(rng, nv, rng.next_int(0, 3))
        _assert_same_form(p.substitute(forms), _reference_substitute(p, forms))
    # sparse images of degree >= 10: few terms, their keys far apart
    z0, z1 = HomPoly.variable(2, 0), HomPoly.variable(2, 1)
    for p, forms in (
        (
            HomPoly.monomial(3, (4, 0, 3)),
            [
                HomPoly(4, 2, {(2, 0, 0, 0): 1, (0, 0, 0, 2): -3}),
                HomPoly.monomial(4, (0, 1, 1, 0)),
                HomPoly(4, 2, {(0, 0, 1, 1): Fraction(1, 2)}),
            ],
        ),
        (z0.power(5) + z1.power(5) * 2, [HomPoly.monomial(3, (0, 0, 2)), HomPoly.monomial(3, (1, 1, 0), -1)]),
        (HomPoly.monomial(2, (7, 4)), [HomPoly.monomial(1, (3,), 2), HomPoly.monomial(1, (3,), -1)]),
    ):
        got = p.substitute(forms)
        assert got.degree >= 10 and not got.is_zero()
        _assert_same_form(got, _reference_substitute(p, forms))
    # one term of degree 120 in 4 variables: decoded from its key alone,
    # without listing the monomials of that degree
    p = HomPoly.monomial(4, (60, 0, 0, 0))
    forms = [HomPoly.monomial(4, [2 * (j == i) for j in range(4)]) for i in range(4)]
    before = monomials.cache_info()
    got = p.substitute(forms)
    assert monomials.cache_info() == before
    _assert_same_form(got, HomPoly.monomial(4, (120, 0, 0, 0)))
    _assert_same_form(got, _reference_substitute(p, forms))


@pytest.mark.parametrize(
    "text, terms",
    [
        ("3*Z0 - 2*Z1", {(1, 0): 3, (0, 1): -2}),
        ("1/2*Z0", {(1, 0): Fraction(1, 2)}),
        ("4/2*Z0", {(1, 0): 2}),
        ("007*Z0", {(1, 0): 7}),
        ("-0*Z0", {}),
    ],
)
def test_parse_coefficient_types(text, terms):
    """Integers are read as ints, and a Fraction is kept only where a
    quotient is not integral."""
    p = parse_poly(text, 2, 1)
    assert p.terms == terms
    assert [type(c) for c in p.terms.values()] == [type(c) for c in terms.values()]


def test_render_parse_round_trip():
    rng = SplitMix64(79)
    for _ in range(60):
        nv = rng.next_int(2, 4)
        deg = rng.next_int(0, 4)
        p = _random_poly(rng, nv, deg)
        assert parse_poly(render_poly(p), nv, deg) == p


def test_render_examples():
    p = HomPoly(3, 2, {(2, 0, 0): 2, (1, 1, 0): -1, (0, 0, 2): 1})
    assert render_poly(p) == "2*Z0^2 - Z0*Z1 + Z2^2"
    assert render_poly(HomPoly.zero(2, 3)) == "0"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("Z0 + bogus", 2, 1)
    with pytest.raises(ValueError):
        parse_poly("Z5", 2, 1)
    with pytest.raises(ValueError):
        parse_poly("Z0^2", 2, 1)


@pytest.mark.parametrize(
    "text",
    [
        "٣*Z0^2",  # ARABIC-INDIC DIGIT THREE as a coefficient
        "Z٣^2",  # ... as a variable index
        "Z0^٢",  # ARABIC-INDIC DIGIT TWO as an exponent
        "３*Z0^2",  # FULLWIDTH DIGIT THREE
        "3/٢*Z0^2",  # ... as a denominator
        "Z0^2 + ٣*Z1^2",
    ],
    ids=["coefficient", "index", "exponent", "fullwidth", "denominator", "second-term"],
)
def test_parse_reads_ascii_digits_only(text):
    with pytest.raises(ValueError, match="^cannot parse term"):
        parse_poly(text, 4, 2)


@pytest.mark.parametrize(
    "text, canonical",
    [
        ("+ Z0^2", "Z0^2"),  # a leading "+"
        ("Z0^2+Z1^2", "Z0^2 + Z1^2"),  # "+" in any spacing
        ("Z0^2-Z1^2 -Z2^2-  Z3^2", "Z0^2 - Z1^2 - Z2^2 - Z3^2"),  # "-" in any spacing
        ("Z0^2 + -Z1^2", "Z0^2 - Z1^2"),  # "+" before "-"
        ("- Z0^2 + - 3*Z1^2", "-Z0^2 - 3*Z1^2"),  # spaces after a sign
        ("--3*Z0^2", "3*Z0^2"),  # a second "-" on a coefficient
        ("-Z0^2 - -3*Z1^2", "-Z0^2 + 3*Z1^2"),  # ... after a "-" between terms
        ("Z0^2--3*Z1^2", "Z0^2 + 3*Z1^2"),  # ... in any spacing
        ("1*Z0^1*Z1 + 0*Z1^2 + Z2^2*Z3^0", "Z0*Z1 + Z2^2"),  # unit and zero parts
        ("2/4*Z0^2", "1/2*Z0^2"),  # an unreduced fraction
        ("Z0*Z0 + Z0^2", "2*Z0^2"),  # repeated variable factors and terms
        ("Z00^02", "Z0^2"),  # leading zeros in an index and an exponent
        ("Z1^0*Z2^2", "Z2^2"),  # a zero exponent inside a product
        ("Z1*Z1", "Z1^2"),  # a repeated variable in one product
    ],
    ids=[
        "plus",
        "spacing",
        "minus-spacing",
        "plus-minus",
        "sign-space",
        "minus-minus",
        "minus-minus-term",
        "minus-minus-unspaced",
        "unit-zero",
        "fraction",
        "repeats",
        "zeros",
        "zero-exponent-factor",
        "repeated-factor",
    ],
)
def test_parse_leniencies_normalize(text, canonical):
    assert render_poly(parse_poly(text, 4, 2)) == canonical


def test_parse_reads_every_factor_of_a_product():
    """Each factor of a term's monomial is read once, in order: leading
    zeros in several factors are read as one number each, exponents of a
    repeated variable add up, and the first index out of range is named."""
    assert render_poly(parse_poly("Z03*Z00^2", 4, 3)) == "Z0^2*Z3"
    assert render_poly(parse_poly("2*Z1*Z0^2*Z1^0*Z1", 4, 4)) == "2*Z0^2*Z1^2"
    for text in ("Z4^2", "Z0*Z4", "Z4*Z9"):
        with pytest.raises(ValueError, match="^variable Z4 out of range$"):
            parse_poly(text, 4, 2)
