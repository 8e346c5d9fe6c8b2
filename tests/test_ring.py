import itertools
import math
from fractions import Fraction

import pytest

from hypothesis import given, strategies as st

from zwcalc import ring, semantics, term
from zwcalc.ring import (
    RingMismatchError,
    UnsupportedOperationError,
    conjugate,
    ring_arith,
    ring_equal,
)

import helpers

Z = ring.Z()
Z6 = ring.Zn(6)
QI = ring.Qi()
CC = ring.C(1e-9)


def test_additive_inverse_over_Z():
    a = ring.from_int(Z, 3)
    assert ring_equal(ring_arith("add", a, -a), Z.zero)


def test_modular_reduction_forced():
    three = ring.from_int(Z6, 3)
    assert ring_equal(three + three, Z6.zero)
    assert (three + three).value == 0


def test_gaussian_product_of_conjugates():
    a = ring.gaussian(QI, 1, 1)
    b = ring.gaussian(QI, 1, -1)
    assert ring_equal(a * b, ring.from_int(QI, 2))


def test_descriptor_mismatch_is_typed():
    with pytest.raises(RingMismatchError):
        ring_arith("add", ring.from_int(Z, 1), ring.from_int(Z6, 1))


def test_constructors_reject_what_is_not_an_integer():
    for desc in (Z, Z6):
        with pytest.raises(TypeError):
            ring.from_int(desc, 2.5)
    with pytest.raises(ring.RingError):
        ring.Zn(6.5)
    assert ring.from_int(QI, Fraction(1, 2)) == ring.gaussian(QI, Fraction(2, 4))


def test_conjugate_examples():
    a = ring.gaussian(QI, 1, 2)
    assert conjugate(a).value == ring.GaussianRational(Fraction(1), Fraction(-2))
    five = ring.from_int(Z, 5)
    assert conjugate(five) is five
    with pytest.raises(UnsupportedOperationError):
        conjugate(ring.from_int(Z6, 1))


def test_equality_canonical_and_tolerant():
    half = ring.RingElement(QI, ring.GaussianRational(Fraction(2, 4), Fraction(0)))
    assert ring_equal(half, ring.gaussian(QI, Fraction(1, 2)))
    tiny = ring.complex_value(CC, 1e-12)
    assert ring_equal(tiny, CC.zero)
    assert not ring_equal(ring.from_int(Z, 1), Z.zero)


def _edge_values(r):
    """Raw values of ``r`` on which a zero test can go wrong."""
    if r.kind == ring.COMPLEX_APPROX:
        tol, nan, inf = r.tolerance, math.nan, math.inf
        parts = [0.0, -0.0, nan, inf, -inf, 1.0,
                 math.nextafter(tol, 0), tol, math.nextafter(tol, 1)]
        return [complex(x, y) for x in parts for y in parts] + [
            complex(tol / math.sqrt(2), tol / math.sqrt(2)), 0j, complex(-tol, 0)]
    if r.kind == ring.INTEGERS_MOD:
        return list(range(r.modulus))
    if r.kind == ring.GAUSSIAN_RATIONALS:
        return [ring.GaussianRational(Fraction(a, den), Fraction(b, den))
                for a in (-3, 0, 1, 2) for b in (-1, 0, 2) for den in (1, 2, 3, 6)]
    return [0, 1, -1, 2 ** 200, -(2 ** 200), 10 ** 60 + 1]


@pytest.mark.parametrize("r", [Z, Z6, QI, CC, ring.C(1e-16), ring.C(0.5)], ids=str)
def test_the_raw_zero_test_is_not_eq_zero(r):
    values = _edge_values(r)
    assert len(values) > 5
    for v in values:
        want = not r.eq(v, r.zero.value)
        assert r.nonzero(v) is want, v
        assert ring.RingElement(r, v).is_zero() is not want, v
    if not r.exact:  # a value too large for abs: both raise
        for test in (r.nonzero, lambda v: r.eq(v, r.zero.value)):
            with pytest.raises(OverflowError):
                test(complex(1.5e308, 1.5e308))


def test_gaussian_integers_format_as_their_fraction_parts_do():
    for a, b, den in itertools.product(range(-12, 13), range(-12, 13), range(1, 7)):
        g = ring.GaussianRational(Fraction(a, den), Fraction(b, den))
        assert str(g) == helpers.ref_gaussian_str(g), (a, b, den)


ints = st.integers(min_value=-50, max_value=50)
fracs = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@st.composite
def qi_elements(draw):
    return ring.gaussian(QI, draw(fracs), draw(fracs))


@given(ints, ints, ints)
def test_ring_axioms_integers(x, y, z):
    a, b, c = (ring.from_int(Z, v) for v in (x, y, z))
    assert ring_equal((a + b) + c, a + (b + c))
    assert ring_equal(a * b, b * a)
    assert ring_equal(a * (b + c), a * b + a * c)
    assert ring_equal(a + Z.zero, a)
    assert ring_equal(a * Z.one, a)


@given(qi_elements(), qi_elements(), qi_elements())
def test_ring_axioms_gaussian(a, b, c):
    assert ring_equal((a * b) * c, a * (b * c))
    assert ring_equal(a + b, b + a)
    assert ring_equal(a * (b + c), a * b + a * c)


def _reference_str(re: Fraction, im: Fraction) -> str:
    """The literal of a Gaussian rational kept as a pair of Fractions."""
    if im == 0:
        return str(re)
    im_s = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    if re == 0:
        return im_s
    return f"{re}{'+' if im > 0 else ''}{im_s}"


# small parts, so that equal results turn up often
small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=12)


# one, parsed (the interned one is None), and values that share two of its three ints
ONE_LIKE = (None, "1", "1/2", "1+i", "-1")


@given(st.tuples(fracs, fracs), st.sampled_from(ONE_LIKE), st.booleans())
def test_products_by_one_match_the_general_formula(x, text, one_first):
    """A factor equal to one returns the other factor, and a factor that
    only looks like one does not: each product is the same value, by ==
    and by repr, as the general formula gives."""
    assert ring.parse_literal(QI, "1").value is not QI.one.value
    a = ring.gaussian(QI, *x)
    b = QI.one if text is None else ring.parse_literal(QI, text)
    got = ring_arith("mul", b, a) if one_first else ring_arith("mul", a, b)
    (p, q), (r, s) = x, (b.value.re, b.value.im)
    want = ring.gaussian(QI, p * r - q * s, p * s + q * r)
    assert got == want and repr(got) == repr(want)


@given(st.tuples(small_fracs, small_fracs), st.tuples(small_fracs, small_fracs))
def test_qi_arithmetic_matches_fraction_pairs(x, y):
    a, b = ring.gaussian(QI, *x), ring.gaussian(QI, *y)
    (p, q), (r, s) = x, y
    cases = [  # (result, the reference pair)
        (a + b, (p + r, q + s)),
        (a - b, (p - r, q - s)),
        (a * b, (p * r - q * s, p * s + q * r)),
        (-a, (-p, -q)),
        (conjugate(a), (p, -q)),
        (a, x),
        (b, y),
    ]
    for got, want in cases:
        v = got.value
        assert (v.re, v.im) == want
        assert v.den > 0 and math.gcd(v.a, v.b, v.den) == 1
        assert ring.format_literal(got) == _reference_str(*want)
    for (g, w), (h, u) in itertools.product(cases, repeat=2):
        assert (g == h) == (g.value == h.value) == ring_equal(g, h) == (w == u)
        if w == u:
            assert hash(g.value) == hash(h.value) and hash(g) == hash(h)


def test_descriptors_are_interned_and_mix_by_value():
    assert ring.Qi() is QI and ring.Zn(6) is Z6 and ring.C() is ring.C(1e-9) is CC
    assert ring.Qi().zero is QI.zero and ring.Z().one is Z.one
    direct = ring.RingDescriptor(ring.GAUSSIAN_RATIONALS)
    assert direct is not QI and direct == QI and hash(direct) == hash(QI)
    a, b = ring.gaussian(direct, 1, 2), ring.gaussian(QI, Fraction(1, 3))
    assert (a + b).value == (b + a).value == ring.GaussianRational(Fraction(4, 3), 2)
    assert ring_equal(a * b, ring.gaussian(QI, Fraction(1, 3), Fraction(2, 3)))
    assert ring_equal(a - a, QI.zero) and (a - a).is_zero()
    for other in (ring.from_int(Z, 1), ring.from_int(Z6, 1)):
        for mixed in (lambda: a + other, lambda: other * b, lambda: ring_equal(b, other)):
            with pytest.raises(RingMismatchError):
                mixed()


@given(qi_elements(), qi_elements())
def test_conjugation_is_a_homomorphism_and_involution(a, b):
    assert ring_equal(conjugate(conjugate(a)), a)
    assert ring_equal(conjugate(a + b), conjugate(a) + conjugate(b))
    assert ring_equal(conjugate(a * b), conjugate(a) * conjugate(b))


@given(ints, st.integers(min_value=2, max_value=30))
def test_residues_stay_canonical(x, n):
    zn = ring.Zn(n)
    a = ring.from_int(zn, x)
    assert 0 <= a.value < n
    assert ring_equal(a, a + zn.zero)
    # reducing a reduced element is the identity
    assert ring.from_int(zn, a.value).value == a.value


@pytest.mark.parametrize("text,expect", [
    ("3", (Fraction(3), Fraction(0))),
    ("-2", (Fraction(-2), Fraction(0))),
    ("1/2", (Fraction(1, 2), Fraction(0))),
    ("1+i", (Fraction(1), Fraction(1))),
    ("1-2i", (Fraction(1), Fraction(-2))),
    ("2/3-4/5i", (Fraction(2, 3), Fraction(-4, 5))),
    ("i", (Fraction(0), Fraction(1))),
    ("-i", (Fraction(0), Fraction(-1))),
    ("1 + i", (Fraction(1), Fraction(1))),
])
def test_parse_gaussian_literals(text, expect):
    v = ring.parse_literal(QI, text).value
    assert (v.re, v.im) == expect


@given(qi_elements())
def test_literal_round_trip(a):
    assert ring_equal(ring.parse_literal(QI, ring.format_literal(a)), a)


# finite floats, with the zeros of both signs drawn often
signed_floats = st.one_of(st.sampled_from([0.0, -0.0]),
                          st.floats(allow_nan=False, allow_infinity=False))


@given(signed_floats, signed_floats)
def test_complex_label_round_trip(re_part, im_part):
    # render then parse gives back the value exactly, signs of zero included
    c = complex(re_part, im_part)
    t = term.parse(term.render(term.zspider(1, 1, ring.complex_value(CC, c))), CC)
    assert repr(t.label.value) == repr(c)


def test_bad_literals_raise():
    with pytest.raises(ring.RingError):
        ring.parse_literal(Z, "1/2")
    with pytest.raises(ring.RingError):
        ring.parse_literal(Z, "i")
    with pytest.raises(ring.RingError):
        ring.parse_literal(QI, "")
    for text in ("1e400", "-1e400i", "1+1e400i"):  # overflows a float
        with pytest.raises(ring.RingError):
            ring.parse_literal(CC, text)


@pytest.mark.parametrize("r, text", [
    (Z, "\u0661"), (Z, "-\u0663"), (Z6, "\u0662"), (QI, "\u0661/\u0662+\u0663i"),
    (QI, "1/\u0662"), (CC, "\u0661.5"), (CC, "1+\u0662i"), (Z, "\uff11"),
])
def test_literals_of_other_scripts_raise(r, text):
    # int, Fraction and complex read the digits of every script; a literal is ASCII
    with pytest.raises(ring.RingError, match="is not an ASCII literal"):
        ring.parse_literal(r, text)


@pytest.mark.parametrize("r, text, value", [
    (Z, " 1\t", "1"), (Z, "\n-2\r\n", "-2"), (QI, "1 /\t2 +\n3 i", "1/2+3i"),
    (CC, "\t-0.0 +\n1.5i ", "-0.0+1.5i"), (Z6, "\x0b7\x0c", "1"),
])
def test_whitespace_in_a_literal_never_matters(r, text, value):
    assert str(ring.parse_literal(r, text)) == value


@pytest.mark.parametrize("v", [complex("inf"), complex(0, float("-inf")), complex("nan")])
def test_non_finite_complex_has_no_literal(v):
    # the JSON and term writers would emit text that parse_literal rejects
    c = ring.complex_value(CC, v)
    with pytest.raises(ring.RingError):
        ring.format_literal(c)
    with pytest.raises(ring.RingError):
        term.render(term.zspider(1, 1, c))
    with pytest.raises(ring.RingError):
        semantics.to_json_dict(semantics.make_map(CC, 2, 0, 1, {("1", ""): c}))
