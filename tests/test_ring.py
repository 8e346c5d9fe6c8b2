import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from zwcalc import ring, semantics, term
from zwcalc.ring import (
    RingMismatchError,
    UnsupportedOperationError,
    conjugate,
    ring_arith,
    ring_equal,
)

Z = ring.Z()
Z6 = ring.Zn(6)
QI = ring.Qi()
CC = ring.C(1e-9)


def test_additive_inverse_over_Z():
    a = ring.from_int(Z, 3)
    assert ring_equal(ring_arith("add", a, -a), ring.zero(Z))


def test_modular_reduction_forced():
    three = ring.from_int(Z6, 3)
    assert ring_equal(three + three, ring.zero(Z6))
    assert (three + three).value == 0


def test_gaussian_product_of_conjugates():
    a = ring.gaussian(QI, 1, 1)
    b = ring.gaussian(QI, 1, -1)
    assert ring_equal(a * b, ring.from_int(QI, 2))


def test_descriptor_mismatch_is_typed():
    with pytest.raises(RingMismatchError):
        ring_arith("add", ring.from_int(Z, 1), ring.from_int(Z6, 1))


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
    assert ring_equal(tiny, ring.zero(CC))
    assert not ring_equal(ring.from_int(Z, 1), ring.zero(Z))


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
    assert ring_equal(a + ring.zero(Z), a)
    assert ring_equal(a * ring.one(Z), a)


@given(qi_elements(), qi_elements(), qi_elements())
def test_ring_axioms_gaussian(a, b, c):
    assert ring_equal((a * b) * c, a * (b * c))
    assert ring_equal(a + b, b + a)
    assert ring_equal(a * (b + c), a * b + a * c)


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
    assert ring_equal(a, a + ring.zero(zn))
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
    assert repr(t.gen.label.value) == repr(c)


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
