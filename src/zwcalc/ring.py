"""Exact commutative-ring arithmetic for diagram labels and amplitudes.

Four coefficient rings are supported:

* ``Z`` -- arbitrary-precision integers,
* ``Zn(n)`` -- integers modulo ``n``, residues kept in ``[0, n)``,
* ``Qi`` -- Gaussian rationals, kept as three ints ``(a + b*i)/den`` in
  lowest terms; Gaussian integers (``den`` = 1) add and multiply as ints,
  and a product with a factor equal to one returns the other factor,
* ``C(tol)`` -- double-precision complex numbers compared up to ``tol``;
  a product by ``1+0j`` is still computed, as it can flip the sign of a
  zero part and turns ``inf`` into ``nan``.

The first three are exact: equality is bit-exact and arithmetic never
rounds.  ``C`` exists for the anyonic qudit checks, whose coefficients
(roots of unity, square roots of q-integers) leave every exact ring we
care to implement.  Values never coerce between rings; mixing raises
:class:`RingMismatchError`.  ``Z()``, ``Zn(n)``, ``Qi()`` and ``C(tol)``
return interned descriptors, so the same-ring check is mostly an ``is``
test, each carrying its own operations on raw values, zero and one, and
the raw zero test that every zero filter uses (``nonzero``).  The
layer joins of both evaluators run on those operations and wrap values as
:class:`RingElement` only in their results; parsers, labels and JSON use
elements, which are checked where they enter.

An element's ``==`` and ``hash`` say when one may stand in for another,
as every cache of labels, tables and chains needs: a ``C`` element by the
text it prints, so ``0.0+1.0i`` and ``-0.0+1.0i``, which the tolerant
``eq`` calls equal but the anyonic tables keep apart, are two elements.

All values are immutable and all operations are pure functions, so
elements can be shared freely between threads.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


INTEGERS = "integers"
INTEGERS_MOD = "integers_mod"
GAUSSIAN_RATIONALS = "gaussian_rationals"
COMPLEX_APPROX = "complex_approx"


class RingError(Exception):
    pass


class RingMismatchError(RingError):
    """Operands drawn from different ring descriptors."""


class UnsupportedOperationError(RingError):
    """Operation not defined for this ring (e.g. conjugation mod n)."""


@dataclass(frozen=True, slots=True, init=False)
class GaussianRational:
    """``(a + b*i)/den`` in ints with ``den > 0`` and ``gcd(a, b, den) = 1``:
    a canonical form, so ``==`` and ``hash`` compare three ints."""

    a: int
    b: int
    den: int

    def __init__(self, re, im=0):
        re, im = Fraction(re), Fraction(im)
        den = math.lcm(re.denominator, im.denominator)
        # each part is in lowest terms, so no prime divides a, b and den
        _set_a(self, re.numerator * (den // re.denominator))
        _set_b(self, im.numerator * (den // im.denominator))
        _set_den(self, den)

    re = property(lambda self: Fraction(self.a, self.den))
    im = property(lambda self: Fraction(self.b, self.den))

    def __bool__(self):  # canonical, so zero is exactly (0, 0, 1)
        return self.a != 0 or self.b != 0 or self.den != 1

    def __str__(self):  # a Gaussian integer formats its ints, with no Fraction
        re, im = (self.a, self.b) if self.den == 1 else (self.re, self.im)
        if im == 0:
            return str(re)
        im_s = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
        return im_s if re == 0 else f"{re}{'+' if im > 0 else ''}{im_s}"


_new = object.__new__
_set_a, _set_b, _set_den = (GaussianRational.a.__set__, GaussianRational.b.__set__,
                            GaussianRational.den.__set__)


def _gr(a: int, b: int, den: int) -> GaussianRational:
    """``(a + b*i)/den`` from parts already in canonical form."""
    g = _new(GaussianRational)
    _set_a(g, a)
    _set_b(g, b)
    _set_den(g, den)
    return g


def _reduced(a: int, b: int, den: int) -> GaussianRational:
    g = math.gcd(a, b, den)
    return _gr(a // g, b // g, den // g)


def _qi_add(x: GaussianRational, y: GaussianRational) -> GaussianRational:
    xd, yd = x.den, y.den
    if xd == 1 and yd == 1:
        return _gr(x.a + y.a, x.b + y.b, 1)
    return _reduced(x.a * yd + y.a * xd, x.b * yd + y.b * xd, xd * yd)


def _qi_mul(x: GaussianRational, y: GaussianRational) -> GaussianRational:
    # values are canonical, so a factor equal to one is exactly (1, 0, 1)
    # and the product is the other factor itself
    if y.a == 1 and y.b == 0 and y.den == 1:
        return x
    if x.a == 1 and x.b == 0 and x.den == 1:
        return y
    xa, xb, ya, yb, den = x.a, x.b, y.a, y.b, x.den * y.den
    a, b = xa * ya - xb * yb, xa * yb + xb * ya
    return _gr(a, b, 1) if den == 1 else _reduced(a, b, den)


@dataclass(frozen=True)
class RingDescriptor:
    """A ring by kind.  ``__post_init__`` also sets its ``name``, its binary
    ``ops`` by name, its ``neg``, ``conj`` (None mod n), ``eq``, ``of_int``
    and ``nonzero`` (``not eq(x, zero)`` for every value, nan included) on
    raw values, its ``zero``, ``one``, hash and ``exact``; none of them enter
    ``==`` or ``hash``, and a copy or pickle is the interned one."""

    kind: str
    modulus: int | None = None
    tolerance: float | None = None

    def __post_init__(self):
        n, tol = self.modulus, self.tolerance
        if self.kind == INTEGERS:
            ops = ("Z", operator.add, operator.sub, operator.mul, operator.neg,
                   lambda x: x, operator.eq, operator.index, bool)
        elif self.kind == INTEGERS_MOD:
            if not isinstance(n, int) or n < 2:
                raise RingError("integers_mod needs a modulus n >= 2")
            ops = (f"Z{n}", lambda x, y: (x + y) % n, lambda x, y: (x - y) % n,
                   lambda x, y: (x * y) % n, lambda x: -x % n, None, operator.eq,
                   lambda k: operator.index(k) % n, bool)
        elif self.kind == GAUSSIAN_RATIONALS:
            ops = ("Qi", _qi_add, lambda x, y: _qi_add(x, _gr(-y.a, -y.b, y.den)), _qi_mul,
                   lambda x: _gr(-x.a, -x.b, x.den), lambda x: _gr(x.a, -x.b, x.den),
                   operator.eq, GaussianRational, bool)
        elif self.kind == COMPLEX_APPROX:
            if tol is None or not tol > 0:
                raise RingError("complex_approx needs a tolerance > 0")
            ops = (f"C(tol={tol:g})", operator.add, operator.sub, operator.mul,
                   operator.neg, complex.conjugate, lambda x, y: abs(x - y) <= tol, complex,
                   lambda x: not abs(x) <= tol)  # nan is not zero
        else:
            raise RingError(f"unknown ring kind {self.kind!r}")
        name, add, sub, mul, *unary = ops
        for attr, v in zip(("name", "ops", "neg", "conj", "eq", "of_int", "nonzero"),
                           (name, {"add": add, "sub": sub, "mul": mul}, *unary)):
            object.__setattr__(self, attr, v)
        object.__setattr__(self, "zero", RingElement(self, self.of_int(0)))
        object.__setattr__(self, "one", RingElement(self, self.of_int(1)))
        object.__setattr__(self, "_hash", hash((self.kind, self.modulus, self.tolerance)))
        object.__setattr__(self, "exact", self.kind != COMPLEX_APPROX)

    def __hash__(self):  # computed once: every table lookup hashes its ring
        return self._hash

    def __reduce__(self):  # the interned descriptor, its hash that of the reading process
        return _interned, (self.kind, self.modulus, self.tolerance)

    def __str__(self):
        return self.name


@lru_cache(maxsize=256)
def _interned(kind: str, modulus: int | None, tolerance: float | None) -> RingDescriptor:
    return RingDescriptor(kind, modulus, tolerance)


def Z() -> RingDescriptor:
    return _interned(INTEGERS, None, None)


def Zn(n: int) -> RingDescriptor:
    return _interned(INTEGERS_MOD, n, None)


def Qi() -> RingDescriptor:
    return _interned(GAUSSIAN_RATIONALS, None, None)


def C(tolerance: float = 1e-9) -> RingDescriptor:
    return _interned(COMPLEX_APPROX, None, tolerance)


@dataclass(frozen=True, slots=True, init=False)
class RingElement:
    ring: RingDescriptor
    value: object  # int | GaussianRational | complex

    def __init__(self, ring: RingDescriptor, value):
        _set_ring(self, ring)  # frozen: write the slots without the checked setattr
        _set_value(self, value)

    def __add__(self, other):
        return ring_arith("add", self, other)

    def __sub__(self, other):
        return ring_arith("sub", self, other)

    def __mul__(self, other):
        return ring_arith("mul", self, other)

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.value))

    def __eq__(self, other):  # a C value by its text: labels that print apart differ
        if type(other) is not RingElement:
            return NotImplemented
        r = self.ring
        return (other.ring is r or other.ring == r) and (
            self.value == other.value if r.exact else str(self) == str(other))

    def __hash__(self):
        return hash((self.ring, self.value if self.ring.exact else str(self)))

    def __str__(self):
        if self.ring.kind == COMPLEX_APPROX:
            v = self.value
            # -0.0 carries its own sign, like every negative part
            sign = "+" if math.copysign(1.0, v.imag) > 0 else ""
            return f"{v.real!r}{sign}{v.imag!r}i"
        return str(self.value)

    def is_zero(self) -> bool:
        return not self.ring.nonzero(self.value)


_set_ring, _set_value = RingElement.ring.__set__, RingElement.value.__set__


def _check_same(a: RingElement, b: RingElement) -> RingDescriptor:
    r = a.ring
    if b.ring is not r and b.ring != r:
        raise RingMismatchError(f"mixed rings {r} and {b.ring}")
    return r


def ring_arith(op: str, a: RingElement, b: RingElement) -> RingElement:
    """``op`` is "add", "sub" or "mul"."""
    r = _check_same(a, b)
    fn = r.ops.get(op)
    if fn is None:
        raise RingError(f"unknown op {op!r}")
    return RingElement(r, fn(a.value, b.value))


def conjugate(a: RingElement) -> RingElement:
    if a.ring.conj is None:
        raise UnsupportedOperationError("no canonical involution chosen mod n")
    v = a.ring.conj(a.value)
    return a if v is a.value else RingElement(a.ring, v)


def ring_equal(a: RingElement, b: RingElement) -> bool:
    return _check_same(a, b).eq(a.value, b.value)


def from_int(ring: RingDescriptor, k: int) -> RingElement:
    return RingElement(ring, ring.of_int(k))


def gaussian(ring: RingDescriptor, re, im=0) -> RingElement:
    if ring.kind != GAUSSIAN_RATIONALS:
        raise RingError("gaussian() builds Qi elements only")
    return RingElement(ring, GaussianRational(re, im))


def complex_value(ring: RingDescriptor, v: complex) -> RingElement:
    if ring.kind != COMPLEX_APPROX:
        raise RingError("complex_value() builds complex_approx elements only")
    return RingElement(ring, complex(v))


_INT_RE = re.compile(r"[+-]?[0-9]+")


def _split_imag(s: str) -> tuple[str, str]:
    """Split 'a+bi' into ('a', 'b'); either part may be empty."""
    if not s.endswith("i"):
        return s, ""
    body = s[:-1]
    # find the sign separating real from imaginary, skipping a leading sign
    # and exponent signs as in 1e-3
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "eE":
            return body[:pos], body[pos:]
    return "", body


def parse_literal(ring: RingDescriptor, text: str) -> RingElement:
    """Parse a ring literal: integers, p/q rationals, p/q+r/s i Gaussians.

    Whitespace is insignificant, and a literal is ASCII: ``int``,
    ``Fraction`` and ``complex`` would read the digits of every script,
    which ``str`` then writes back in ASCII.  The complex ring reads
    decimals and e-notation too, rounded to floats; a part that overflows
    a float is an error, and ``str`` of a complex value reads back to the
    same value, the signs of zero parts included.
    """
    s = "".join(text.split())
    if not s:
        raise RingError("empty ring literal")
    if not s.isascii():
        raise RingError(f"{text!r} is not an ASCII literal")
    if ring.kind in (INTEGERS, INTEGERS_MOD):
        if not _INT_RE.fullmatch(s):
            raise RingError(f"{text!r} is not an integer literal")
        return from_int(ring, int(s))
    re_part, im_part = _split_imag(s)
    exact = ring.kind == GAUSSIAN_RATIONALS
    try:
        a = Fraction(re_part) if re_part else Fraction(0)
        b = Fraction(0) if not s.endswith("i") else (
            Fraction(1) if im_part in ("", "+") else
            Fraction(-1) if im_part == "-" else Fraction(im_part))
        if exact:
            return RingElement(ring, GaussianRational(a, b))
        # complex_approx: a zero part keeps the sign it is written with
        return RingElement(ring, complex(
            *(math.copysign(float(x), -1 if t.startswith("-") else 1)
              for x, t in ((a, re_part), (b, im_part)))))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        kind = "Gaussian rational" if exact else "complex"
        raise RingError(f"bad {kind} literal {text!r}") from exc


def format_literal(a: RingElement) -> str:
    """The literal that parse_literal reads back; non-finite values have none."""
    if a.ring.kind == COMPLEX_APPROX and not cmath.isfinite(a.value):
        raise RingError(f"{a} is not finite and has no literal")
    return str(a)
