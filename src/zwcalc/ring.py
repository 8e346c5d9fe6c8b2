"""Exact commutative-ring arithmetic for diagram labels and amplitudes.

Four coefficient rings are supported:

* ``Z`` -- arbitrary-precision integers,
* ``Zn(n)`` -- integers modulo ``n``, residues kept in ``[0, n)``,
* ``Qi`` -- Gaussian rationals ``a + b*i`` with exact ``Fraction`` parts,
* ``C(tol)`` -- double-precision complex numbers compared up to ``tol``.

The first three are exact: equality is bit-exact and arithmetic never
rounds.  ``C`` exists for the anyonic qudit checks, whose coefficients
(roots of unity, square roots of q-integers) leave every exact ring we
care to implement.  Values never coerce between rings; mixing raises
:class:`RingMismatchError`.

All values are immutable and all operations are pure functions, so
elements can be shared freely between threads.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction


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


@dataclass(frozen=True)
class RingDescriptor:
    kind: str
    modulus: int | None = None
    tolerance: float | None = None

    def __post_init__(self):
        if self.kind == INTEGERS_MOD:
            if self.modulus is None or self.modulus < 2:
                raise RingError("integers_mod needs a modulus n >= 2")
        elif self.kind == COMPLEX_APPROX:
            if self.tolerance is None or not self.tolerance > 0:
                raise RingError("complex_approx needs a tolerance > 0")
        elif self.kind not in (INTEGERS, GAUSSIAN_RATIONALS):
            raise RingError(f"unknown ring kind {self.kind!r}")

    @property
    def exact(self) -> bool:
        return self.kind != COMPLEX_APPROX

    def __str__(self):
        if self.kind == INTEGERS:
            return "Z"
        if self.kind == INTEGERS_MOD:
            return f"Z{self.modulus}"
        if self.kind == GAUSSIAN_RATIONALS:
            return "Qi"
        return f"C(tol={self.tolerance:g})"


def Z() -> RingDescriptor:
    return RingDescriptor(INTEGERS)


def Zn(n: int) -> RingDescriptor:
    return RingDescriptor(INTEGERS_MOD, modulus=n)


def Qi() -> RingDescriptor:
    return RingDescriptor(GAUSSIAN_RATIONALS)


def C(tolerance: float = 1e-9) -> RingDescriptor:
    return RingDescriptor(COMPLEX_APPROX, tolerance=tolerance)


@dataclass(frozen=True)
class GaussianRational:
    """a + b*i with exact rational a, b (Fraction keeps lowest terms)."""

    re: Fraction
    im: Fraction

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        im = "i" if self.im == 1 else "-i" if self.im == -1 else f"{self.im}i"
        if self.re == 0:
            return im
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{im}"


@dataclass(frozen=True)
class RingElement:
    ring: RingDescriptor
    value: object  # int | GaussianRational | complex

    def __add__(self, other):
        return ring_arith("add", self, other)

    def __sub__(self, other):
        return ring_arith("sub", self, other)

    def __mul__(self, other):
        return ring_arith("mul", self, other)

    def __neg__(self):
        r = self.ring
        if r.kind == INTEGERS:
            return RingElement(r, -self.value)
        if r.kind == INTEGERS_MOD:
            return RingElement(r, (-self.value) % r.modulus)
        if r.kind == GAUSSIAN_RATIONALS:
            v = self.value
            return RingElement(r, GaussianRational(-v.re, -v.im))
        return RingElement(r, -self.value)

    def __str__(self):
        if self.ring.kind == COMPLEX_APPROX:
            v = self.value
            # -0.0 carries its own sign, like every negative part
            sign = "+" if math.copysign(1.0, v.imag) > 0 else ""
            return f"{v.real!r}{sign}{v.imag!r}i"
        return str(self.value)

    def is_zero(self) -> bool:
        return ring_equal(self, zero(self.ring))


def _check_same(a: RingElement, b: RingElement) -> RingDescriptor:
    if a.ring != b.ring:
        raise RingMismatchError(f"mixed rings {a.ring} and {b.ring}")
    return a.ring


def ring_arith(op: str, a: RingElement, b: RingElement) -> RingElement:
    r = _check_same(a, b)
    if op == "neg":
        return -a
    if op == "sub":
        return ring_arith("add", a, -b)
    if op not in ("add", "mul"):
        raise RingError(f"unknown op {op!r}")
    x, y = a.value, b.value
    if r.kind == INTEGERS:
        return RingElement(r, x + y if op == "add" else x * y)
    if r.kind == INTEGERS_MOD:
        v = x + y if op == "add" else x * y
        return RingElement(r, v % r.modulus)
    if r.kind == GAUSSIAN_RATIONALS:
        if op == "add":
            return RingElement(r, GaussianRational(x.re + y.re, x.im + y.im))
        return RingElement(
            r,
            GaussianRational(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re),
        )
    return RingElement(r, x + y if op == "add" else x * y)


def conjugate(a: RingElement) -> RingElement:
    r = a.ring
    if r.kind == INTEGERS:
        return a
    if r.kind == GAUSSIAN_RATIONALS:
        return RingElement(r, GaussianRational(a.value.re, -a.value.im))
    if r.kind == COMPLEX_APPROX:
        return RingElement(r, a.value.conjugate())
    raise UnsupportedOperationError("no canonical involution chosen mod n")


def ring_equal(a: RingElement, b: RingElement, desc: RingDescriptor | None = None) -> bool:
    r = _check_same(a, b)
    if desc is not None and desc != r:
        raise RingMismatchError(f"elements of {r} compared under {desc}")
    if r.kind == COMPLEX_APPROX:
        return abs(a.value - b.value) <= r.tolerance
    return a.value == b.value


def zero(ring: RingDescriptor) -> RingElement:
    return from_int(ring, 0)


def one(ring: RingDescriptor) -> RingElement:
    return from_int(ring, 1)


def from_int(ring: RingDescriptor, k: int) -> RingElement:
    if ring.kind == INTEGERS:
        return RingElement(ring, k)
    if ring.kind == INTEGERS_MOD:
        return RingElement(ring, k % ring.modulus)
    if ring.kind == GAUSSIAN_RATIONALS:
        return RingElement(ring, GaussianRational(Fraction(k), Fraction(0)))
    return RingElement(ring, complex(k))


def gaussian(ring: RingDescriptor, re, im=0) -> RingElement:
    if ring.kind != GAUSSIAN_RATIONALS:
        raise RingError("gaussian() builds Qi elements only")
    return RingElement(ring, GaussianRational(Fraction(re), Fraction(im)))


def complex_value(ring: RingDescriptor, v: complex) -> RingElement:
    if ring.kind != COMPLEX_APPROX:
        raise RingError("complex_value() builds complex_approx elements only")
    return RingElement(ring, complex(v))


_INT_RE = re.compile(r"[+-]?\d+")


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

    Spaces are insignificant.  The complex ring reads decimals and
    e-notation too, rounded to floats; a part that overflows a float is
    an error, and ``str`` of a complex value reads back to the same value,
    the signs of zero parts included.
    """
    s = text.replace(" ", "")
    if not s:
        raise RingError("empty ring literal")
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
