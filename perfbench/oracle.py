"""Known answers computed without zwcalc.

``dense`` reads a term in zwcalc's concrete syntax and evaluates it as a
dense complex matrix at dimension 2, with its own generator tables; the
catalogue's labels are Gaussian integers and small rationals, which
complex doubles hold exactly.  ``bialgebra_error`` checks the anyonic
bialgebra law with square roots of the q-binomials taken on a consistent
branch (the symmetric q-binomial times a quarter power of q), which shows
the law holds at every d.

    (number of outputs, number of inputs) -> matrix shape (2**m, 2**k),
    basis index = the word read as a big-endian binary number
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction

import numpy as np

_TOKEN = re.compile(r"\s*(?:(?P<name>xinv|swap|cup|cap|id|x|w|z|ket)|(?P<num>\d+)"
                    r"|\[(?P<label>[^\]]*)\]|(?P<op>[;*(),]))")


def _tokens(text: str):
    pos, out = 0, []
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read {text[pos:pos + 20]!r}")
        out.append(next((k, v) for k, v in m.groupdict().items() if v is not None))
        pos = m.end()
    return out


def _literal(text: str) -> complex:
    s = text.replace(" ", "")
    if not s.endswith("i"):
        return complex(Fraction(s))
    body = s[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    re_part, im_part = (body[:cut], body[cut:]) if cut > 0 else ("", body)
    im = {"": 1, "+": 1, "-": -1}.get(im_part)
    im = Fraction(im_part) if im is None else im
    return complex(Fraction(re_part) if re_part else 0, im)


def _weight(i: int) -> int:
    return bin(i).count("1")


def _generator(name: str, args: list, label: complex | None) -> np.ndarray:
    if name == "id":
        return np.eye(2, dtype=complex)
    if name in ("swap", "x", "xinv"):
        m = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                sign = -1 if (name != "swap" and a == b == 1) else 1
                m[b * 2 + a, a * 2 + b] = sign
        return m
    if name in ("cup", "cap"):
        v = np.zeros((4, 1), dtype=complex)
        v[0b00, 0] = v[0b11, 0] = 1
        return v if name == "cup" else v.T
    if name == "ket":
        v = np.zeros((2, 1), dtype=complex)
        v[args[0], 0] = 1
        return v
    k, n = args
    m = np.zeros((2 ** n, 2 ** k), dtype=complex)
    if name == "w":
        for u in range(2 ** k):
            for v in range(2 ** n):
                if _weight(u) + _weight(v) == 1:
                    m[v, u] = 1
    else:
        m[0, 0] += 1
        m[2 ** n - 1, 2 ** k - 1] += label
    return m


def dense(text: str) -> np.ndarray:
    """The dense matrix of a d=2 term written in the concrete syntax."""
    toks = _tokens(text)
    pos = 0

    def take(kind=None, value=None):
        nonlocal pos
        k, v = toks[pos]
        if (kind and k != kind) or (value and v != value):
            raise ValueError(f"expected {value or kind}, got {v!r} in {text!r}")
        pos += 1
        return v

    def peek():
        return toks[pos][1] if pos < len(toks) else None

    def atom():
        if peek() == "(":
            take("op", "(")
            m = term()
            take("op", ")")
            return m
        name = take("name")
        args, label = [], None
        if name in ("w", "z", "ket"):
            take("op", "(")
            args.append(int(take("num")))
            while peek() == ",":
                take("op", ",")
                args.append(int(take("num")))
            take("op", ")")
        if name == "z":
            label = _literal(take("label"))
        return _generator(name, args, label)

    def par():
        m = atom()
        while peek() == "*":
            take("op", "*")
            m = np.kron(m, atom())
        return m

    def term():
        m = par()
        while peek() == ";":
            take("op", ";")
            m = par() @ m
        return m

    out = term()
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return out


def dense_equal(a: str, b: str, tol: float = 1e-9) -> bool:
    ma, mb = dense(a), dense(b)
    return ma.shape == mb.shape and bool(np.all(np.abs(ma - mb) <= tol))


def bialgebra_error(d: int) -> float:
    """Largest entry of merge (x) merge . (id (x) x (x) id) . split (x) split
    minus split . merge, with consistent-branch binomial square roots."""
    q = cmath.exp(2j * math.pi / d)

    def sqrt_binom(n, k):
        sym = math.prod(math.sin(math.pi * (n - k + l) / d) / math.sin(math.pi * l / d)
                        for l in range(1, k + 1))
        return cmath.exp(2j * math.pi * k * (n - k) / (4 * d)) * math.sqrt(sym)

    split = np.zeros((d * d, d), dtype=complex)
    for n in range(d):
        for k in range(n + 1):
            split[k * d + (n - k), n] = sqrt_binom(n, k)
    merge = split.T
    cross = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for j in range(d):
            cross[j * d + k, k * d + j] = q ** (j * k)
    eye = np.eye(d)
    lhs = np.kron(merge, merge) @ np.kron(np.kron(eye, cross), eye) @ np.kron(split, split)
    return float(np.max(np.abs(lhs - split @ merge)))
