"""Anyonic generalisation to d-level systems, with q-arithmetic.

Everything here is driven by ``q = exp(2 pi i / d)``, a primitive d-th
root of unity.  The deformed integers ``[n] = 1 + q + ... + q^(n-1)``
vanish at ``n = d``, which truncates the particle ladder to d levels.
Words spell one level per character, so d runs from 2 to 10.  q is
primitive by construction, so :class:`QParams` checks only its inputs:
d in 2..10 and a tolerance in ``0 < T < |q - 1|``.

:func:`generator_entries` is the one generator table of ``interpret``, for
every ring; over C it holds the anyonic generators, with levels ``j, k, n``
in ``0 .. d-1``:

* crossing  ``x: |k>|j> -> q^(jk) |j>|k>``, and ``xinv`` its inverse;
* split     ``w(1,2): |n> -> sum_k binom(n, k)_q^(1/2) |k>|n-k>``, merge
  ``w(2,1)`` its transpose, wider W spiders split/merge trees;
* Z spider  ``z(k,m)[u]`` scales level l by ``sqrt([l]!)^(k+m-2) u^l``.

Binomial roots take the branch of the symmetric q-binomial (Kassel,
*Quantum Groups*), ``q^(k(n-k)/4) sqrt(prod_{l=1..k} sin(pi(n-k+l)/d) /
sin(pi l/d))``, so that products of roots along a tree stay consistent
at every d; it equals the principal root for d <= 6.  ``sqrt([n]!)``
takes the principal branch.

:func:`law_terms` gives the bialgebra law ``(w(1,2) * w(1,2)) ; (id * x
* id) ; (w(2,1) * w(2,1)) = w(2,1) ; w(1,2)`` and the Hopf law ``w(1,2) ;
(antipode * id) ; w(2,1) = bra(0) ; ket(0)`` as term pairs, which the
checks interpret and compare entrywise.  The commutation law ``a a+ = 1
+ q a+ a``, with ``a+ = (ket(1) * id) ; w(2,1)`` and ``a`` its transpose,
has a sum on one side, so :func:`law_terms` gives its two products and
the check compares interpreted maps.  Scalar
identities over level triples (the q-Vandermonde identity, and the
binomial identity behind the bialgebra law) are compared as maps on the
words ``njk``.  Every check hands its two maps to
:func:`zwcalc.rules.check_maps` and returns its :class:`~zwcalc.rules.RuleReport`
(``params`` is ``d=N``), numeric within the tolerance carried by
:class:`QParams`.

With d = 2 the split/merge pair specialises to the familiar qubit
beam-splitter comonoid and its transpose.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import ring as _ring
from .ring import RingDescriptor
from . import term as _term
from .term import ArityError, Generator, Term
from .semantics import SparseMap, interpret, make_map
from .normalform import NormalForm, _below, canonical_diagram, trusted_nf
from .rules import RuleReport, check_maps


class QuditError(Exception):
    pass


@dataclass(frozen=True)
class QParams:
    d: int
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.d < 2:
            raise QuditError("dimension must be >= 2")
        if self.d > 10:
            raise QuditError(f"dimension {self.d} > 10: words spell one level per character")
        gap = abs(self.q - 1)  # no other power q^k, 0 < k < d, lies nearer to 1
        if not 0 < self.tolerance < gap:
            raise QuditError(f"tolerance {self.tolerance} not in 0 < T < |q - 1| = {gap:.6g}")

    @cached_property
    def q(self) -> complex:
        """Computed once per instance; not a field, so ``==`` and ``hash``
        still read ``d`` and ``tolerance`` only."""
        return cmath.exp(2j * cmath.pi / self.d)

    def ring(self) -> RingDescriptor:
        return _ring.C(self.tolerance)


def q_int(n: int, p: QParams) -> complex:
    return sum(p.q ** k for k in range(n))


def q_factorial(n: int, p: QParams) -> complex:
    return math.prod((q_int(k, p) for k in range(1, n + 1)), start=1 + 0j)


def q_binom(n: int, k: int, p: QParams) -> complex:
    """Product form binom(n, k) = prod_l [n-k+l]/[l]; safe wherever the
    denominator q-integers are nonzero (always for k below the order of q)."""
    if k < 0 or k > n:
        raise QuditError(f"binomial index k={k} outside 0..{n}")
    return math.prod((q_int(n - k + l, p) / q_int(l, p) for l in range(1, k + 1)),
                     start=1 + 0j)


class QBinomialTable(NamedTuple):
    """For levels below d: the q-binomials, their square roots and the
    roots of the q-factorials."""

    binomials: list
    sqrt_binomials: list
    sqrt_factorials: list


def _sqrt_binom(d: int, n: int, k: int) -> complex:
    """The symmetric-branch root of binom(n, k)_q; every sine is positive
    because n < d."""
    ratio = math.prod(math.sin(math.pi * (n - k + l) / d) / math.sin(math.pi * l / d)
                      for l in range(1, k + 1))
    return cmath.exp(2j * math.pi * k * (n - k) / (4 * d)) * math.sqrt(ratio)


@lru_cache(maxsize=16)  # bounded, as law_terms is: a table depends on d, a key also on tolerance
def binomial_table(p: QParams) -> QBinomialTable:
    d = p.d
    return QBinomialTable(
        binomials=[[q_binom(n, k, p) for k in range(n + 1)] for n in range(d)],
        sqrt_binomials=[[_sqrt_binom(d, n, k) for k in range(n + 1)] for n in range(d)],
        sqrt_factorials=[cmath.sqrt(q_factorial(n, p)) for n in range(d)],
    )


def _vandermonde_sides(p: QParams, n: int, j: int, k: int) -> tuple[complex, complex]:
    b = binomial_table(p).binomials
    rhs = sum(p.q ** ((j - i) * (k - i)) * b[j][i] * b[n - j][k - i]
              for i in range(k + 1) if i <= j and k - i <= n - j)
    return b[n][k], rhs


def check_q_vandermonde(p: QParams, n: int, j: int, k: int) -> bool:
    """binom(n,k) = sum_i q^((j-i)(k-i)) binom(j,i) binom(n-j,k-i),
    evaluated numerically on both sides."""
    if not (0 <= j <= n and 0 <= k <= n and n < p.d):
        raise QuditError("need j, k <= n < d")
    lhs, rhs = _vandermonde_sides(p, n, j, k)
    return abs(lhs - rhs) <= p.tolerance


def _bounded_words(length: int, max_sum: int, d: int) -> list[tuple[str, int]]:
    """All digit words of the given length with digit sum <= max_sum, with
    their sums, in lexicographic order: built one leg at a time."""
    words = [("", 0)]
    for _ in range(length):
        words = [(w + str(c), s + c)
                 for w, s in words for c in range(min(d - 1, max_sum - s) + 1)]
    return words


def _tree_coeff(word: str, p: QParams) -> complex:
    """Coefficient of a split/merge tree leg pattern: the product of
    binomial square roots along the partial sums."""
    sq = binomial_table(p).sqrt_binomials
    total = 0
    coeff = 1 + 0j
    for ch in word:
        lvl = int(ch)
        total += lvl
        if total >= p.d:
            return 0j
        coeff *= sq[total][lvl]
    return coeff


def generator_entries(g: Generator, ring: RingDescriptor, d: int) -> dict:
    """The entries of a generator over ``ring`` at dimension ``d``: the one
    table ``interpret`` reads, through :func:`zwcalc.semantics.generator_map`,
    which checks the label's ring and takes the arity from ``g``.

    ``id, swap, cup, cap`` are the wire maps on the d levels, ``ket(l)``
    is |l>.  Over exact rings, at d = 2: ``x`` sends |b1 b2> to
    (-1)^(b1 b2) |b2 b1>, ``w(k, m)`` has entry 1 on each (output, input)
    pair of total weight 1, and ``z(k, m)[r]`` entry 1 on the all-zero
    pair and r on the all-one pair.  Over C, the anyonic generators:
    ``w(k, m)`` with ``k >= 1`` merges k wires and splits the result m
    ways, ``w(0, m)`` is the m-fold split of the one-particle state, and
    ``z(k, m)[u]`` has entry ``c_l^(k+m-2) u^l`` on level l, with
    ``c_l = sqrt([l]!)``.
    """
    one = ring.one
    kind, k, m = g.kind, g.n_in, g.n_out
    levels = "0123456789"[:d]
    if kind == "id":
        return {(a, a): one for a in levels}
    if kind == "swap":
        return {(b + a, a + b): one for a in levels for b in levels}
    if kind == "cup":
        return {(a + a, ""): one for a in levels}
    if kind == "cap":
        return {("", a + a): one for a in levels}
    if kind == "ket":
        if g.level >= d:
            raise ArityError(f"ket({g.level}) out of range for d={d}")
        return {(str(g.level), ""): one}
    if ring.exact:
        if kind in ("x", "xinv"):
            return {(b2 + b1, b1 + b2): -one if b1 == b2 == "1" else one
                    for b1 in "01" for b2 in "01"}
        if kind == "w":
            words = ("0" * pos + "1" + "0" * (k + m - 1 - pos) for pos in range(k + m))
            return {(word[k:], word[:k]): one for word in words}
        ent = {("0" * m, "0" * k): one}
        if not _ring.ring_equal(g.label, ring.zero):
            ent["1" * m, "1" * k] = g.label
        return ent
    p = QParams(d, tolerance=ring.tolerance)
    if kind in ("x", "xinv"):
        q = p.q if kind == "x" else p.q.conjugate()
        return {(f"{j}{i}", f"{i}{j}"): _ring.complex_value(ring, q ** (j * i))
                for i in range(d) for j in range(d)}
    if kind == "w":
        if k == 0:  # the m one-hot words; a zero leg weighs binom(n, 0) = 1
            v = _ring.complex_value(ring, _tree_coeff("1", p))
            return {("0" * (m - 1 - i) + "1" + "0" * i, ""): v for i in range(m)}
        outs: dict[int, list[tuple[str, complex]]] = {}  # output words by digit sum
        for out_w, s in _bounded_words(m, d - 1, d):
            outs.setdefault(s, []).append((out_w, _tree_coeff(out_w, p)))
        ent = {}
        for in_w, s in _bounded_words(k, d - 1, d):
            a = _tree_coeff(in_w, p)
            if abs(a) <= p.tolerance:
                continue
            for out_w, b in outs.get(s, ()):
                v = a * b
                if abs(v) > p.tolerance:
                    ent[(out_w, in_w)] = _ring.complex_value(ring, v)
        return ent
    lam = complex(g.label.value)
    c = binomial_table(p).sqrt_factorials
    ent = {}
    for l in range(d):
        try:
            v = c[l] ** (k + m - 2) * lam ** l
        except OverflowError:
            v = math.inf
        # a power that overflows may also come out as nan, which no tolerance test catches
        if not cmath.isfinite(v):
            raise QuditError(f"z({k},{m})[{g.label}] overflows at level {l}")
        if abs(v) > p.tolerance:
            ent[(str(l) * m, str(l) * k)] = _ring.complex_value(ring, v)
    return ent


def antipode_term(d: int) -> Term:
    """The antipode as a diagram: the strand crosses a split-off copy of
    the top level, which is then merged back and post-selected."""
    side = _term.ket(d - 1) >> _term.wspider(1, 2)
    t = _term.ID @ side
    t = t >> (_term.X @ _term.ID)
    t = t >> (_term.ID @ _term.wspider(2, 1))
    return t >> (_term.ID @ _term.bra(d - 1))


# ---------------------------------------------------------------------------
# law checks


@lru_cache(maxsize=16)
def law_terms(d: int) -> Mapping[str, tuple[Term, Term]]:
    """The laws at dimension d, by report name, as term pairs; see the
    module docstring.  The bialgebra and Hopf pairs are (lhs, rhs); the
    commutation pair is ``(a a+, a+ a)``, whose law ``a a+ = 1 + q a+ a``
    has a sum on one side.  They are built once per d and shared
    read-only, as the gadgets are, so every check of a law folds its
    terms from the plans that their first fold keeps."""
    split, merge, wire = _term.wspider(1, 2), _term.wspider(2, 1), _term.ID
    create = (_term.ket(1) @ wire) >> merge
    annihilate = split >> (_term.bra(1) @ wire)
    return MappingProxyType({
        "bialgebra": (
            _term.seq_all([split @ split, wire @ _term.X @ wire, merge @ merge]),
            merge >> split),
        "antipode-hopf": (
            _term.seq_all([split, antipode_term(d) @ wire, merge]),
            _term.bra(0) >> _term.ket(0)),
        "commutation": (create >> annihilate, annihilate >> create),
    })


def _identity_report(name: str, p: QParams, sides) -> RuleReport:
    """Check a scalar identity, ``sides(n, j, k) = (lhs, rhs)`` for every
    n < d and j, k <= n, as two maps on the words ``njk`` (values kept
    unrounded, zeros included)."""
    ring = p.ring()
    values = {f"{n}{j}{k}": sides(n, j, k)
              for n in range(p.d) for j in range(n + 1) for k in range(n + 1)}
    lhs, rhs = (SparseMap(ring, p.d, 0, 3, {
        (w, ""): _ring.complex_value(ring, v[side]) for w, v in values.items()})
        for side in (0, 1))
    return check_maps(name, f"d={p.d}", lhs, rhs)


def check_bialgebra(p: QParams) -> RuleReport:
    """Split and merge satisfy the bialgebra square with the crossing as
    braiding; also re-checks the underlying binomial identity directly,
    which must hold too and whose error counts in ``max_error``."""
    d, q = p.d, p.q
    sq = binomial_table(p).sqrt_binomials

    def sides(n, j, k):
        return sq[n][j] * sq[n][k], sum(
            q ** ((k - i) * (j - i))
            * sq[j][i] * sq[n - j][k - i] * sq[k][i] * sq[n - k][j - i]
            for i in range(k + 1)
            if i <= j and k - i <= n - j and j - i <= n - k)

    coefficients = _identity_report("bialgebra", p, sides)
    lhs, rhs = law_terms(d)["bialgebra"]
    law = check_maps("bialgebra", f"d={d}", interpret(lhs, p.ring(), d),
                     interpret(rhs, p.ring(), d))
    return replace(law, passed=law.passed and coefficients.passed,
                   witness=law.witness or coefficients.witness,
                   max_error=max(coefficients.max_error, law.max_error))


def check_vandermonde(p: QParams) -> RuleReport:
    """:func:`check_q_vandermonde` for every n < d and j, k <= n, in one
    report."""
    return _identity_report("q-vandermonde", p,
                            lambda n, j, k: _vandermonde_sides(p, n, j, k))


def check_commutation(p: QParams) -> RuleReport:
    """a a+ = 1 + q a+ a at the deformation q, for the creation map
    a+ = (ket(1) * id) ; w(2,1) and its transpose a, from :func:`law_terms`."""
    d, ring = p.d, p.ring()
    lowered, raised = law_terms(d)["commutation"]
    q = _ring.complex_value(ring, p.q)
    rhs = {(str(n), str(n)): ring.one for n in range(d)}
    for key, v in interpret(raised, ring, d).entries.items():
        rhs[key] = rhs.get(key, ring.zero) + q * v
    return check_maps("commutation", f"d={d}", interpret(lowered, ring, d),
                      make_map(ring, d, 1, 1, rhs))


def check_antipode(p: QParams) -> RuleReport:
    """The antipode closes the Hopf loop: merge (t x id) split = unit counit."""
    lhs, rhs = law_terms(p.d)["antipode-hopf"]
    return check_maps("antipode-hopf", f"d={p.d}", interpret(lhs, p.ring(), p.d),
                      interpret(rhs, p.ring(), p.d))


def qudit_universal_nf(state: SparseMap, p: QParams) -> tuple[Term, NormalForm]:
    """Rebuild a state as the canonical diagram: a one-particle source
    split between labelled white nodes, each wired to the outputs with
    one wire per level, everything merged at the top.

    Merging k parallel particles yields sqrt([k]!) |k> up to the branch
    of the square root, so the label of row i is its amplitude divided
    by the merge tree's actual coefficient for each leg bundle (the
    product of binomial roots, which may differ from the principal
    sqrt([k_ij]!) by a sign once its argument wraps past pi), computed
    once per bundle size.  The rows come sorted, distinct and above the
    tolerance, so the normal form takes them as they are.
    """
    if state.n_in != 0:
        raise ArityError("universal construction takes a state")
    if state.d != p.d or state.ring.exact:
        raise QuditError("state must live over the complex ring at dimension d")
    ring = p.ring()
    n = state.n_out
    rows = [(a, w) for (w, _), v in sorted(state.entries.items())
            if abs(a := complex(v.value)) > p.tolerance]
    if not rows:
        absorbing = _term.ket(1) >> _term.wspider(1, 0)
        t = _term.par_all([absorbing] + [_term.ket(0)] * n)
        return t, NormalForm(p.d, n, ())
    bottom = _term.ket(1) >> _term.wspider(1, len(rows))
    roots = {}  # k -> the merge tree's coefficient for k parallel particles
    whites, fan_in = [], [0] * n
    for amp, word in rows:
        fan = 0
        for j, ch in enumerate(word):
            if ch != "0":
                k = int(ch)
                if k not in roots:
                    roots[k] = _tree_coeff("1" * k, p)
                amp /= roots[k]
                fan += k
                fan_in[j] += k
        whites.append(_term.zspider(1, fan, _ring.complex_value(ring, amp)))
    merges = [_term.wspider(k, 1) if k else _term.ket(0) for k in fan_in]
    t = canonical_diagram(bottom, whites, [w for _, w in rows], merges)
    return t, trusted_nf(p.d, n, [(a, w) for a, w in rows if _below(w, p.d)], ring)
