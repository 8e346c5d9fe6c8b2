"""Diagrams as terms: generators, sequential and parallel composition.

A term is a tree whose leaves are generators and whose internal nodes are
``Seq`` (plug outputs into inputs) and ``Par`` (side by side).  Arities
are checked at construction; ``Seq(f, g)`` requires ``f.n_out == g.n_in``.

Terms are immutable.  ``>>`` is sequential and ``@`` parallel
composition, so snake-like composites read the way they are drawn:

>>> snake = (ID @ CUP) >> (CAP @ ID)
>>> snake.n_in, snake.n_out
(1, 1)

The concrete syntax (see :func:`parse` / :func:`render`) uses ``;`` for
``>>`` and ``*`` for ``@``: the snake above is ``(id * cup) ; (cap * id)``.

Generators
----------

``id, swap, cup, cap, x, xinv`` are the wire generators; ``x`` is the
phased crossing, which at dimension 2 equals its own inverse.  ``w(k, m)``
is the W spider with ``k`` inputs and ``m`` outputs (all transposes of the
same state), ``z(k, m)[r]`` the Z spider with label ``r`` drawn from the
coefficient ring, and ``ket(l)`` the level-``l`` basis state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from . import ring as _ring
from .ring import RingDescriptor, RingElement


class ArityError(Exception):
    pass


class ParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


GENERATOR_KINDS = ("id", "swap", "cup", "cap", "x", "xinv", "w", "z", "ket")

_FIXED_ARITY = {
    "id": (1, 1),
    "swap": (2, 2),
    "cup": (0, 2),
    "cap": (2, 0),
    "x": (2, 2),
    "xinv": (2, 2),
}


@dataclass(frozen=True)
class Generator:
    kind: str
    n_in: int
    n_out: int
    label: RingElement | None = None
    level: int | None = None

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ArityError(f"unknown generator kind {self.kind!r}")
        if self.kind in _FIXED_ARITY and (self.n_in, self.n_out) != _FIXED_ARITY[self.kind]:
            raise ArityError(f"{self.kind} has arity {_FIXED_ARITY[self.kind]}")
        if self.kind in ("w", "z"):
            if self.n_in < 0 or self.n_out < 0 or self.n_in + self.n_out < 1:
                raise ArityError(f"{self.kind} spider needs n_in + n_out >= 1")
        if self.kind == "z" and self.label is None:
            raise ArityError("z spider needs a label")
        if self.kind == "ket":
            if (self.n_in, self.n_out) != (0, 1):
                raise ArityError("ket has arity (0, 1)")
            if self.level is None or self.level < 0:
                raise ArityError("ket needs a level >= 0")


class Term:
    """Base class; subclasses are Gen, Seq and Par."""

    n_in: int
    n_out: int

    def __rshift__(self, other: "Term") -> "Term":
        return seq(self, other)

    def __matmul__(self, other: "Term") -> "Term":
        return par(self, other)


@dataclass(frozen=True)
class Gen(Term):
    gen: Generator

    @property
    def n_in(self):
        return self.gen.n_in

    @property
    def n_out(self):
        return self.gen.n_out


@dataclass(frozen=True)
class Seq(Term):
    first: Term
    then: Term

    def __post_init__(self):
        if self.first.n_out != self.then.n_in:
            raise ArityError(
                f"cannot plug {self.first.n_out} outputs into "
                f"{self.then.n_in} inputs")
        # arities are stored, not derived, so that deeply nested terms
        # never recurse on attribute access
        self.__dict__["n_in"] = self.first.n_in
        self.__dict__["n_out"] = self.then.n_out


@dataclass(frozen=True)
class Par(Term):
    left: Term
    right: Term

    def __post_init__(self):
        self.__dict__["n_in"] = self.left.n_in + self.right.n_in
        self.__dict__["n_out"] = self.left.n_out + self.right.n_out


def seq(f: Term, g: Term) -> Term:
    return Seq(f, g)


def par(f: Term, g: Term) -> Term:
    return Par(f, g)


def make_generator(kind: str, params: tuple = (), d: int = 2) -> Term:
    """Build a generator leaf; params per kind, d only bounds ket levels."""
    if kind in _FIXED_ARITY:
        return Gen(Generator(kind, *_FIXED_ARITY[kind]))
    if kind == "w":
        k, m = params
        return Gen(Generator("w", k, m))
    if kind == "z":
        k, m, label = params
        return Gen(Generator("z", k, m, label=label))
    if kind == "ket":
        (level,) = params
        if not 0 <= level < d:
            raise ArityError(f"ket level {level} out of range for d={d}")
        return Gen(Generator("ket", 0, 1, level=level))
    raise ArityError(f"unknown generator kind {kind!r}")


ID = make_generator("id")
SWAP = make_generator("swap")
CUP = make_generator("cup")
CAP = make_generator("cap")
X = make_generator("x")
XINV = make_generator("xinv")


def wspider(k: int, m: int) -> Term:
    return make_generator("w", (k, m))


def zspider(k: int, m: int, label: RingElement) -> Term:
    return make_generator("z", (k, m, label))


def ket(level: int, d: int = 2) -> Term:
    return make_generator("ket", (level,), d=d)


def identity(n: int) -> Term:
    """n parallel wires; n = 0 is the empty diagram (scalar 1)."""
    if n == 0:
        return EMPTY
    return reduce(par, [ID] * n)


@dataclass(frozen=True)
class _Empty(Term):
    """The 0-wire diagram, unit of parallel composition."""

    @property
    def n_in(self):
        return 0

    @property
    def n_out(self):
        return 0


EMPTY = _Empty()


def par_all(terms) -> Term:
    terms = [t for t in terms if not isinstance(t, _Empty)]
    if not terms:
        return EMPTY
    return reduce(par, terms)


def seq_all(terms) -> Term:
    return reduce(seq, terms)


def seq_factors(t: Term) -> list[Term]:
    """Flatten nested sequential composition into its factors, in order,
    without recursing (composition chains can be arbitrarily long)."""
    out: list[Term] = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Seq):
            stack.append(u.then)
            stack.append(u.first)
        else:
            out.append(u)
    return out


def par_factors(t: Term) -> list[Term]:
    """Flatten nested parallel composition into its side-by-side blocks."""
    out: list[Term] = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Par):
            stack.append(u.left)
            stack.append(u.right)
        elif not isinstance(u, _Empty):
            out.append(u)
    return out[::-1]


# ---------------------------------------------------------------------------
# composite gadgets used throughout the calculus


def negate() -> Term:
    """The binary W node on a wire: |0><1| + |1><0|."""
    return wspider(1, 1)


def w_comonoid(m: int) -> Term:
    """Copy-like comonoid branch 1 -> m: |0> to |0..0>, |1> to the m-fold
    sum of one-hot words."""
    return seq(negate(), wspider(1, m))


def w_monoid(n: int) -> Term:
    """Transpose of :func:`w_comonoid`: merges n wires into one."""
    return seq(wspider(n, 1), negate())


def twist() -> Term:
    """Self-crossing kink, interpreted as |0><0| - |1><1|."""
    return seq_all([ID @ CUP, X @ ID, ID @ CAP])


def bra(level: int, d: int = 2) -> Term:
    """Effect <level| as a term: pair the wire with ket(level) and cap."""
    return seq(ID @ ket(level, d), CAP)


def crossing_perm(perm) -> Term:
    """Wiring of ``x`` crossings that sends wire i to position perm[i].

    Odd-even transposition rounds (Habermann, 1972): round r crosses the
    adjacent pairs (i, i + 1) with i = r mod 2 whose targets are out of
    order, and each round with a crossing is one parallel layer, so there
    are at most n layers.  Every crossing removes one inversion, so the
    word is reduced: one crossing per inversion, and by Matsumoto's
    theorem and the Reidemeister III move it denotes the same map as any
    other reduced word for ``perm``, at every dimension.
    """
    n = len(perm)
    done = list(range(n))
    if sorted(perm) != done:
        raise ArityError(f"{perm!r} is not a permutation")
    cur = list(perm)  # cur[i]: target of the wire now at position i
    layers = []
    for r in range(n):
        if cur == done:  # the remaining rounds cross nothing
            break
        row, i = [], 0
        while i < n:
            if i % 2 == r % 2 and i + 1 < n and cur[i] > cur[i + 1]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                row.append(X)
                i += 2
            else:
                row.append(ID)
                i += 1
        if X in row:
            layers.append(par_all(row))
    if not layers:
        return identity(n)
    return seq_all(layers)


def adjoint(t: Term) -> Term:
    """Vertical reflection: reverse sequential order, swap cups with caps
    and spider arities, conjugate the labels.  At dimension 2 this
    interprets as the dagger of the original term; at higher dimensions
    the spiders reflect to their transposes instead."""
    if isinstance(t, _Empty):
        return t
    if isinstance(t, Seq):
        return seq_all([adjoint(f) for f in reversed(seq_factors(t))])
    if isinstance(t, Par):
        # walk the left spine iteratively: rows can be wide
        tail = []
        while isinstance(t, Par):
            tail.append(t.right)
            t = t.left
        return reduce(Par, [adjoint(u) for u in reversed(tail)], adjoint(t))
    g = t.gen
    if g.kind in ("id", "swap"):
        return t
    if g.kind == "cup":
        return CAP
    if g.kind == "cap":
        return CUP
    if g.kind == "x":
        return XINV
    if g.kind == "xinv":
        return X
    if g.kind == "w":
        return wspider(g.n_out, g.n_in)
    if g.kind == "z":
        return zspider(g.n_out, g.n_in, _ring.conjugate(g.label))
    return bra(g.level, g.level + 1)  # ket reflects to the matching effect


def transpose_output(t: Term, k: int) -> Term:
    """Bend output k of t into a new first input using a cap.

    The new input is prepended (index 0); output k disappears.  Routing to
    the cap uses plain swaps, which do not change the interpretation.
    """
    if not 0 <= k < t.n_out:
        raise ArityError(f"output index {k} out of range for {t.n_out} outputs")
    n = t.n_out
    body = ID @ t  # wires: [new input] + outputs
    for i in range(k):
        body = body >> par_all([identity(i), SWAP, identity(n - 1 - i)])
    return body >> par_all([identity(k), CAP, identity(n - 1 - k)])


# ---------------------------------------------------------------------------
# concrete syntax


def render(t: Term) -> str:
    """Inverse of :func:`parse`: ``parse(render(t)) == t`` structurally."""

    def atom(u: Term) -> str:
        if isinstance(u, _Empty):
            raise ValueError("the empty diagram has no concrete syntax")
        if isinstance(u, Gen):
            g = u.gen
            if g.kind in _FIXED_ARITY:
                return g.kind
            if g.kind == "w":
                return f"w({g.n_in},{g.n_out})"
            if g.kind == "z":
                return f"z({g.n_in},{g.n_out})[{_ring.format_literal(g.label)}]"
            return f"ket({g.level})"
        return f"({go(u)})"

    def par_level(u: Term) -> str:
        tail = []
        while isinstance(u, Par):
            tail.append(u.right)
            u = u.left
        return " * ".join([atom(u)] + [atom(p) for p in reversed(tail)])

    def go(u: Term) -> str:
        # walk the left spines iteratively: chains and rows can be long
        tail = []
        while isinstance(u, Seq):
            tail.append(u.then)
            u = u.first
        return " ; ".join([par_level(u)] + [par_level(p) for p in reversed(tail)])

    return go(t)


class _Parser:
    def __init__(self, text: str, ring: RingDescriptor):
        self.text = text
        self.ring = ring
        self.pos = 0

    def error(self, msg: str):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a number")
        return int(self.text[start:self.pos])

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]

    def term(self) -> Term:
        t = self.par()
        while self.peek() == ";":
            self.pos += 1
            rhs = self.par()
            try:
                t = Seq(t, rhs)
            except ArityError as exc:
                self.error(str(exc))
        return t

    def par(self) -> Term:
        t = self.atom()
        while self.peek() == "*":
            self.pos += 1
            t = Par(t, self.atom())
        return t

    def atom(self) -> Term:
        if self.peek() == "(":
            self.pos += 1
            t = self.term()
            self.expect(")")
            return t
        start = self.pos
        name = self.word()
        if name in _FIXED_ARITY:
            return make_generator(name)
        if name in ("w", "z"):
            self.expect("(")
            k = self.nat()
            self.expect(",")
            m = self.nat()
            self.expect(")")
            if name == "w":
                try:
                    return wspider(k, m)
                except ArityError as exc:
                    self.pos = start
                    self.error(str(exc))
            self.expect("[")
            self.skip_ws()
            close = self.text.find("]", self.pos)
            if close < 0:
                self.error("unterminated label")
            lit = self.text[self.pos:close]
            try:
                label = _ring.parse_literal(self.ring, lit)
            except _ring.RingError as exc:
                self.error(str(exc))
            self.pos = close + 1
            try:
                return zspider(k, m, label)
            except ArityError as exc:
                self.pos = start
                self.error(str(exc))
        if name == "ket":
            self.expect("(")
            level = self.nat()
            self.expect(")")
            return Gen(Generator("ket", 0, 1, level=level))
        self.pos = start
        self.error(f"expected a generator, got {name!r}" if name else "expected a term")


def parse(text: str, ring: RingDescriptor | None = None) -> Term:
    """Parse the term grammar; labels are read as literals of ``ring``
    (Gaussian rationals by default)."""
    ring = _ring.Qi() if ring is None else ring
    p = _Parser(text, ring)
    t = p.term()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return t
