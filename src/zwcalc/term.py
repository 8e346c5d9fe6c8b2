"""Diagrams as terms: generators, sequential and parallel composition.

A term is a tree whose leaves are generators and whose internal nodes are
``Seq`` (plug outputs into inputs) and ``Par`` (side by side).  A
generator is itself a term, the one-node diagram of :class:`Generator`,
so tables, plans and chain keys hold the leaves themselves.  Arities
are checked at construction; ``Seq(f, g)`` requires ``f.n_out == g.n_in``.

Terms are immutable, so leaves are shared: the wire generators, the kets,
the W spiders and the Z spiders (one per equal label; see :mod:`zwcalc.ring`)
are built once, through one cache, and reused by the builders, ``parse``,
copies, pickles and ``adjoint`` alike.  So are the composite gadgets
(``w_comonoid``, ``w_monoid``, ``twist``, ``bra``) and the crossing
networks of :func:`crossing_perm` up to ``SHARED_NETWORK_WIRES`` wires:
one term per argument.
``>>`` is sequential and ``@`` parallel composition, so snake-like
composites read the way they are drawn:

>>> snake = (ID @ CUP) >> (CAP @ ID)
>>> snake.n_in, snake.n_out
(1, 1)

The concrete syntax (see :func:`parse` / :func:`render`) uses ``;`` for
``>>`` and ``*`` for ``@``: the snake above is ``(id * cup) ; (cap * id)``.
``*`` binds tighter than ``;``, both associate to the left, and brackets
nest to any depth.  No function here recurses, so ``parse`` (one pass),
``render``, ``adjoint``, ``==`` (one walk over both terms), ``hash``,
``repr``, copies, pickles and :func:`fold` take terms of any depth and width.

:func:`fold`, the one walk both pillars share, walks a term object once:
its first fold keeps a plan in a slot of the term's root node while the
term lives, and later folds run from it.  A plan holds structure only
(which leaf or nested chain each block is, where wiring layers cross),
never a value; a small nested chain is a leaf there, known by its key,
so each pillar keeps its value beside its generator tables.  A fold
builds values bottom-up: every leaf first, then each larger nested chain
after the chains it reads, and the term's own chain last.  ``==``,
``hash``, ``repr``, copies and pickles ignore the plan, and two threads
that plan one term at once build equal plans.

Generators
----------

``id, swap, cup, cap, x, xinv`` are the wire leaves ``ID`` to ``XINV``;
``x`` is the phased crossing, which at dimension 2 equals its own inverse.
``wspider(k, m)`` is the W spider ``w(k, m)`` (all transposes of one
state), ``zspider(k, m, r)`` the Z spider ``z(k, m)[r]`` with a label from
the coefficient ring, and ``ket(l)`` the level-``l`` basis state.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache, reduce
from itertools import islice

from . import ring as _ring
from .ring import RingDescriptor, RingElement


class ArityError(Exception):
    pass


class ParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message, self.position = message, position


GENERATOR_KINDS = ("id", "swap", "cup", "cap", "x", "xinv", "w", "z", "ket")

_FIXED_ARITY = {
    "id": (1, 1),
    "swap": (2, 2),
    "cup": (0, 2),
    "cap": (2, 0),
    "x": (2, 2),
    "xinv": (2, 2),
}
# the leaves that only move wires: a layer of them is joined in a run by fold
_WIRING = frozenset(("id", "swap", "x", "xinv"))


class Term:
    """Base class; subclasses are Generator, Seq and Par."""

    # Term, its leaves and its nodes are slotted: the rule catalogue holds about ten
    # thousand, an instance dict would double each, and _plan is fold's plan (see fold)
    __slots__ = ("n_in", "n_out", "_plan")

    def __rshift__(self, other: "Term") -> "Term":
        return seq(self, other)

    def __matmul__(self, other: "Term") -> "Term":
        return par(self, other)

    # structural ==, leaves by their fields: one walk over both trees, to the first difference
    def __eq__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        todo = [self, other]  # the pairs of nodes still to compare, flat
        while todo:
            b, a = todo.pop(), todo.pop()
            if a is b:  # a subtree the two share
                continue
            kind = type(a)
            if kind is not type(b) or kind is Generator and a.__reduce__() != b.__reduce__():
                return False
            if kind is Seq:
                todo += (a.then, b.then, a.first, b.first)
            elif kind is Par:
                todo += (a.right, b.right, a.left, b.left)
        return True

    def __hash__(self):  # of the pre-order node list, which takes no recursion
        return hash(tuple(_preorder(self)))

    def __repr__(self):  # the text of the iterative render
        try:
            return f"{type(self).__name__}({render(self)!r})"
        except (ValueError, _ring.RingError):  # EMPTY inside, or a non-finite label
            return f"<{type(self).__name__} {self.n_in} -> {self.n_out}>"

    def __reduce__(self):  # copies rebuild the pre-order list: no recursion, no stored arities
        return _assembled, (_preorder(self),)

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Generator(Term):
    """A generator, which is a leaf: compared by its fields, with its arities
    in ``Term``'s slots and its hash stored, as the pillars' tables read it."""

    __slots__ = ("kind", "label", "level", "_hash")

    def __init__(self, kind: str, n_in: int, n_out: int,
                 label: RingElement | None = None, level: int | None = None):
        if kind not in GENERATOR_KINDS:
            raise ArityError(f"unknown generator kind {kind!r}")
        if kind in _FIXED_ARITY and (n_in, n_out) != _FIXED_ARITY[kind]:
            raise ArityError(f"{kind} has arity {_FIXED_ARITY[kind]}")
        if kind in ("w", "z"):
            if n_in < 0 or n_out < 0 or n_in + n_out < 1:
                raise ArityError(f"{kind} spider needs n_in + n_out >= 1")
            if n_in + n_out >= sys.maxsize:  # no table or word could index its wires
                raise ArityError(f"{kind} spider needs n_in + n_out < {sys.maxsize}")
        if kind == "z" and label is None:
            raise ArityError("z spider needs a label")
        if kind == "ket":
            if (n_in, n_out) != (0, 1):
                raise ArityError("ket has arity (0, 1)")
            if level is None or level < 0:
                raise ArityError("ket needs a level >= 0")
        fields = kind, n_in, n_out, label, level
        for name, value in zip(("kind", "n_in", "n_out", "label", "level"), fields):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # the builders' leaf, whose hash is the reading process's
        return _shared_leaf, (self.kind, self.n_in, self.n_out, self.label, self.level)


# Seq and Par are built by the thousand per crossing network, so they write
# their slots through the slot descriptors, as ring.RingElement does
@dataclass(frozen=True, eq=False, repr=False, slots=True, init=False)
class Seq(Term):
    first: Term
    then: Term

    def __init__(self, first: Term, then: Term):
        if first.n_out != then.n_in:
            raise ArityError(f"cannot plug {first.n_out} outputs into {then.n_in} inputs")
        _set_first(self, first)
        _set_then(self, then)
        # arities are stored, not derived, so that deeply nested terms
        # never recurse on attribute access
        _set_n_in(self, first.n_in)
        _set_n_out(self, then.n_out)


@dataclass(frozen=True, eq=False, repr=False, slots=True, init=False)
class Par(Term):
    left: Term
    right: Term

    def __init__(self, left: Term, right: Term):
        _set_left(self, left)
        _set_right(self, right)
        _set_n_in(self, left.n_in + right.n_in)
        _set_n_out(self, left.n_out + right.n_out)


_set_first, _set_then, _set_left, _set_right = (
    Seq.first.__set__, Seq.then.__set__, Par.left.__set__, Par.right.__set__)
_set_n_in, _set_n_out, _set_plan = Term.n_in.__set__, Term.n_out.__set__, Term._plan.__set__
_new = object.__new__  # a node with unset slots, which _par_chain writes
seq, par = Seq, Par  # >> and @ as functions
for _node in (Seq, Par):  # their generated setters name the class slots=True replaced
    del _node.__setattr__, _node.__delattr__


# the wire generators are shared leaves, as terms are immutable
_WIRES = {kind: Generator(kind, *arity) for kind, arity in _FIXED_ARITY.items()}


ID, SWAP, CUP, CAP, X, XINV = (_WIRES[k] for k in ("id", "swap", "cup", "cap", "x", "xinv"))


@lru_cache(maxsize=8192)
def _shared_leaf(kind: str, n_in: int, n_out: int, label, level) -> Generator:
    """The one leaf of these fields, shared by the builders, ``parse``,
    copies, pickles and ``adjoint``.  Every caller passes all five fields
    by position, as the cache keys ``f(a, b)`` and ``f(a, b, None, None)``
    apart."""
    wire = _WIRES.get(kind)
    return Generator(kind, n_in, n_out, label, level) if wire is None else wire


def wspider(k: int, m: int) -> Generator:
    return _shared_leaf("w", k, m, None, None)


def zspider(k: int, m: int, label: RingElement) -> Generator:
    return _shared_leaf("z", k, m, label, None)


def ket(level: int) -> Generator:
    """The basis state |level>; ``interpret`` and ``normalize`` check the
    level against their dimension."""
    return _shared_leaf("ket", 0, 1, None, level)


def identity(n: int) -> Term:
    """n parallel wires; n = 0 is the empty diagram (scalar 1)."""
    return _par_chain([ID] * n) if n > 0 else EMPTY


@dataclass(frozen=True)
class _Empty(Term):
    """The 0-wire diagram, unit of parallel composition."""

    n_in = n_out = 0


EMPTY = _Empty()


def par_all(terms) -> Term:
    """The left-deep ``*`` chain of ``terms`` with each ``EMPTY`` left out,
    as ``reduce(par, ...)`` would build it, or ``EMPTY``; built by
    :func:`_par_chain`, so no ``Par.__init__`` frame runs per node."""
    terms = [t for t in terms if not isinstance(t, _Empty)]
    return _par_chain(terms) if terms else EMPTY


def _par_chain(blocks: list) -> Term:
    """The left-deep ``*`` chain of ``blocks``, a non-empty list of terms:
    ``reduce(par, blocks)``, node for node.  Each node is made bare and its
    slots written through the setters, its arities as running sums, so no
    ``Par.__init__`` frame runs per node, which would cost more than the
    node's four slots.  ``par_all``, ``identity``, the rounds of a crossing
    network and each ``*`` layer that ``parse`` reads are built here."""
    it = iter(blocks)
    acc = next(it)
    n_in, n_out = acc.n_in, acc.n_out
    for b in it:
        node = _new(Par)
        _set_left(node, acc)
        _set_right(node, b)
        n_in += b.n_in
        n_out += b.n_out
        _set_n_in(node, n_in)
        _set_n_out(node, n_out)
        acc = node
    return acc


def seq_all(terms) -> Term:
    return reduce(seq, terms)


# the most nodes of a nested chain that fold hands to its leaf function by its key
CHAIN_KEY_NODES = 32
# the most wires of a crossing network that crossing_perm shares between its callers
SHARED_NETWORK_WIRES = 16


def fold(t: Term, leaf, layer, run):
    """Fold ``t`` bottom-up along its chains, in two flat passes:
    ``leaf(source)`` is the value of a leaf, ``layer(acc, values)`` joins
    the values of a layer's blocks onto the value ``acc`` of the chain
    below it (None at the first layer), and a chain's value is its last
    ``acc``.  A bare generator is a one-layer chain.

    A leaf's source is the generator leaf itself, or the key of a small
    nested chain (a ``;`` chain that is one block of a ``*`` layer, of at
    most ``CHAIN_KEY_NODES`` nodes, with no nested chain in its layers):
    its pre-order node list as a tuple (:func:`_chain_key`), which holds
    the chain's leaves and which :func:`_assembled` builds back into an
    equal chain.  A caller
    may so keep the values of small chains, such as the merge gadget
    ``w(k,1) ; w(1,1)`` of every canonical diagram, across calls, as it
    keeps its generators'.  Any other nested chain is joined here.

    Wiring layers (every block an ``id``, ``swap``, ``x`` or ``xinv``
    leaf) that follow each other on a value ``acc`` form a run, which
    only moves wires and is joined in one call, ``run(acc, layers)``.
    ``layers`` yields the run's layers in order, one at a time, each as
    the list of its crossings left to right: ``(p, leaf value)`` crosses
    the wires at positions p and p + 1, and an ``id`` leaf holds its wire
    in place.  ``run`` returns the joined value, or None, after reading
    any part of ``layers``, to have the run joined layer by layer.
    ``layer`` joins a run of one layer, which has nothing to collapse,
    and a chain's opening layer, which has no value below it.

    The first pass looks every leaf up, in slot order: ``leaf`` runs once
    per distinct leaf object in ``t``, small nested chains included.  The
    second joins each distinct laid-out nested chain object once, after
    the chains it reads, and ``t``'s own chain last: blocks that share a
    chain reuse its value.  These values belong to the call.

    The first fold of ``t`` walks it into a plan (:func:`_planned`) kept on
    ``t``'s root node while ``t`` lives; every fold of ``t`` runs from it,
    whatever its callbacks, and it holds no values.  A block that is not a
    term raises ArityError as the plan is built, before any callback, and
    no plan is kept.  Two threads may both plan one new term; they build
    equal plans, so either may stay."""
    try:
        layers, sources, order = t._plan
    except AttributeError:  # the first fold of t, or not a term
        layers, sources, order = _planned(t)
    # by slot: each leaf's value, then each laid-out chain's, once joined
    vals = [None if type(source) is list else leaf(source) for source in sources]
    for s in order:
        vals[s] = _joined(sources[s], vals, layer, run)
    return _joined(layers, vals, layer, run)


def _joined(layers: list, vals: list, layer, run):
    """The value of the chain of ``layers`` for :func:`fold`, whose blocks'
    values are all in ``vals``: its layers in order, each wiring run as one."""
    acc, pending = None, []
    for step in layers:
        slots, crossings = step
        if crossings is not None:
            pending.append(step)
            continue
        if pending:
            acc, pending = _run(acc, pending, vals, run, layer), []
        acc = layer(acc, [vals[slots]] if type(slots) is int else [vals[s] for s in slots])
    return _run(acc, pending, vals, run, layer) if pending else acc


def _planned(t: Term) -> tuple:
    """The plan :func:`fold` runs for ``t``, built on explicit stacks and
    kept on ``t``: ``(layers, sources, order)``.  ``layers`` are the
    layers of ``t``'s chain in order; ``sources``, by slot, each distinct
    generator leaf, the :func:`_chain_key` of each distinct small nested
    chain, or the list of layers of each distinct larger one;
    and ``order`` the slots of the larger ones, each after the laid-out
    chains it reads (a post-order).  A layer is ``(slots, crossings)``:
    its blocks' slots (an int for a lone block, packed past 16) and, for a
    layer that can join a wiring run, its crossings as their left wires'
    positions and their slots."""
    # slot_of: id(block) -> its slot; width: by slot, the wires of a wiring leaf, else 0
    slot_of, sources, width, row = {}, [], [], []
    reads = {}  # by the slot of each chain laid out (None for t's): the laid-out chains it reads
    todo = [(t, None)]  # the chains to lay out, each with its slot; it grows
    for node, own in todo:
        layers, spine, below = [], [node], []
        while spine:
            u = spine.pop()
            while type(u) is Seq:
                spine.append(u.then)
                u = u.first
            row.append(u)
            slots = []
            # an opening layer has no value for a run to move
            pos, wiring, positions, crossed = 0, bool(layers), [], []
            while row:  # the layer's blocks left to right
                b = row.pop()
                while type(b) is Par:
                    row.append(b.right)
                    b = b.left
                s = slot_of.get(id(b))
                if s is None:
                    s = len(sources)
                    if type(b) is Generator:
                        sources.append(b)
                        width.append(b.n_in if b.kind in _WIRING else 0)
                    elif type(b) is Seq:  # a leaf by its key, or laid out once todo reaches it
                        key = _chain_key(b)
                        sources.append(key)
                        width.append(0)
                        if key is None:
                            todo.append((b, s))
                    elif type(b) is _Empty:
                        continue
                    else:
                        raise ArityError(f"not a term: {b!r}")
                    slot_of[id(b)] = s
                if type(b) is Seq and type(sources[s]) is not tuple:  # a chain laid out
                    below.append(s)
                slots.append(s)
                if wiring:
                    w = width[s]
                    if w == 2:
                        positions.append(pos)
                        crossed.append(s)
                    wiring, pos = w > 0, pos + w
            if len(slots) > 16:  # a wide layer, as in a crossing network
                slots = _packed(slots, len(sources))
            if len(crossed) > 16:
                positions, crossed = _packed(positions, pos), _packed(crossed, len(sources))
            layers.append((slots[0] if len(slots) == 1 else slots,
                           (positions, crossed) if wiring else None))
        reads[own] = below
        if own is None:
            top = layers
        else:
            sources[own] = layers
    order, seen, stack = [], set(), reads[None][::-1]
    while stack:  # depth first from t's chain, left to right; at ~s, s's reads are out
        s = stack.pop()
        if s < 0:
            order.append(~s)
        elif s not in seen:
            seen.add(s)
            stack += (~s, *reads[s][::-1])
    plan = top, sources, order
    _set_plan(t, plan)
    return plan


def _packed(numbers: list, bound: int):
    """``numbers``, each below ``bound``, as bytes where they fit, else as 32-bit ints."""
    return bytes(numbers) if bound <= 256 else array("I", numbers)


def _chain_key(t: Seq) -> tuple | None:
    """The :func:`_preorder` list of the nested chain ``t``, leaves and all, as
    a tuple, which is the chain itself, if it has at most ``CHAIN_KEY_NODES``
    nodes and its layers hold no nested chain; else None, found at the first
    node that breaks one of these.  A block that is not a term raises
    ArityError.  The walk never enters a nested chain, so deep terms stay linear."""
    out, stack = [Seq], [t.then, t.first]
    while stack:
        if len(out) == CHAIN_KEY_NODES:
            return None
        u = stack.pop()
        kind = type(u)
        if kind is Par:
            if type(u.left) is Seq or type(u.right) is Seq:
                return None
            out.append(Par)
            stack += (u.right, u.left)
        elif kind is Seq:
            out.append(Seq)
            stack += (u.then, u.first)
        elif kind is Generator:
            out.append(u)
        elif kind is _Empty:
            out.append(None)
        else:
            raise ArityError(f"not a term: {u!r}")
    return tuple(out)


def _run(acc, pending: list, vals: list, run, layer):
    """The run of wiring layers ``pending``, as their plans, joined onto
    ``acc`` for :func:`fold`; a layer's crossings are built as ``run`` reads it."""
    if len(pending) > 1:
        joined = run(acc, ([(p, vals[s]) for p, s in zip(*crossings)]
                           for _, crossings in pending))
        if joined is not None:
            return joined
    for slots, _ in pending:
        acc = layer(acc, [vals[slots]] if type(slots) is int else [vals[s] for s in slots])
    return acc


def _preorder(t: Term) -> list:
    """Nodes in pre-order, ``Seq``/``Par`` nodes as their class, generator
    leaves as themselves and ``EMPTY`` as None: the list is the tree."""
    out, stack = [], [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Seq):
            out.append(Seq)
            stack += [u.then, u.first]
        elif isinstance(u, Par):
            out.append(Par)
            stack += [u.right, u.left]
        else:
            out.append(u if type(u) is Generator else None)
    return out


# ---------------------------------------------------------------------------
# composite gadgets used throughout the calculus: one shared term per
# argument, as the leaves are, so a fold joins every copy of one once and
# builders do not rebuild them


def negate() -> Term:
    """The binary W node on a wire: |0><1| + |1><0|."""
    return wspider(1, 1)


@lru_cache(maxsize=4096)
def w_comonoid(m: int) -> Term:
    """Copy-like comonoid branch 1 -> m: |0> to |0..0>, |1> to the m-fold
    sum of one-hot words."""
    return seq(negate(), wspider(1, m))


@lru_cache(maxsize=4096)
def w_monoid(n: int) -> Term:
    """Transpose of :func:`w_comonoid`: merges n wires into one."""
    return seq(wspider(n, 1), negate())


@lru_cache(maxsize=1)
def twist() -> Term:
    """Self-crossing kink, interpreted as |0><0| - |1><1|."""
    return seq_all([ID @ CUP, X @ ID, ID @ CAP])


@lru_cache(maxsize=256)
def bra(level: int) -> Term:
    """Effect <level| as a term: pair the wire with ket(level) and cap."""
    return seq(ID @ ket(level), CAP)


def crossing_perm(perm) -> Term:
    """Wiring of ``x`` crossings that sends wire i to position perm[i].

    Odd-even transposition rounds (Habermann, 1972): round r crosses the
    adjacent pairs (i, i + 1) with i = r mod 2 whose targets are out of
    order, and each round with a crossing is one parallel layer, so there
    are at most n layers.  Every crossing removes one inversion, so the
    word is reduced: one crossing per inversion, and by Matsumoto's
    theorem and the Reidemeister III move it denotes the same map as any
    other reduced word for ``perm``, at every dimension.

    So a permutation has one network, and one of at most
    ``SHARED_NETWORK_WIRES`` wires is built once and shared, as the other
    gadgets are: equal permutations, as lists or tuples, give the same
    object, and the least recently used of the 256 kept is dropped first.
    A wider network is built on every call, so nothing keeps it alive.  A
    non-permutation raises ArityError on every call.
    """
    perm = tuple(perm)
    try:  # an unhashable entry is no permutation, which _network reports
        return _shared_network(perm) if len(perm) <= SHARED_NETWORK_WIRES else _network(perm)
    except TypeError:
        return _network(perm)


@lru_cache(maxsize=256)
def _shared_network(perm: tuple) -> Term:
    return _network(perm)


def _network(perm: tuple) -> Term:
    """The network of :func:`crossing_perm`, built.  A round with a
    crossing is the :func:`_par_chain` of its row of the shared leaves
    ``X`` and ``ID``.  The rounds are chained by ``;`` at the end: a chain
    grown round by round is reachable only through its top, which doubles
    the cyclic collector's time on wide networks."""
    n = len(perm)
    done = list(range(n))
    try:
        permutes = sorted(perm) == done
    except TypeError:  # entries that do not compare: no permutation
        permutes = False
    if not permutes:
        raise ArityError(f"{list(perm)!r} is not a permutation")
    cur = list(perm)  # cur[i]: target of the wire now at position i
    layers = []
    for r in range(n):
        if cur == done:  # the remaining rounds cross nothing
            break
        row, at = [], 0  # the round's blocks so far, and the wires they hold
        for i in range(r % 2, n - 1, 2):
            if cur[i] > cur[i + 1]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                row += [ID] * (i - at)
                row.append(X)
                at = i + 2
        if row:
            layers.append(_par_chain(row + [ID] * (n - at)))
    return seq_all(layers) if layers else identity(n)


_MIRROR = {"cup": "cap", "cap": "cup", "x": "xinv", "xinv": "x"}  # id and swap are their own


def adjoint(t: Term) -> Term:
    """Vertical reflection: reverse sequential order, swap cups with caps
    and spider arities, conjugate the labels.  At dimension 2 this
    interprets as the dagger of the original term; at higher dimensions
    the spiders reflect to their transposes instead.

    The tree is mirrored, ``Seq(f, g)`` to ``Seq(g†, f†)``, bottom-up
    along the reversed pre-order."""
    return _assembled(_preorder(t), mirror=True)


def _assembled(nodes: list, mirror: bool = False) -> Term:
    """The term of a :func:`_preorder` list and, with ``mirror``, each leaf
    reflected and each ``Seq`` reversed: built bottom-up along its reverse."""
    done: list[Term] = []
    for u in reversed(nodes):
        if u is Seq or u is Par:
            a, b = done.pop(), done.pop()  # the first and second child
            done.append(Par(a, b) if u is Par else Seq(b, a) if mirror else Seq(a, b))
        else:
            done.append(EMPTY if u is None else _reflect(u) if mirror else u)
    return done[0]


def _reflect(g: Generator) -> Term:
    if g.kind == "ket":
        return bra(g.level)  # the matching effect
    label = None if g.label is None else _ring.conjugate(g.label)
    return _shared_leaf(_MIRROR.get(g.kind, g.kind), g.n_out, g.n_in, label, None)


# ---------------------------------------------------------------------------
# concrete syntax


def render(t: Term) -> str:
    """Inverse of :func:`parse`: ``parse(render(t)) == t`` structurally.

    ``*`` binds tighter than ``;`` and both associate to the left, so an
    operand is bracketed only when it is a ``;`` on the right of a ``;``,
    a ``;`` on either side of a ``*``, or a ``*`` on the right of a ``*``.
    Text and operands wait on one stack, the leftmost on top."""
    out, todo = [], [t]
    while todo:  # exact type tests, which cost less than isinstance on this hot path
        u = todo.pop()
        if type(u) is str:
            out.append(u)
        elif type(u) is Generator:
            out.append(_atom(u))
        elif type(u) is Seq:
            todo += [")", u.then, " ; ("] if type(u.then) is Seq else [u.then, " ; "]
            todo.append(u.first)
        elif type(u) is Par:
            todo += [")", u.right, " * ("] if type(u.right) in (Seq, Par) else [u.right, " * "]
            todo += [")", u.left, "("] if type(u.left) is Seq else [u.left]
        else:
            raise ValueError("the empty diagram has no concrete syntax")
    return "".join(out)


def _atom(g: Generator) -> str:
    if g.kind in _FIXED_ARITY:
        return g.kind
    if g.kind == "w":
        return f"w({g.n_in},{g.n_out})"
    if g.kind == "z":
        return f"z({g.n_in},{g.n_out})[{_ring.format_literal(g.label)}]"
    return f"ket({g.level})"


# A generator token read into its parameters, once per distinct token text
# in a call: a spider, a labelled spider or a ket, or a bare word.  Digits
# are ASCII, as the grammar says; \d would take those of every script.
_LEAF = re.compile(r"""
    w\s*\(\s*(?P<wk>[0-9]+)\s*,\s*(?P<wm>[0-9]+)\s*\)
  | z\s*\(\s*(?P<zk>[0-9]+)\s*,\s*(?P<zm>[0-9]+)\s*\)\s*\[\s*(?P<label>[^\]]*)\]
  | ket\s*\(\s*(?P<level>[0-9]+)\s*\)
  | (?P<word>[^\W\d_]*)
""", re.VERBOSE)

# One token, after optional whitespace: an operator or bracket, or a
# generator token of _LEAF's grammar, whose groups do not capture here.  A
# bare word is empty at the end of the text and before a character no
# token starts with.  The token is the one group, so findall yields it
# as a string, with no match object.
_TOKEN = re.compile(r"\s*([;*()]|" + re.sub(r"\(\?P<\w+>", "(?:", _LEAF.pattern) + ")",
                    re.VERBOSE)

# parse tokenizes a slice of at least this many characters at a time, so
# the list of one slice's tokens is live, not the whole text's
_SLICE_CHARS = 1 << 13

_SHAPES = {"w": "w(k,m)", "z": "z(k,m)[label]", "ket": "ket(level)"}


def _generator(token: str, ring: RingDescriptor) -> Term:
    """The generator ``token`` names, or the ParseError for a token that
    cannot start a term, its position counted from the token's start."""
    m = _LEAF.fullmatch(token)
    if m is None:  # an operator or a bracket
        raise ParseError("expected a term", 0)
    try:
        if m["wk"] is not None:
            return wspider(int(m["wk"]), int(m["wm"]))
        if m["zk"] is not None:
            return zspider(int(m["zk"]), int(m["zm"]), _ring.parse_literal(ring, m["label"]))
        if m["level"] is not None:
            return ket(int(m["level"]))
    except ArityError as exc:
        raise ParseError(str(exc), 0) from None
    except _ring.RingError as exc:
        raise ParseError(str(exc), m.start("label")) from None
    word = m["word"]
    if word in _FIXED_ARITY:
        return _WIRES[word]
    if word in _SHAPES:
        raise ParseError(f"expected {_SHAPES[word]}", 0)
    raise ParseError(f"expected a generator, got {word!r}" if word else "expected a term", 0)


def _cut(text: str, start: int, end: int) -> int:
    """Where :func:`parse`'s slice of ``text`` from ``start`` ends: just
    after the first ``;`` at least ``_SLICE_CHARS`` on that no label holds,
    so no token crosses the cut, or at ``end``.  A label ends at the first
    ``]``, so a ``;`` after the last ``[`` and no ``]`` since may be in one."""
    cut = text.find(";", start + _SLICE_CHARS, end)
    while cut >= 0 and text.rfind("[", start, cut) > text.rfind("]", start, cut):
        close = text.find("]", cut, end)
        cut = text.find(";", close, end) if close >= 0 else -1
    return cut + 1 if cut >= 0 else end


def _token_start(text: str, index: int) -> int:
    """Where the token numbered ``index`` from 0 starts in ``text``, found
    again for an error by a scan of match objects up to it."""
    return next(islice(_TOKEN.finditer(text), index, None)).start(1)


def parse(text: str, ring: RingDescriptor = _ring.Qi()) -> Term:
    """Parse the term grammar; labels are read as literals of ``ring``
    (Gaussian rationals by default).

    One pass over the tokens keeps, per open bracket, the ``;`` chain so
    far and the blocks of the ``*`` chain after it.  A ``;``, a ``)`` or
    the end joins the two, and reports an arity error at that token.

    The tokens come from ``findall``, as strings, a slice of the text at a
    time (:func:`_cut`).  A generator token is read into its leaf by
    ``_LEAF`` the first time its text appears in the call, and each later
    time found in a table by its text.  A ``*`` chain is built when it
    ends, by :func:`_par_chain`, so no ``Par.__init__`` frame runs per
    node.  A token that raises is found again by :func:`_token_start`,
    which gives the error its position."""
    leaves = dict(_WIRES)  # token text -> its leaf, within this call
    frames = []  # per enclosing bracket: its ; chain and the blocks of its * chain
    chain, blocks = None, []  # the innermost bracket's ; chain and * chain blocks
    operand = True  # a term must start at the next token
    # the text's last token, an empty word, is here; findall over trailing
    # whitespace would yield two, the whitespace's match and an empty one
    end = len(text.rstrip())
    start = read = 0  # where the slice starts, and the tokens read before it
    while True:
        cut = _cut(text, start, end)
        tokens = _TOKEN.findall(text, start, cut)
        if cut < end:  # the empty word at the cut, which the next slice reads on from
            tokens.pop()
        last = read + len(tokens) - 1 if cut == end else -1  # the number of the last token
        for i, tok in enumerate(tokens, read):  # the last token returns or raises
            if operand:
                u = leaves.get(tok)
                if u is None:
                    if tok == "(":
                        frames.append((chain, blocks))
                        chain, blocks = None, []
                        continue
                    try:
                        u = leaves[tok] = _generator(tok, ring)
                    except ParseError as exc:
                        raise ParseError(exc.message,
                                         _token_start(text, i) + exc.position) from None
                blocks.append(u)
                operand = False
            elif tok == "*":
                operand = True
            else:
                layer = blocks[0] if len(blocks) == 1 else _par_chain(blocks)
                if chain is not None:
                    try:
                        layer = Seq(chain, layer)
                    except ArityError as exc:
                        raise ParseError(str(exc), _token_start(text, i)) from None
                if tok == ";":
                    chain, blocks, operand = layer, [], True
                elif tok == ")" and frames:
                    chain, blocks = frames.pop()
                    blocks.append(layer)
                elif frames or i != last:
                    raise ParseError("expected ')'" if frames else "trailing input",
                                     _token_start(text, i))
                else:
                    return layer
        read += len(tokens)
        start = cut
