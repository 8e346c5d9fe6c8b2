"""Interpretation of terms as sparse linear maps.

A term with ``k`` inputs and ``m`` outputs denotes a linear map between
tensor powers of the d-dimensional generator object.  We store it as a
mapping from ``(output word, input word)`` pairs to nonzero coefficients,
with words written over the digits ``0 .. d-1``.  A term is folded as a
``;`` chain of ``*`` layers, from the plan its first fold keeps on it
(:func:`zwcalc.term.fold`), and one join composes it: the running map
meets each layer block by block, contracting over the middle word, and
a block's output word is concatenated on and its coefficient multiplied
in.  A layer of one block (not counting ``id`` blocks over an exact
ring, where a product by one keeps every value) is met in one pass,
with the same products and sums in the same order, so C keeps its
values bit for bit.  The first layer has nothing below it, so its
input words are concatenated too.  Nothing is densified, so states stay
small on any number of wires.

Exact rings interpret at dimension 2 and the approximate complex ring at
any d in 2..10, each with its calculus in the one generator table,
:func:`zwcalc.qudit.generator_entries`.  :func:`generator_map` checks d,
builds each generator's table once per ``(generator, ring, d)``, keyed
by the leaf itself (a :class:`zwcalc.term.Generator` compares by its
fields), and every equal leaf shares it read-only, with its raw values
(ints, Gaussian rationals, complex numbers) indexed for the join.  The join multiplies
raw values with the ring's own operations; a result holds ring elements
and skips the arity check, as the join's words fit.

A run of wiring layers (``id``, ``x``, ``xinv`` and ``swap`` leaves
only) on a map is joined in one step, as the fold hands it over.  Over
the exact rings one walk over its crossings multiplies each table value
other than one (the "11" entry of ``x``) into its pair of wires' product,
and each output word takes the products of its pairs and is permuted
once.  Over C each word walks the crossings in order, taking the factor
its two letters read from each crossing's table and swapping them, which
gives the layer joins' values bit for bit (:func:`_apply_run_in_order`).

A small nested chain, such as the merge gadget ``w(k,1) ; w(1,1)``, is a
leaf of the fold, known by its key (see :func:`zwcalc.term.fold`), and
its map is kept beside the generator tables: :func:`_chain_map` joins
the chain once per ``(key, ring, d)`` from the generator tables alone,
at most 1024 of them, over every ring.  C labels that differ only in the
sign of a zero part are two elements (:mod:`zwcalc.ring`): two keys, two tables.

Maps are immutable once built, and so are the raw values the tables
share; evaluation is pure.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from types import MappingProxyType
from typing import Mapping

from . import ring as _ring
from .ring import RingDescriptor, RingElement, UnsupportedOperationError
from . import term as _term
from .term import ArityError, Generator, Term

Word = str
Key = tuple[Word, Word]  # (output word, input word)


@dataclass(frozen=True)
class SparseMap:
    ring: RingDescriptor
    d: int
    n_in: int
    n_out: int
    entries: Mapping[Key, RingElement] = field(default_factory=dict)

    def __post_init__(self):
        for (out_w, in_w) in self.entries:
            if len(out_w) != self.n_out or len(in_w) != self.n_in:
                raise ArityError(
                    f"entry ({out_w!r}, {in_w!r}) does not fit arity "
                    f"({self.n_in}, {self.n_out})")

    def is_zero(self) -> bool:
        return not self.entries

    @cached_property
    def _raw(self) -> _RawMap:
        """Raw values, their index and a crossing's signs, kept with the map
        (not a field)."""
        entries = {k: v.value for k, v in self.entries.items()}
        index = _by_input(entries)
        return _raw_map((self.n_in, self.n_out, entries, index,
                         _swap_signs(index, self.ring, self.d)))

    def scalar(self) -> RingElement:
        """The value of a (0, 0) map."""
        if (self.n_in, self.n_out) != (0, 0):
            raise ArityError("not a scalar map")
        return self.entries.get(("", ""), self.ring.zero)


# a map inside a layer join: raw entries in SparseMap order, and a table's
# index and crossing signs (see _swap_signs) or None; built by _raw_map, tuple.__new__
_RawMap = namedtuple("_RawMap", "n_in n_out entries by_input signs", defaults=(None, None))
_raw_map = partial(tuple.__new__, _RawMap)


def _by_input(entries: dict) -> dict[Word, list]:
    """(output word, value) pairs by input word, as a layer join looks them up."""
    index: dict[Word, list] = {}
    for (w, u), v in entries.items():
        index.setdefault(u, []).append((w, v))
    return index


def _swap_signs(index: dict, ring: RingDescriptor, d: int) -> tuple[dict, dict] | None:
    """A crossing table's values other than one by the letters of the
    wires on its right and left, then on its left and right, if it sends
    each word of two levels to that word swapped and to nothing else;
    else None.  Only a value that equals one exactly is left out."""
    levels = "0123456789"[:d]
    if len(index) != d * d or index.keys() != {a + b for a in levels for b in levels}:
        return None
    one, signs = ring.one.value, {}
    for u, outs in index.items():
        if len(outs) != 1 or outs[0][0] != u[::-1]:
            return None
        if outs[0][1] != one:
            signs[u] = outs[0][1]
    return {u[::-1]: f for u, f in signs.items()}, signs


def _clean(ring: RingDescriptor, entries: dict) -> dict:
    """The nonzero entries, each checked to live in ``ring``."""
    if any(v.ring is not ring and v.ring != ring for v in entries.values()):
        raise _ring.RingMismatchError(f"an entry does not live in {ring}")
    nonzero = ring.nonzero
    return {k: v for k, v in entries.items() if nonzero(v.value)}


def make_map(ring, d, n_in, n_out, entries) -> SparseMap:
    return SparseMap(ring, d, n_in, n_out, _clean(ring, dict(entries)))


@lru_cache(maxsize=1024)
def generator_map(g: Generator, ring: RingDescriptor, d: int) -> SparseMap:
    """The table of one generator over ``ring`` at dimension ``d``, read
    from :func:`zwcalc.qudit.generator_entries`, the one table for every
    ring.  Each table is built once per ``(generator, ring, d)`` and
    shared, so its entries are read-only; errors are not cached and are
    raised on every call."""
    from . import qudit  # deferred: qudit builds on this module

    _check_dimension(ring, d)
    if g.label is not None and g.label.ring != ring:
        raise _ring.RingMismatchError(f"label {g.label} does not live in {ring}")
    entries = qudit.generator_entries(g, ring, d)
    return SparseMap(ring, d, g.n_in, g.n_out, MappingProxyType(entries))


@lru_cache(maxsize=64)
def _check_dimension(ring: RingDescriptor, d: int) -> None:
    """Exact rings run at d = 2, C at 2..10; only a pair that passes is remembered."""
    if d < 2:
        raise ArityError("dimension must be >= 2")
    if d > 2 and ring.exact:
        raise UnsupportedOperationError("dimensions above 2 need the approximate complex ring")
    if not ring.exact:
        from . import qudit  # deferred: qudit builds on this module
        qudit.QParams(d, ring.tolerance)  # QuditError for d the words cannot spell


def _apply_blocks(a: _RawMap | None, blocks: list[_RawMap], ring: RingDescriptor,
                  wire: _RawMap | None = None) -> _RawMap:
    """Compose ``a`` with a parallel layer of blocks without ever building
    the layer's own map; wide identity padding stays free this way.

    With ``a = None`` the layer opens a chain and its inputs stay open:
    starting from the first block's entries, each further block entry
    adds its input letters to the input word and its output letters to
    the output word.  A lone opening block is returned.  The values are
    raw, all from tables of ``ring``, so no product checks the ring again.
    ``wire``, ``id``'s table over an exact ring, keeps each letter and value."""
    mul, add = ring.ops["mul"], ring.ops["add"]
    if a is None:
        if len(blocks) == 1:
            return blocks[0]
        # the empty layer is the unit row
        joined = blocks[0].entries.items() if blocks else [(("", ""), ring.one.value)]
        for b in blocks[1:]:
            joined = [((w + bw, u + bu), mul(v, bv))
                      for (w, u), v in joined for (bw, bu), bv in b.entries.items()]
        acc = dict(joined)  # the blocks' keys are distinct, so these are too
        n_in, n_out = sum(b.n_in for b in blocks), sum(b.n_out for b in blocks)
    elif not (others := [b for b in blocks if b is not wire]):  # wires only: all stays
        return a
    elif len(others) == 1:  # straight into the sums
        b, lo, acc = others[0], blocks.index(others[0]), {}
        hi = lo + b.n_in
        index = _by_input(b.entries) if b.by_input is None else b.by_input
        for (mid, u), v in a.entries.items():
            for bw, bv in index.get(mid[lo:hi], ()):
                key, x = (mid[:lo] + bw + mid[hi:], u), mul(v, bv)
                acc[key] = add(acc[key], x) if key in acc else x
        n_in, n_out = a.n_in, a.n_out - b.n_in + b.n_out
    else:
        # block by block over a's entries: (output word so far, middle, input, value)
        rows = [("", mid, u, v) for (mid, u), v in a.entries.items()]
        pos = n_out = 0
        for b in blocks:
            index = _by_input(b.entries) if b.by_input is None else b.by_input
            end = pos + b.n_in
            rows = [(w + bw, mid, u, mul(v, bv)) for w, mid, u, v in rows
                    for bw, bv in index.get(mid[pos:end], ())]
            pos, n_out = end, n_out + b.n_out
        acc = {}
        for w, _, u, v in rows:
            key = (w, u)
            acc[key] = add(acc[key], v) if key in acc else v
        n_in = a.n_in
    nonzero = ring.nonzero
    return _raw_map((n_in, n_out, {k: v for k, v in acc.items() if nonzero(v)}, None, None))


def _apply_run(a: _RawMap, layers, ring: RingDescriptor) -> _RawMap | None:
    """Join a run of wiring layers onto ``a`` over an exact ring as one
    signed permutation of its output words (see :func:`zwcalc.term.fold`),
    or None when a crossing's table is not a signed swap.

    The walk keeps where each wire from below the run is, and each pair
    that crosses keeps, by its letters, the product of its crossings'
    values other than one ("11" for ``x`` and ``xinv``, none for ``swap``)
    until it is one again (``x ; x``).  A word takes the products of its
    pairs of letters, then is permuted once."""
    mul, eq, one, nonzero = ring.ops["mul"], ring.eq, ring.one.value, ring.nonzero
    # perm[p]: the wire now at position p; factors: (i, j), i < j -> {their letters: product}
    perm, factors = list(range(a.n_out)), {}
    for layer in layers:
        for p, table in layer:
            if table.signs is None:
                return None
            i, j = perm[p], perm[p + 1]
            perm[p], perm[p + 1] = j, i
            signs, pair = table.signs[i < j], ((i, j) if i < j else (j, i))
            if signs and pair in factors:  # multiply the letters both hold, drop the ones
                prod = factors.pop(pair)
                both = {w: mul(prod[w], f) for w, f in signs.items() if w in prod}
                signs = {w: f for w, f in {**prod, **signs, **both}.items() if not eq(f, one)}
            if signs:
                factors[pair] = signs
    wires = sorted({i for pair in factors for i in pair})
    part = {c for prod in factors.values() for word in prod for c in word}
    entries = {}
    for (w, u), v in a.entries.items():
        lit = [i for i in wires if w[i] in part]
        for x, i in enumerate(lit):
            for j in lit[x + 1:]:
                prod = factors.get((i, j))
                if prod is not None and w[i] + w[j] in prod:
                    v = mul(v, prod[w[i] + w[j]])
        if nonzero(v):
            entries["".join([w[p] for p in perm]), u] = v
    return _raw_map((a.n_in, a.n_out, entries, None, None))


def _plain(v: complex) -> bool:
    """Whether both parts of ``v`` are nonzero and finite, so that a product
    by one gives ``v`` back bit for bit."""
    return 0 < abs(v.real) < math.inf and 0 < abs(v.imag) < math.inf


def _apply_run_in_order(a: _RawMap, layers, ring: RingDescriptor) -> _RawMap | None:
    """Join a run of wiring layers onto ``a`` over C (see
    :func:`zwcalc.term.fold`) with the values of the layer joins bit for
    bit, or None when a crossing's table is not a phased swap.

    Each word walks the run's crossings in order: it takes the factor its
    two letters read from the crossing's table and swaps them.  The layer
    joins also multiply by the factors equal to one (``id``, ``swap``, and
    ``x`` on a 0 letter), which give a value back unchanged only while
    both of its parts are nonzero and finite; a value that is not is
    replayed, every block's factor multiplied in block order.  A word
    whose value is zero is dropped at the end of a layer, as the layer
    joins drop it."""
    mul, nonzero, one, n = ring.ops["mul"], ring.nonzero, ring.one.value, a.n_out
    rows = [(list(w), u, v, not _plain(v)) for (w, u), v in a.entries.items()]
    for layer in layers:
        if any(table.signs is None for _, table in layer):
            return None
        kept = []
        for letters, u, v, replay in rows:
            pos = 0  # replayed: the blocks left of pos are multiplied in
            for p, table in layer:
                x, y = letters[p], letters[p + 1]
                letters[p], letters[p + 1] = y, x
                if replay:
                    for _ in range(p - pos):  # the id blocks on its left
                        v = mul(v, one)
                    v, pos = mul(v, table.by_input[x + y][0][1]), p + 2
                else:
                    f = table.signs[1].get(x + y)
                    if f is not None:
                        v, pos = mul(v, f), p + 2
                        replay = not _plain(v)
            if replay:
                for _ in range(n - pos):
                    v = mul(v, one)
            if nonzero(v):
                kept.append((letters, u, v, replay))
        rows = kept
    return _raw_map((a.n_in, a.n_out, {("".join(letters), u): v for letters, u, v, _ in rows},
                     None, None))


def _fold(t: Term, ring: RingDescriptor, d: int, leaf) -> _RawMap:
    """The raw map of ``t``, folded (:func:`zwcalc.term.fold`) with each
    leaf source's raw map from ``leaf``."""
    join_run = _apply_run if ring.exact else _apply_run_in_order
    wire = generator_map(_term.ID, ring, d)._raw if ring.exact else None
    return _term.fold(t, leaf, lambda acc, blocks: _apply_blocks(acc, blocks, ring, wire),
                      lambda acc, layers: join_run(acc, layers, ring))


@lru_cache(maxsize=1024)
def _chain_map(key: tuple, ring: RingDescriptor, d: int) -> _RawMap:
    """The raw map of the small nested chain ``key`` (see
    :func:`zwcalc.term.fold`), joined from the generator tables and
    indexed; errors are not cached and are raised on every call."""
    m = _fold(_term._assembled(key), ring, d, lambda g: generator_map(g, ring, d)._raw)
    return m._replace(by_input=_by_input(m.entries))


def interpret(t: Term, ring: RingDescriptor, d: int = 2) -> SparseMap:
    """Evaluate a term to its sparse map over ``ring`` at dimension ``d``.

    Exact rings require d = 2; the qudit tables (d in 2..10) require the
    approximate complex ring.  A bare generator, a leaf that is a term,
    maps to its shared table from :func:`generator_map`, with read-only
    entries; other maps are joined on raw values and wrapped as ring
    elements at the end.  Every run of wiring layers is joined in one
    step, over C with the values of the layer joins bit for bit.
    """
    _check_dimension(ring, d)
    if type(t) is Generator:
        return generator_map(t, ring, d)
    m = _fold(t, ring, d, lambda s: generator_map(s, ring, d)._raw if type(s) is Generator
              else _chain_map(s, ring, d))
    out = object.__new__(SparseMap)  # unchecked: the joins' keys fit the arity
    out.__dict__.update(ring=ring, d=d, n_in=m.n_in, n_out=m.n_out,
                        entries={k: RingElement(ring, v) for k, v in m.entries.items()})
    return out


def map_equal(a: SparseMap, b: SparseMap) -> bool:
    """Entrywise equality, missing entries counting as zero."""
    if a.ring is not b.ring and a.ring != b.ring:
        raise _ring.RingMismatchError(f"maps over {a.ring} and {b.ring}")
    if a.d != b.d or (a.n_in, a.n_out) != (b.n_in, b.n_out):
        return False
    eq, zero = a.ring.eq, a.ring.zero
    return all(eq(a.entries.get(key, zero).value, b.entries.get(key, zero).value)
               for key in a.entries.keys() | b.entries.keys())


def first_difference(a: SparseMap, b: SparseMap):
    """The smallest (out, in) key where the two maps differ, or None."""
    if a.ring is not b.ring and a.ring != b.ring:
        raise _ring.RingMismatchError(f"maps over {a.ring} and {b.ring}")
    if a.d != b.d or (a.n_in, a.n_out) != (b.n_in, b.n_out):
        return ("<arity>", "<arity>", f"{a.n_in}->{a.n_out}", f"{b.n_in}->{b.n_out}")
    eq, zero = a.ring.eq, a.ring.zero
    for key in sorted(a.entries.keys() | b.entries.keys()):
        va, vb = a.entries.get(key, zero), b.entries.get(key, zero)
        if not eq(va.value, vb.value):
            return (key[0], key[1], str(va), str(vb))
    return None


def dagger(a: SparseMap) -> SparseMap:
    """Adjoint: swap input/output words and conjugate every coefficient."""
    ent = {(u, w): _ring.conjugate(v) for (w, u), v in a.entries.items()}
    return SparseMap(a.ring, a.d, a.n_out, a.n_in, ent)


def parity_class(a: SparseMap) -> str:
    """Classify a dimension-2 map by the parity of weight(out) - weight(in)
    over its entries: 'even', 'odd', 'mixed', or 'zero'."""
    if a.d != 2:
        raise UnsupportedOperationError("parity grading is defined at d = 2")
    seen = {(w.count("1") - u.count("1")) % 2 for w, u in a.entries}
    if len(seen) != 1:
        return "mixed" if seen else "zero"
    return "odd" if 1 in seen else "even"


def to_json_dict(a: SparseMap) -> dict:
    entries = [
        {"out": w, "in": u, "v": _ring.format_literal(v)}
        for (w, u), v in sorted(a.entries.items())
    ]
    return {"d": a.d, "in": a.n_in, "out": a.n_out, "entries": entries}


def json_fields(data, *spec) -> list:
    """The values of a JSON object's fields, given as (key, type) pairs;
    a missing field or a wrongly typed one raises RingError."""
    if not isinstance(data, dict) or any(
            not isinstance(data.get(k), t) or isinstance(data.get(k), bool) for k, t in spec):
        fields = ", ".join(f"{k!r}: {t.__name__}" for k, t in spec)
        raise _ring.RingError(f"expected a JSON object with fields {fields}")
    return [data[k] for k, _ in spec]


def json_dimension(d: int) -> None:
    """Check that a dimension read from JSON spells each level as one letter."""
    if not 2 <= d <= 10:
        raise _ring.RingError(f"dimension d={d} is outside 2..10")


def json_word(word: str, d: int) -> str:
    """A word read from JSON, checked to spell levels below d."""
    if not set(word) <= set("0123456789"[:d]):
        raise _ring.RingError(f"word {word!r} has a letter that is not a level below d={d}")
    return word


def from_json_dict(data: dict, ring: RingDescriptor) -> SparseMap:
    d, n_in, n_out, rows = json_fields(
        data, ("d", int), ("in", int), ("out", int), ("entries", list))
    json_dimension(d)
    if min(n_in, n_out) < 0:
        raise _ring.RingError(f"negative arity ({n_in}, {n_out})")
    entries = {}
    for e in rows:
        out_w, in_w, v = json_fields(e, ("out", str), ("in", str), ("v", str))
        key = json_word(out_w, d), json_word(in_w, d)
        if key in entries:
            raise _ring.RingError(f"two entries for ({out_w!r}, {in_w!r})")
        entries[key] = _ring.parse_literal(ring, v)
    return make_map(ring, d, n_in, n_out, entries)
