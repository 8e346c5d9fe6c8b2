"""Canonical normal forms and syntactic normalization.

A state on ``n`` wires normalizes to an ordered list of rows
``(coefficient, connection word)``: one row per basis amplitude, rows
sorted lexicographically by word, no zero coefficients, no duplicate
words.  Diagrammatically a row is a labelled white node wired to the
outputs it touches; at dimension 2 the word is a bit vector saying which
outputs, and for qudits the letters are wire multiplicities.

Maps normalize through their fully bent state: every input is transposed
to an output with a cup, so a map ``k -> m`` becomes a state on ``k + m``
wires whose word is the input word followed by the output word.
:class:`MapNormalForm` remembers the split.

``normalize`` never consults the interpreter.  It folds the term from
the plan its first fold keeps on it (:func:`zwcalc.term.fold`), with hardcoded
normal forms for the generators, each looked up by the leaf itself.
Every term is a ``;`` chain of ``*`` layers: the running rows meet
each block that is not an identity wire in one pass, matching the
letters on its inputs, so padding costs nothing and a
layer's own normal form is never built.  The first layer has nothing
below it; its rows concatenate the blocks' bent words, and one
permutation moves the input letters to the front.  The joins run on raw
ring values, read a generator table's rows through the index by input
letters cached with the table, and merge equal words but leave the
rows unsorted: over an exact ring the order of a sum cannot change it,
and the result is sorted once, as it is wrapped in ring elements,
unchecked.  A run of wiring layers (``id``, ``x``, ``xinv`` and
``swap`` leaves only) is plugged in one step (:func:`_plug_run`): one
walk over its crossings multiplies each coefficient other than one (the
row "1111" of ``x``) into its pair of wires' product, which a row takes
before its output letters are permuted once.  A small nested chain,
such as the merge gadget ``w(k,1) ; w(1,1)`` of every canonical
diagram, is a leaf of the fold, known by its key (see
:func:`zwcalc.term.fold`), and its normal form is kept beside the
generator tables: :func:`_chain_nf` joins it once per ring and key from
the generator tables alone, at most 1024 of them.  The test suite
checks the result against :func:`zwcalc.semantics.interpret`, which
shares only the fold.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from operator import itemgetter

from . import ring as _ring
from .ring import RingDescriptor, RingElement, UnsupportedOperationError
from . import term as _term
from .term import ArityError, Generator, Term
from .semantics import SparseMap, json_dimension, json_fields, json_word, make_map

Row = tuple[RingElement, str]


def _below(word: str, d: int) -> bool:
    """Whether every letter (a digit) of ``word`` is a level below ``d``."""
    return d > 9 or not word or max(word) < str(d)


@dataclass(frozen=True)
class PreNormalForm:
    """Rows without canonicity: duplicate or zero rows are allowed, and a
    letter may exceed the wire multiplicity a single output supports."""

    d: int
    n: int
    rows: tuple[Row, ...]

    def __post_init__(self):
        for _, word in self.rows:
            if len(word) != self.n:
                raise ArityError(f"row word {word!r} is not {self.n} letters")


@dataclass(frozen=True)
class NormalForm:
    d: int
    n: int
    rows: tuple[Row, ...]

    def __post_init__(self):
        words = [w for _, w in self.rows]
        if any(len(w) != self.n for w in words):
            raise ArityError("row word of the wrong length")
        if words != sorted(words) or len(set(words)) != len(words):
            raise ArityError("rows must be sorted with distinct words")
        if not all(_below(w, self.d) for w in words):
            raise ArityError(f"connection letters must be below d={self.d}")

    def is_zero(self) -> bool:
        return not self.rows


def canonicalize(p: PreNormalForm | NormalForm, perm: list[int] | None = None) -> NormalForm:
    """Merge duplicate words, drop zero rows, drop rows whose letters the
    dimension cannot support, and sort; with ``perm``, first send
    coordinate i to position perm[i] in every word."""
    if perm is not None and sorted(perm) != list(range(p.n)):
        raise ArityError(f"{perm!r} is not a permutation of {p.n} coordinates")
    ring = p.rows[0][0].ring if p.rows else _ring.Z()  # with no rows, any ring
    if any(c.ring is not ring and c.ring != ring for c, _ in p.rows):
        raise _ring.RingMismatchError(f"rows over more than one ring, {ring} first")
    rows = _merged([(c.value, w) for c, w in p.rows], ring, p.d, perm)
    return trusted_nf(p.d, p.n, sorted(rows, key=itemgetter(1)), ring)


def _merged(rows, ring: RingDescriptor, d: int | None = None,
            perm: list[int] | None = None) -> list:
    """:func:`canonicalize` on raw values of ``ring``, left unsorted; without
    ``d`` no letter is checked, as the joins of dimension-2 tables spell none above 1."""
    if perm is not None:
        source = [0] * len(perm)  # source[j]: the coordinate that lands at j
        for i, j in enumerate(perm):
            source[j] = i
        rows = [(c, "".join([w[i] for i in source])) for c, w in rows]
    if d is not None:
        rows = [(c, w) for c, w in rows if _below(w, d)]
    add, nonzero = ring.ops["add"], ring.nonzero
    acc: dict[str, object] = {}
    for c, w in rows:
        acc[w] = add(acc[w], c) if w in acc else c
    return [(c, w) for w, c in acc.items() if nonzero(c)]


def trusted_nf(d: int, n: int, rows, ring: RingDescriptor) -> NormalForm:
    """The normal form of raw rows of ``ring`` that are canonical, unchecked:
    sorted, with distinct nonzero words below ``d``, as :func:`_merged`
    leaves them once sorted."""
    nf = object.__new__(NormalForm)
    nf.__dict__.update(d=d, n=n, rows=tuple((RingElement(ring, c), w) for c, w in rows))
    return nf


def nf_of_state(m: SparseMap) -> NormalForm:
    if m.n_in != 0:
        raise ArityError("nf_of_state needs a state (no inputs)")
    return canonicalize(PreNormalForm(
        m.d, m.n_out, tuple((v, w) for (w, _), v in m.entries.items())))


def nf_tensor(a: NormalForm, b: NormalForm) -> NormalForm:
    """All pairwise products; an empty operand absorbs everything."""
    if a.d != b.d:
        raise ArityError("tensor of normal forms at different dimensions")
    rows = tuple(
        (ca * cb, wa + wb) for ca, wa in a.rows for cb, wb in b.rows
    )
    return canonicalize(PreNormalForm(a.d, a.n + b.n, rows))


def nf_trace(a: NormalForm, j: int, k: int) -> NormalForm:
    """Plug outputs j and k into each other: keep rows with equal letters
    there, then delete both coordinates."""
    if j == k or not (0 <= j < a.n) or not (0 <= k < a.n):
        raise ArityError(f"bad trace indices ({j}, {k}) for {a.n} outputs")
    lo, hi = min(j, k), max(j, k)
    rows = tuple(
        (c, w[:lo] + w[lo + 1:hi] + w[hi + 1:])
        for c, w in a.rows if w[j] == w[k]
    )
    return canonicalize(PreNormalForm(a.d, a.n - 2, rows))


def nf_negate(a: NormalForm, j: int) -> NormalForm:
    """Complement the connections of output j to the white nodes."""
    if a.d != 2:
        raise UnsupportedOperationError("negation is a d = 2 operation")
    if not 0 <= j < a.n:
        raise ArityError(f"output {j} out of range")
    flip = {"0": "1", "1": "0"}
    rows = tuple((c, w[:j] + flip[w[j]] + w[j + 1:]) for c, w in a.rows)
    return canonicalize(PreNormalForm(a.d, a.n, rows))


def nf_permute(a: NormalForm | PreNormalForm, perm: list[int]) -> NormalForm:
    """Send coordinate i to position perm[i] in every word."""
    return canonicalize(a, perm)


@dataclass(frozen=True)
class MapNormalForm:
    """Normal form of a map: the bent state plus the arity split.

    Words are input word followed by output word, so row ``(c, u + v)``
    states that the map sends ``|u>`` to ``c |v>`` plus other rows.
    """

    n_in: int
    n_out: int
    nf: NormalForm

    def __post_init__(self):
        if self.nf.n != self.n_in + self.n_out:
            raise ArityError("bent state width does not match the arity split")

    def to_sparse(self, ring: RingDescriptor) -> SparseMap:
        entries = {
            (w[self.n_in:], w[:self.n_in]): c for c, w in self.nf.rows
        }
        return make_map(ring, self.nf.d, self.n_in, self.n_out, entries)

    @cached_property
    def _raw(self) -> _RawNF:
        """Raw rows, their index by input letters and a crossing's signs,
        kept with the normal form (not a field)."""
        rows = [(c.value, w) for c, w in self.nf.rows]
        index = _by_input(rows, self.n_in)
        ring = self.nf.rows[0][0].ring if rows else None  # no rows, no crossing
        return _raw_nf((self.n_in, self.n_out, rows, index, _swap_signs(index, ring)))


# a map's normal form inside a layer join: bent rows on raw ring values,
# merged and nonzero but unsorted, and a table's index by input letters and
# crossing signs (see _swap_signs) or None; built by _raw_nf, tuple.__new__
_RawNF = namedtuple("_RawNF", "n_in n_out rows by_input signs")
_raw_nf = partial(tuple.__new__, _RawNF)


def _by_input(rows, n_in: int) -> dict[str, list]:
    """(the rest of the word, coefficient) pairs by the first ``n_in``
    letters, as a plugged layer looks them up."""
    index: dict[str, list] = {}
    for c, w in rows:
        index.setdefault(w[:n_in], []).append((w[n_in:], c))
    return index


# the input letters of a crossing's table
_LETTER_PAIRS = frozenset(("00", "01", "10", "11"))


def _swap_signs(index: dict, ring: RingDescriptor) -> tuple[dict, dict] | None:
    """A crossing table's coefficients other than one by the letters of
    the wires on its right and left, then on its left and right, if each
    input pair of letters has one row and its output letters are the two
    swapped; else None."""
    if index.keys() != _LETTER_PAIRS:
        return None
    signs = {}
    for u, outs in index.items():
        if len(outs) != 1 or outs[0][0] != u[::-1]:
            return None
        if not ring.eq(outs[0][1], ring.one.value):
            signs[u] = outs[0][1]
    return {u[::-1]: c for u, c in signs.items()}, signs


@lru_cache(maxsize=1024)
def generator_nf(g: Generator, ring: RingDescriptor) -> MapNormalForm:
    """Hardcoded dimension-2 normal forms of the generators, as bent
    states.  Transposing any wires of a spider leaves its bent state
    unchanged, so one table per spider covers every transpose.  Normal
    forms are immutable, so each table is built once per ring and shared
    by every leaf equal to ``g``."""
    one = ring.one
    kind = g.kind
    if kind in ("id", "cup", "cap"):
        rows = [(one, "00"), (one, "11")]
    elif kind == "swap":
        rows = [(one, "0000"), (one, "0110"), (one, "1001"), (one, "1111")]
    elif kind in ("x", "xinv"):
        rows = [(one, "0000"), (one, "0110"), (one, "1001"), (-one, "1111")]
    elif kind == "w":
        width = g.n_in + g.n_out
        rows = [(one, "0" * i + "1" + "0" * (width - 1 - i)) for i in range(width)]
    elif kind == "z":
        width = g.n_in + g.n_out
        if g.label.ring != ring:
            raise _ring.RingMismatchError(
                f"label {g.label} does not live in {ring}")
        rows = [(one, "0" * width), (g.label, "1" * width)]
    else:  # ket
        if g.level > 1:
            raise ArityError(f"ket({g.level}) needs dimension > {g.level}")
        rows = [(one, str(g.level))]
    nf = canonicalize(PreNormalForm(2, g.n_in + g.n_out, tuple(rows)))
    return MapNormalForm(g.n_in, g.n_out, nf)


def _fold(t: Term, ring: RingDescriptor, leaf) -> _RawNF:
    """The raw normal form of ``t``, folded (:func:`zwcalc.term.fold`) with
    each leaf source's raw normal form from ``leaf``."""
    wire = generator_nf(_term.ID, ring)._raw
    return _term.fold(t, leaf, lambda acc, blocks: _plug(acc, blocks, ring, wire),
                      lambda acc, layers: _plug_run(acc, layers, ring))


@lru_cache(maxsize=1024)
def _chain_nf(key: tuple, ring: RingDescriptor) -> _RawNF:
    """The raw normal form of the small nested chain ``key`` (see
    :func:`zwcalc.term.fold`), joined from the generator tables and
    indexed; errors are not cached and are raised on every call."""
    m = _fold(_term._assembled(key), ring, lambda g: generator_nf(g, ring)._raw)
    return m._replace(by_input=_by_input(m.rows, m.n_in))


def normalize(t: Term, ring: RingDescriptor) -> MapNormalForm:
    """Rewrite a dimension-2 term to its canonical normal form without
    evaluating it: a fold (:func:`zwcalc.term.fold`) of the generators'
    hardcoded normal forms, each layer joined block by block (see
    :func:`_plug`) and each run of wiring layers in one step (see
    :func:`_plug_run`) on raw values, wrapped as ring elements at the end."""
    if not ring.exact:
        raise UnsupportedOperationError("normalize runs over exact rings")
    if type(t) is Generator:  # a bare leaf: its shared table
        return generator_nf(t, ring)
    m = _fold(t, ring, lambda s: generator_nf(s, ring)._raw if type(s) is Generator
              else _chain_nf(s, ring))
    out = object.__new__(MapNormalForm)  # unchecked: the rows are n_in + n_out letters
    out.__dict__.update(n_in=m.n_in, n_out=m.n_out, nf=trusted_nf(
        2, m.n_in + m.n_out, sorted(m.rows, key=itemgetter(1)), ring))
    return out


def _plug(a: _RawNF | None, blocks: list[_RawNF], ring: RingDescriptor,
          wire: _RawNF) -> _RawNF:
    """Plug the outputs of ``a`` into a parallel layer of blocks, block by
    block, without building the layer's own normal form.

    Tensoring and then tracing each middle pair keeps exactly the row
    pairs whose middle words agree letterwise, so join on the middle word
    directly, one block at a time (:func:`_plug_one`).  Blocks that are
    ``wire`` (the cached rows of ``id``) keep their letter, so the rows
    stay proportional to ``a``.  With ``a = None`` the layer opens a
    chain: rows start from the first block's own rows and append every
    further block's whole bent word, and one permutation moves the input
    letters to the front.  The coefficients are raw values, all from
    tables of ``ring``, so no product checks the ring again.
    """
    if a is not None:
        pos = a.n_in  # where the next block's letters start
        for b in blocks:
            if b is not wire:
                a = _plug_one(a, b, pos, ring)
            pos += b.n_out
        return a
    if len(blocks) < 2:  # the empty layer is the unit row
        return blocks[0] if blocks else _raw_nf((0, 0, [(ring.one.value, "")], None, None))
    mul, rows = ring.ops["mul"], blocks[0].rows
    for b in blocks[1:]:
        rows = [(mul(c, bc), w + bw) for c, w in rows for bc, bw in b.rows]
    n_in, n_out = sum(b.n_in for b in blocks), sum(b.n_out for b in blocks)
    # words are u_1 v_1 u_2 v_2 ...; send them to u_1 u_2 ... v_1 v_2 ...
    ins, outs = iter(range(n_in)), iter(range(n_in, n_in + n_out))
    perm = [next(ins) if j < b.n_in else next(outs)
            for b in blocks for j in range(b.n_in + b.n_out)]
    return _raw_nf((n_in, n_out, _merged(rows, ring, perm=perm), None, None))


def _plug_one(a: _RawNF, b: _RawNF, lo: int, ring: RingDescriptor) -> _RawNF:
    """Plug ``b`` into the letters of a's bent words from position ``lo``
    on, in one pass, straight into the merged rows: look them up among b's
    rows by input letters (a table keeps that index, ``MapNormalForm._raw``),
    put each match's output letters in their place and multiply."""
    hi = lo + b.n_in
    by_in = _by_input(b.rows, b.n_in) if b.by_input is None else b.by_input
    mul, add, nonzero = ring.ops["mul"], ring.ops["add"], ring.nonzero
    acc = {}
    for c, w in a.rows:
        for bv, bc in by_in.get(w[lo:hi], ()):
            key, x = w[:lo] + bv + w[hi:], mul(c, bc)
            acc[key] = add(acc[key], x) if key in acc else x
    return _raw_nf((a.n_in, a.n_out - b.n_in + b.n_out,
                    [(c, w) for w, c in acc.items() if nonzero(c)], None, None))


def _plug_run(a: _RawNF, layers, ring: RingDescriptor) -> _RawNF | None:
    """Plug the outputs of ``a`` into a run of wiring layers as one signed
    permutation of the output letters (see :func:`zwcalc.term.fold`), or
    None when a crossing's table is not a signed swap.

    The walk keeps where each wire from below the run is, and each pair
    that crosses keeps, by its letters, the product of its crossings'
    coefficients other than one (the row "1111" of ``x`` and ``xinv``,
    none of ``swap``) until it is one again (``x ; x``).  A row takes the
    products of its pairs of output letters, which are permuted once, so
    no two rows merge and only a row that a factor made zero is dropped."""
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
                both = {w: mul(prod[w], c) for w, c in signs.items() if w in prod}
                signs = {w: c for w, c in {**prod, **signs, **both}.items() if not eq(c, one)}
            if signs:
                factors[pair] = signs
    wires = sorted({i for pair in factors for i in pair})
    part = {c for prod in factors.values() for word in prod for c in word}
    n, rows = a.n_in, []
    for c, w in a.rows:
        v = w[n:]
        lit = [i for i in wires if v[i] in part]
        for x, i in enumerate(lit):
            for j in lit[x + 1:]:
                prod = factors.get((i, j))
                if prod is not None and v[i] + v[j] in prod:
                    c = mul(c, prod[v[i] + v[j]])
        if nonzero(c):
            rows.append((c, w[:n] + "".join([v[p] for p in perm])))
    return _raw_nf((n, a.n_out, rows, None, None))


def nf_to_term(a: NormalForm | PreNormalForm) -> Term:
    """Build the canonical diagram of a dimension-2 state normal form.

    A bottom W spider fans one wire to each labelled white node; each
    white node sends one wire per connection (letters above 1 become
    parallel wires) through a crossing network to the merge node of the
    corresponding output; one pass sums each row's fan and each fan-in.
    """
    if a.d != 2:
        raise UnsupportedOperationError("nf_to_term builds d = 2 diagrams")
    rows = a.rows
    n = a.n
    if not rows:
        zero_scalar = _term.wspider(0, 2) >> _term.CAP
        return _term.par_all([zero_scalar] + [_term.w_monoid(0)] * n)
    whites, fan_in = [], [0] * n
    for coeff, word in rows:
        fan = 0
        for j, c in enumerate(word):
            if c != "0":
                fan += int(c)
                fan_in[j] += int(c)
        whites.append(_term.zspider(1, fan, coeff))
    return canonical_diagram(_term.wspider(0, len(rows)), whites, [word for _, word in rows],
                             [_term.w_monoid(k) for k in fan_in])


def canonical_diagram(bottom: Term, whites: list[Term], words: list[str],
                      merges: list[Term]) -> Term:
    """The canonical diagram's layers: ``bottom`` feeds one wire to each
    white node, white node i sends ``int(c)`` wires for the letter c of
    ``words[i]`` on output j, and a crossing network routes them to
    ``merges[j]``.  Layers without wires are left out, so at least one
    layer must have some.

    ``merges[j]`` takes output j's wires, so its inputs count them: each
    wire is placed by counting on from the earlier merges' inputs.

    Besides :func:`nf_to_term` and the qudit universal construction, the
    bialgebra squares of :mod:`zwcalc.rules` are built here: ``bottom``
    is ``EMPTY`` and every word is all ones, so each white node meets
    each merge once."""
    perm, nxt, at = [], [], 0  # nxt[j]: the position of output j's next wire
    for m in merges:
        nxt.append(at)
        at += m.n_in
    for word in words:  # the wires in origin-major order
        for j, c in enumerate(word):
            if c != "0":
                k = nxt[j]
                nxt[j] = k + int(c)
                perm += range(k, k + int(c))
    layers = [bottom, _term.par_all(whites), _term.crossing_perm(perm),
              _term.par_all(merges)]
    # a layer without wires is EMPTY, which has no concrete syntax
    return _term.seq_all([f for f in layers if f is not _term.EMPTY])


def to_json_dict(a: NormalForm) -> dict:
    return {
        "n": a.n,
        "d": a.d,
        "rows": [{"v": _ring.format_literal(c), "w": w} for c, w in a.rows],
    }


def from_json_dict(data: dict, ring: RingDescriptor) -> NormalForm:
    d, n, rows = json_fields(data, ("d", int), ("n", int), ("rows", list))
    json_dimension(d)
    if n < 0:
        raise _ring.RingError(f"negative arity {n}")
    pre = {}
    for r in rows:
        v, w = json_fields(r, ("v", str), ("w", str))
        if json_word(w, d) in pre:
            raise _ring.RingError(f"two rows for {w!r}")
        pre[w] = _ring.parse_literal(ring, v)
    return canonicalize(PreNormalForm(d, n, tuple((c, w) for w, c in pre.items())))
