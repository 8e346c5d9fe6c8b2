import copy
import dataclasses
import functools
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zwcalc import ring, term
from zwcalc.term import (
    CAP,
    CUP,
    ID,
    ArityError,
    ParseError,
    parse,
    render,
)
from zwcalc import normalform, semantics
from zwcalc.cli import main

import helpers

Z = ring.Z()
QI = ring.Qi()
ONE = Z.one


def test_generator_arities():
    assert term.zspider(0, 3, ONE).n_out == 3
    assert (term.wspider(0, 2).n_in, term.wspider(0, 2).n_out) == (0, 2)
    k = term.ket(1)
    assert (k.n_in, k.n_out) == (0, 1)


def test_bad_generators_rejected():
    with pytest.raises(ArityError):
        term.wspider(0, 0)
    with pytest.raises(ArityError):
        term.zspider(0, 0, ONE)
    with pytest.raises(ArityError):
        term.Generator("nosuch", 1, 1)


def test_composition_arities():
    scalar = term.zspider(0, 2, ONE) >> CAP
    assert (scalar.n_in, scalar.n_out) == (0, 0)
    assert (ID @ ID).n_in == 2
    with pytest.raises(ArityError):
        term.seq(term.wspider(0, 3), ID)


def test_seq_and_par_are_frozen_slotted_dataclasses():
    split = term.wspider(1, 2)
    t, p = term.Seq(split, term.X), term.Par(ID, split)
    assert [f.name for f in dataclasses.fields(t)] == ["first", "then"]
    assert [f.name for f in dataclasses.fields(p)] == ["left", "right"]
    assert (t.n_in, t.n_out, p.n_in, p.n_out) == (1, 2, 2, 3)
    for node, name in ((t, "first"), (t, "then"), (p, "left"), (p, "right")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, ID)
    assert not hasattr(t, "__dict__") and not hasattr(p, "__dict__")
    with pytest.raises(ArityError, match="^cannot plug 2 outputs into 1 inputs$"):
        term.Seq(split, ID)
    # structural == and hash, the repr of the rendered text, and keyword fields
    assert t == term.Seq(first=term.wspider(1, 2), then=parse("x", Z)) == parse("w(1,2) ; x", Z)
    assert hash(p) == hash(parse("id * w(1,2)", Z)) and p != t
    assert (repr(t), repr(p)) == ("Seq('w(1,2) ; x')", "Par('id * w(1,2)')")
    assert dataclasses.replace(p, left=term.CAP) == parse("cap * w(1,2)", Z)
    # one W leaf per arity
    assert term.wspider(1, 2) is split


def _round_trips():
    return {"copy": copy.copy, "deepcopy": copy.deepcopy,
            "pickle": lambda t: pickle.loads(pickle.dumps(t))}


@pytest.mark.parametrize("how", _round_trips())
def test_copies_and_pickles_rebuild_terms(how):
    labelled = parse("z(1,3)[1/2-i] ; (x * id) ; w(3,0)", QI)
    for t in (parse("w(1,2) ; x", Z), term.wspider(1, 2), labelled,
              term.Par(term.EMPTY, ID), term.crossing_perm([2, 0, 1])):
        got = _round_trips()[how](t)
        assert got == t and hash(got) == hash(t) and repr(got) == repr(t)
        assert (got.n_in, got.n_out) == (t.n_in, t.n_out)
        assert semantics.map_equal(semantics.interpret(got, QI), semantics.interpret(t, QI))
    assert _round_trips()[how](term.EMPTY) is term.EMPTY
    assert _round_trips()[how](QI) is QI  # the interned descriptor
    # 10,000 levels deep on either side: the copy rebuilds the pre-order list
    for deep in (functools.reduce(lambda t, _: term.Seq(ID, t), range(10_000), ID),
                 functools.reduce(lambda t, _: term.Par(t, term.wspider(0, 1)),
                                  range(10_000), term.EMPTY)):
        got = _round_trips()[how](deep)
        assert got is not deep and got == deep and (got.n_in, got.n_out) == (deep.n_in, deep.n_out)


@pytest.mark.parametrize("how", _round_trips())
def test_copies_and_pickles_share_the_builders_leaves(how):
    t = parse("(x * x * ket(1)) ; (id * x * id * w(1,1)) ; (x * z(1,1)[2] * z(1,1)[2] * id)", Z)
    got = _round_trips()[how](t)
    assert got is not t and got == t
    gens = {}  # each leaf object of the copy, by its generator
    todo = [got]
    while todo:
        u = todo.pop()
        if type(u) is term.Generator:
            gens.setdefault(u, set()).add(id(u))
        else:
            todo += (u.first, u.then) if type(u) is term.Seq else (u.left, u.right)
    assert all(len(objects) == 1 for objects in gens.values())
    for leaf in (term.X, ID, term.ket(1), term.wspider(1, 1),
                 term.zspider(1, 1, ring.from_int(Z, 2))):
        assert gens[leaf] == {id(leaf)}
    # a fold looks each of them up once: four x leaves, one lookup
    looked = []
    term.fold(got, lambda g: looked.append(g) or g, lambda acc, values: values,
              lambda acc, layers: None)
    assert looked.count(term.X) == 1 and len(looked) == len(gens)
    # a complex label shares its leaf too, as zspider gives it
    c = ring.C()
    labelled = parse("z(1,1)[-0.0+1i] ; z(1,1)[-0.0+1i]", c)
    got = _round_trips()[how](labelled)
    assert got.first is got.then is labelled.first and got == labelled


def test_terms_are_frozen():
    t = parse("w(1,2) ; x", Z)
    for node, name in ((t, "n_in"), (t, "first"), (ID, "n_out"), (ID, "kind"),
                       (term.Par(ID, ID), "left"), (term.EMPTY, "n_in")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)
    assert (t.n_in, t.n_out, ID.n_out) == (1, 2, 1)


def test_a_leaf_is_a_slotted_frozen_term_on_every_python():
    # Python 3.10's dataclass(slots=True) declares inherited slots again and
    # 3.11 leaves them out, so the leaf's slots are written out by hand
    leaf = term.zspider(1, 2, ring.from_int(Z, 3))
    assert isinstance(leaf, term.Term) and not hasattr(leaf, "__dict__")
    assert term.Generator.n_in is term.Term.n_in and term.Generator.n_out is term.Term.n_out
    assert not {"n_in", "n_out", "_plan"} & set(term.Generator.__slots__)
    for name in ("kind", "n_in", "n_out", "label", "level"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(leaf, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(leaf, name)
    assert repr(leaf) == "Generator('z(1,2)[3]')" and leaf != term.Seq(leaf, ID @ ID)
    # a leaf built by hand equals the builder's, and its copies are the builder's
    fresh = term.Generator("z", 1, 2, ring.from_int(Z, 3))
    assert fresh is not leaf and fresh == leaf and hash(fresh) == hash(leaf)
    for how in _round_trips().values():
        assert how(leaf) is leaf and how(fresh) is leaf


_PICKLE = """
import pickle, sys
from zwcalc import ring, term
t = term.parse("z(1,3)[1/2-i] ; (x * id) ; w(3,0)", ring.Qi())
sys.stdout.buffer.write(pickle.dumps(t))
"""
_UNPICKLE = """
import pickle, sys
from zwcalc import ring, term
t = pickle.loads(sys.stdin.buffer.read())
gens = [u for u in term._preorder(t) if isinstance(u, term.Generator)]
fresh = [term.Generator(g.kind, g.n_in, g.n_out, g.label, g.level) for g in gens]
assert [hash(g) for g in gens] == [hash(g) for g in fresh], "stale generator hash"
assert t.first.first.label.ring is ring.Qi()
assert hash(t) == hash(term.parse("z(1,3)[1/2-i] ; (x * id) ; w(3,0)", ring.Qi()))
"""


def test_an_unpickled_term_hashes_as_the_reading_process_does():
    # the hashes of str differ between hash seeds, so a stored hash would not
    env = {**os.environ, "PYTHONPATH": str(Path(term.__file__).parent.parent)}
    data = subprocess.run([sys.executable, "-c", _PICKLE], capture_output=True, check=True,
                          env={**env, "PYTHONHASHSEED": "1"}).stdout
    subprocess.run([sys.executable, "-c", _UNPICKLE], input=data, check=True,
                   env={**env, "PYTHONHASHSEED": "2"})


def test_parse_examples():
    t = parse("z(0,3)[1]", Z)
    assert isinstance(t, term.Generator) and t.kind == "z" and t.n_out == 3
    t = parse("w(0,2) ; x", Z)
    assert isinstance(t, term.Seq)
    snake = parse("(id * cup) ; (cap * id)", Z)
    assert (snake.n_in, snake.n_out) == (1, 1)
    assert parse("ket(1)", Z).level == 1


@pytest.mark.parametrize("text, message, position", [
    ("id id", "trailing input", 3),
    ("(id", "expected ')'", 3),
    ("id)", "trailing input", 2),
    ("id ; #", "expected a term", 5),
    ("", "expected a term", 0),
    ("   ", "expected a term", 3),
    ("id ;", "expected a term", 4),
    ("id ; ; x", "expected a term", 5),
    ("w(0,3) ; id", "cannot plug 3 outputs into 1 inputs", 11),
    ("z(1,1)[1/2]", "'1/2' is not an integer literal", 7),
    ("w(0,2) ; garbage", "expected a generator, got 'garbage'", 9),
    ("w(0,2", "expected w(k,m)", 0),
    ("(id id)", "expected ')'", 4),
    ("id * (x", "expected ')'", 7),
    # nat and labels are ASCII, as render writes them: no digits of other scripts
    ("w(\u0663,1)", "expected w(k,m)", 0),
    ("id ; ket(\u0661)", "expected ket(level)", 5),
    ("z(1,\u0661)[1]", "expected z(k,m)[label]", 0),
    ("z(1,1)[\u0661]", "'\u0661' is not an ASCII literal", 7),
    ("z(0,1)[ \u0661/\u0662+\u0663i]", "'\u0661/\u0662+\u0663i' is not an ASCII literal", 8),
])
def test_parse_errors_carry_positions(text, message, position):
    with pytest.raises(ParseError) as err:
        parse(text, Z)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


_C = ring.C()
# few leaves, so that drawn terms are often equal; two C labels that differ
# only in the sign of a zero part; EMPTY, which Seq and Par take
_EQ_LEAVES = (ID, term.X, term.SWAP, CUP, CAP, term.wspider(1, 1), term.wspider(0, 2),
              term.zspider(1, 1, ring.from_int(Z, 2)), term.zspider(1, 1, ring.from_int(Z, -2)),
              term.zspider(0, 1, ring.complex_value(_C, 0.0)),
              term.zspider(0, 1, ring.complex_value(_C, -0.0)), term.EMPTY)


def _joined(a, b, sequential):
    """a ; b where the arities allow it, else a * b."""
    return term.Seq(a, b) if sequential and a.n_out == b.n_in else term.Par(a, b)


def _eq_terms(leaves):
    return st.recursive(leaves, lambda kids: st.builds(_joined, kids, kids, st.booleans()),
                        max_leaves=12)


@st.composite
def _eq_pairs(draw):
    """Two terms built over the same leaves and one shared subtree, or a
    term and itself, or a term and its copy, which shares no node, or a
    copy with one generator replaced by another of the same arity."""
    shared = draw(_eq_terms(st.sampled_from(_EQ_LEAVES)))
    terms = _eq_terms(st.sampled_from(_EQ_LEAVES + (shared,)))
    a = draw(terms)
    nodes = term._preorder(a)
    gens = [i for i, u in enumerate(nodes) if isinstance(u, term.Generator)]
    how = draw(st.sampled_from(["drawn", "itself", "copy"] + ["one leaf"] * bool(gens)))
    if how != "one leaf":
        return a, draw(terms) if how == "drawn" else a if how == "itself" else copy.copy(a)
    i = draw(st.sampled_from(gens))
    g = nodes[i]
    nodes[i] = draw(st.sampled_from([u for u in _EQ_LEAVES[:-1] if u is not g
                                     and (u.n_in, u.n_out) == (g.n_in, g.n_out)] or [g]))
    return a, term._assembled(nodes)


@settings(max_examples=300, deadline=None)
@given(_eq_pairs())
def test_eq_agrees_with_the_preorder_lists(pair):
    a, b = pair
    same = term._preorder(a) == term._preorder(b)
    assert (a == b) == (b == a) == same and (a != b) == (not same)
    if same:
        assert hash(a) == hash(b)


def test_eq_tells_bracketings_and_signed_zeros_apart_as_the_preorder_lists_do():
    a, b, c = term.wspider(1, 1), ID, term.X
    assert term.Par(term.Par(a, b), c) != term.Par(a, term.Par(b, c))
    assert term.Seq(term.Seq(ID, a), b) != term.Seq(ID, term.Seq(a, b))
    assert term.Par(term.EMPTY, ID) != ID and term.Par(term.EMPTY, ID) == term.Par(term.EMPTY, ID)
    assert term.Seq(CAP, term.EMPTY) == term.Seq(CAP, term.EMPTY) != CAP
    pos, neg = _EQ_LEAVES[-3:-1]  # they render apart, so they differ
    assert pos != neg and render(pos) != render(neg)
    assert term.Par(pos, term.Par(neg, pos)) != term.Par(neg, term.Par(pos, neg))
    assert term.Par(pos, term.Par(neg, pos)) == copy.copy(term.Par(pos, term.Par(neg, pos)))


W11 = term.wspider(1, 1)


@pytest.mark.parametrize("t,text", [
    (term.Seq(ID, term.Seq(W11, ID)), "id ; (w(1,1) ; id)"),
    (term.Par(ID, term.Par(W11, term.X)), "id * (w(1,1) * x)"),
    (term.Par(term.Seq(ID, W11), term.X), "(id ; w(1,1)) * x"),
    (term.Par(term.X, term.Seq(ID, W11)), "x * (id ; w(1,1))"),
    (term.Seq(term.Par(ID, W11), term.X), "id * w(1,1) ; x"),
    (term.Seq(term.Seq(ID, W11), ID), "id ; w(1,1) ; id"),
    (term.Par(term.Par(ID, W11), term.X), "id * w(1,1) * x"),
])
def test_render_brackets_only_where_parse_needs_them(t, text):
    # a ';' right of a ';', a ';' either side of a '*', a '*' right of a '*'
    assert render(t) == text and parse(text, Z) == t


@pytest.mark.parametrize("t", [term.EMPTY, term.Par(ID, term.EMPTY),
                               term.Seq(term.EMPTY, term.wspider(0, 1))])
def test_render_rejects_the_empty_diagram(t):
    with pytest.raises(ValueError, match="empty diagram"):
        render(t)


def test_precedence_and_associativity():
    # ';' binds looser than '*', both left-associative
    t = parse("id * id ; cap", Z)
    assert isinstance(t, term.Seq) and isinstance(t.first, term.Par)
    u = parse("cup ; id * id ; cap", Z)
    assert isinstance(u, term.Seq) and isinstance(u.first, term.Seq)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_parse_render_round_trip(seed):
    rng = random.Random(seed)
    labels = [ring.gaussian(QI, 1, 1), ring.gaussian(QI, 0, 1),
              ring.from_int(QI, -2), ring.from_int(QI, 0)]
    t = helpers.random_term(rng, labels, pool=helpers.FULL_POOL)
    assert parse(render(t), QI) == t


_C_LABELS = [ring.complex_value(_C, v) for v in (0.0, -0.0, complex(-0.0, 1), complex(1.5, -0.0),
                                              complex(-2e-05, 3e10))]
_LABELS = {"Z": (Z, [ring.from_int(Z, v) for v in (0, -2, 7)]),
           "Qi": (QI, [ring.gaussian(QI, 1, 1), ring.gaussian(QI, 0, 1), ring.from_int(QI, -2),
                       ring.from_int(QI, 0)] + [ring.parse_literal(QI, "-1/2+3/4i")]),
           "C": (_C, _C_LABELS)}


def _respaced(text: str, rng: random.Random) -> str:
    """``text`` with runs of spaces, tabs and newlines put between
    characters that are not both letters or digits: between tokens, inside
    ``w ( 1 , 2 )`` and inside labels, never inside a word or a number."""
    out = [text[:1]]
    for a, b in zip(text, text[1:]):
        if not (a.isalnum() and b.isalnum()) and rng.random() < 0.3:
            out.append("".join(rng.choice(" \t\n") for _ in range(rng.randint(1, 3))))
        out.append(b)
    return "".join(out)


def _corrupted(text: str, rng: random.Random) -> str:
    """``text`` truncated, with a bracket dropped, a stray ``#``, a token
    doubled or a ``;`` inside a label."""
    how = rng.choice(["truncated", "bracket", "hash", "doubled", "label"])
    if how == "truncated":
        return text[:rng.randrange(len(text) + 1)]
    if how == "hash":
        i = rng.randint(0, len(text))
        return text[:i] + "#" + text[i:]
    if how == "doubled":
        m = rng.choice(list(term._TOKEN.finditer(text))[:-1])
        return text[:m.end()] + m.group(1) + text[m.end():]
    if how == "bracket":
        spots = [i for i, c in enumerate(text) if c in "()"]
    else:  # just after a '[' or somewhere inside a label, as long as it is
        spots = [i + 1 for i, c in enumerate(text) if c == "[" or c != "]" and "[" in text[:i]
                 and text.rfind("[", 0, i) > text.rfind("]", 0, i)]
    if not spots:
        return text[:-1]
    i = rng.choice(spots)
    return text[:i] + text[i + 1:] if how == "bracket" else text[:i] + ";" + text[i:]


def _outcome(read, text, r):
    """A parser's term, or its error's type, text and position."""
    try:
        return read(text, r)
    except Exception as exc:  # any error must be the reference's too
        return type(exc), str(exc), getattr(exc, "position", None)


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.sampled_from(sorted(_LABELS)),
       st.sampled_from(["render", "respaced", "corrupted"]),
       st.sampled_from([1, 7, 40, term._SLICE_CHARS]))
def test_parse_reads_every_text_as_the_reference_parser_does(seed, ring_name, how, slice_chars):
    # the parser as first written (helpers.ref_parse): the same term, node for
    # node and with the same stored arities, or the same error at the same
    # position; small slices cut most texts
    rng = random.Random(seed)
    r, labels = _LABELS[ring_name]
    t = helpers.random_term(rng, labels, pool=helpers.FULL_POOL, max_generators=12)
    # regrouped at random, so that the text has brackets
    text = render(_bracket([_bracket(blocks, rng, term.Par) for blocks in helpers.layers(t)],
                           rng, term.Seq))
    if how != "render":
        text = _respaced(text, rng)
    if how == "corrupted":
        text = _corrupted(text, rng)
    assert text.isascii()
    saved, term._SLICE_CHARS = term._SLICE_CHARS, slice_chars
    try:
        got = _outcome(term.parse, text, r)
    finally:
        term._SLICE_CHARS = saved
    want = _outcome(helpers.ref_parse, text, r)
    if isinstance(want, term.Term):
        assert isinstance(got, term.Term) and got == want and hash(got) == hash(want)
        assert render(got) == render(want) and _arities(got) == _arities(want)
    else:
        assert got == want and want[0] is ParseError


def _arities(t: term.Term) -> list:
    """Each node's class, or the leaf itself, and its stored arities, in
    pre-order: ``==`` and ``hash`` read no arity of a ``;`` or ``*`` node."""
    out, todo = [], [t]
    while todo:
        u = todo.pop()
        out.append((u if type(u) is term.Generator else type(u), u.n_in, u.n_out))
        if type(u) is term.Seq:
            todo += [u.then, u.first]
        elif type(u) is term.Par:
            todo += [u.right, u.left]
    return out


def test_star_chains_store_what_par_stores():
    # par_all, identity and the crossing networks write their * nodes'
    # slots without Par.__init__: a copy, rebuilt by Par and Seq, must
    # have the same nodes, and par_all must nest as reduce(Par) does
    rng = random.Random(11)
    pool = [ID, term.X, CUP, CAP, term.wspider(2, 1), term.ket(1), term.EMPTY,
            (ID @ term.X) >> (term.X @ ID)]
    for n in range(1, 12):
        blocks = [rng.choice(pool) for _ in range(n)]
        kept = [b for b in blocks if b is not term.EMPTY]
        t = term.par_all(blocks)
        assert t is term.EMPTY if not kept else (
            t == functools.reduce(term.Par, kept) and _arities(t) == _arities(copy.copy(t)))
        assert _arities(term.identity(n)) == _arities(functools.reduce(term.Par, [ID] * n))
        perm = list(range(n))
        rng.shuffle(perm)
        t = term.crossing_perm(perm)
        assert _arities(t) == _arities(copy.copy(t))


def _bracket(items, rng, op):
    """Join items with the binary op under a random bracketing."""
    items = list(items)
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        items[i:i + 2] = [op(items[i], items[i + 1])]
    return items[0]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_random_bracketings(seed):
    # random_term nests both operators to the left only; regroup its
    # layers and blocks at random, which must not change the maps
    rng = random.Random(seed)
    labels = [ring.gaussian(QI, 1, 1), ring.gaussian(QI, 0, 1), ring.from_int(QI, -2)]
    t = helpers.random_term(rng, labels, pool=helpers.FULL_POOL, max_generators=12)
    u = _bracket([_bracket(blocks, rng, term.Par) for blocks in helpers.layers(t)], rng, term.Seq)
    assert parse(render(u), QI) == u
    assert hash(parse(render(u), QI)) == hash(u)
    assert semantics.map_equal(semantics.interpret(u, QI), semantics.interpret(t, QI))
    assert normalform.normalize(u, QI) == normalform.normalize(t, QI)
    adj = term.adjoint(u)
    assert semantics.map_equal(semantics.interpret(adj, QI),
                               semantics.dagger(semantics.interpret(t, QI)))
    if "ket" not in render(u):  # a ket reflects to a composite effect
        assert term.adjoint(adj) == u


def _kind(source):
    """A leaf source as text: a generator's kind, a small chain's key as
    the chain that ``term._assembled`` builds back from it."""
    return source.kind if isinstance(source, term.Generator) else render(term._assembled(source))


def _layers(acc, values):
    return acc, values


def _no_run(acc, layers):  # declines every run, so each layer is joined alone
    return None


def test_fold_joins_each_chain_layer_by_layer():
    t = parse("(cup ; (id * w(1,2))) * ket(0) ; id * x * id", Z)
    # the leaves' values, and each layer's values on top of its chain's acc;
    # the small nested chain is a leaf, handed over by its key
    got = term.fold(t, _kind, _layers, _no_run)
    assert got == ((None, ["cup ; id * w(1,2)", "ket"]), ["id", "x", "id"])
    keys = []
    term.fold(t, lambda s: keys.append(s) or s, _layers, _no_run)
    assert term._assembled(keys[0]) == t.first.left and keys[0] == term._chain_key(t.first.left)
    # a nested chain whose layer holds a nested chain is laid out and joined here
    big = parse("((cup ; (id * w(1,2))) * ket(0) ; id * x * id) * ket(1) ; w(5,0)", Z)
    assert term.fold(big, _kind, _layers, _no_run) == ((None, [got, "ket"]), ["w"])
    assert term.fold(ID, _kind, _layers, _no_run) == (None, ["id"])
    assert term.fold(term.EMPTY, None, _layers, _no_run) == (None, [])
    with pytest.raises(ArityError, match="not a term"):
        term.fold("id", None, None, None)


def test_fold_hands_a_run_of_wiring_layers_over_as_one_call():
    t = parse("w(0,3) ; x * id ; id * swap ; xinv * id ; x * id ; w(3,0)", Z)
    calls = []

    def run(acc, layers):
        calls.append((acc, list(layers)))
        return "run"

    got = term.fold(t, _kind, _layers, run)
    assert got == ("run", ["w"])
    # each layer as its crossings, by the position of their left wire
    assert calls == [((None, ["w"]), [[(0, "x")], [(1, "swap")], [(0, "xinv")], [(0, "x")]])]
    # a run that declines is joined layer by layer
    assert term.fold(t, _kind, _layers, _no_run) == (
        (((((None, ["w"]), ["x", "id"]), ["id", "swap"]), ["xinv", "id"]), ["x", "id"]), ["w"])
    # one wiring layer, and wiring that opens a chain, go to the layer join
    calls.clear()
    for text in ("w(0,2) ; x ; w(2,0)", "x ; w(2,0)",
                 "((w(0,1) ; w(1,1)) * ket(0) ; swap) * ket(0) ; w(3,0)"):
        term.fold(parse(text, Z), _kind, _layers, run)
    assert calls == []
    # a run inside a laid-out nested chain is found there, and its opening layer is not in it
    got = term.fold(parse("((w(0,1) ; w(1,1)) * ket(0) ; x ; x) * ket(0) ; id * swap ; swap * id",
                          Z), _kind, _layers, run)
    assert got == "run"
    assert [layers for _, layers in calls] == [[[(0, "x")], [(0, "x")]],
                                               [[(1, "swap")], [(0, "swap")]]]


def _spy(monkeypatch, module, name) -> list:
    """The generators ``module.name`` is called with, in order."""
    calls, real = [], getattr(module, name)

    def spy(g, *args):
        calls.append(g)
        return real(g, *args)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("pillar, module, lookup", [
    (semantics.interpret, semantics, "generator_map"),
    (normalform.normalize, normalform, "generator_nf"),
], ids=["interpret", "normalize"])
def test_fold_looks_each_distinct_leaf_up_once_per_call(monkeypatch, fresh_tables, pillar,
                                                          module, lookup):
    calls = _spy(monkeypatch, module, lookup)
    spider = term.zspider(10, 10, QI.one)
    t = term.identity(10) >> spider >> term.identity(10)  # 20 id leaves
    # both pillars also fetch id's table once, as their joins' wire
    want = {ID: 2, spider: 1}
    for _ in range(2):  # the memo lives for one call, so a second call looks up again
        calls.clear()
        pillar(t, QI)
        assert {g: calls.count(g) for g in calls} == want


@pytest.mark.parametrize("pillar, module, join", [
    (semantics.interpret, semantics, "_apply_blocks"),
    (normalform.normalize, normalform, "_plug"),
], ids=["interpret", "normalize"])
def test_fold_joins_each_distinct_nested_chain_once_per_call(monkeypatch, fresh_tables, pillar,
                                                             module, join):
    bundle = parse("w(1,1) ; w(1,3)", QI)  # as in ba_w[n=3,m=3]
    copy_ = parse("w(1,1) ; w(1,3)", QI)  # equal, but another object
    calls, real = [], getattr(module, join)
    monkeypatch.setattr(module, join, lambda *args: calls.append(args) or real(*args))
    top = term.wspider(0, 3)
    shared, mixed = (top >> term.par_all(row) for row in ([bundle] * 3, [bundle, copy_, bundle]))
    assert pillar(shared, QI) == pillar(mixed, QI)
    for t in (shared, mixed):
        helpers.clear_tables()
        calls.clear()
        pillar(t, QI)
        # the bundle's two layers, then the top's two: the copy is found by its key
        assert len(calls) == 2 + 2
        calls.clear()
        pillar(t, QI)
        assert len(calls) == 2  # the next call finds the bundle in the pillar's cache
    # a nested chain too large to be a leaf is laid out: through the fold
    # itself, with values that show each chain's layers, each distinct
    # chain object is joined once per call, and again on the next call
    big = term.seq_all([term.wspider(1, 1)] * 16 + [term.wspider(1, 3)])  # 33 nodes
    twin = term.seq_all([term.wspider(1, 1)] * 16 + [term.wspider(1, 3)])
    joined = []
    for row, joins in (([big] * 3, 17 + 2), ([big, twin, big], 17 + 17 + 2)):
        t = top >> term.par_all(row)
        for _ in range(2):
            joined.clear()
            got = term.fold(t, _kind, lambda acc, values: joined.append(values) or (acc, values),
                            _no_run)
            assert len(joined) == joins
    inner = term.fold(big, _kind, _layers, _no_run)
    assert got == ((None, ["w"]), [inner, inner, inner])


def test_a_leaf_that_raises_raises_on_every_call(monkeypatch, fresh_tables):
    calls = _spy(monkeypatch, normalform, "generator_nf")
    t = term.identity(20) @ term.ket(2)
    for n in (1, 2):
        with pytest.raises(ArityError, match=r"ket\(2\)"):
            normalform.normalize(t, QI)
        assert calls.count(term.ket(2)) == n


def _scalar():
    return term.seq(term.wspider(0, 1), term.wspider(1, 0))


# 3000 levels above an innermost leaf, each nested in the right operand
# (alternating Seq and Par brackets every other level)
DEEP_TERMS = {
    "seq-right": lambda leaf: functools.reduce(lambda t, _: term.Seq(ID, t), range(3000), leaf),
    "par-right": lambda leaf: functools.reduce(lambda t, _: term.Par(term.wspider(0, 1), t),
                                               range(3000), leaf),
    "alternating": lambda leaf: functools.reduce(
        lambda t, i: term.Par(_scalar(), t) if i % 2 else term.Seq(ID, t), range(3000), leaf),
}


@pytest.mark.parametrize("name", DEEP_TERMS)
def test_deep_terms_need_no_recursion(name):
    build = DEEP_TERMS[name]
    t, same, other = build(ID), build(ID), build(term.wspider(1, 1))
    assert t is not same and t == same and hash(t) == hash(same)
    assert t != other and other != t
    text = render(t)
    assert repr(t) == f"{type(t).__name__}({text!r})"
    assert parse(text, Z) == t and hash(parse(text, Z)) == hash(t)
    assert term.adjoint(term.adjoint(t)) == t
    assert term.adjoint(term.adjoint(other)) != t
    # both pillars fold the chains on explicit stacks too
    m = semantics.interpret(t, Z)
    assert semantics.map_equal(normalform.normalize(t, Z).to_sparse(Z), m)
    assert not m.is_zero()


def test_spider_leaves_are_shared_over_every_ring():
    three = ring.from_int(Z, 3)
    assert term.wspider(1, 2) is term.wspider(1, 2) is parse("w(1,2)", Z)
    assert term.zspider(1, 1, three) is parse("z(1,1)[3]", Z)
    assert term.zspider(1, 1, three) is not term.zspider(1, 1, ring.from_int(Z, -3))
    # complex labels share a leaf when they print the same, so the sign of
    # a zero part tells two leaves apart
    c = ring.C()
    pos, neg = (term.zspider(0, 1, ring.complex_value(c, v)) for v in (0.0, -0.0))
    assert pos != neg and pos is not neg
    assert str(neg.label) == "-0.0+0.0i" != str(pos.label)
    assert neg is parse("z(0,1)[-0.0]", c) and pos is parse("z(0,1)[0.0+0.0i]", c)
    # adjoint hands back the builders' leaves too
    assert term.adjoint(term.wspider(1, 2)) is term.wspider(2, 1)
    assert term.adjoint(CUP) is CAP
    assert term.adjoint(term.ket(1)) is term.bra(1)
    lab, conj = (ring.parse_literal(QI, v) for v in ("1+i", "1-i"))
    assert term.adjoint(term.zspider(1, 2, lab)) is term.zspider(2, 1, conj)
    t = parse("(w(0,2) ; z(1,1)[2-i] * id) * ket(1) ; x * id ; id * cup * swap ; "
              "xinv * id * cap ; w(3,1)", QI)
    builders = {"w": lambda u: term.wspider(u.n_in, u.n_out),
                "z": lambda u: term.zspider(u.n_in, u.n_out, u.label),
                "ket": lambda u: term.ket(u.level)}
    leaves = [u for u in term._preorder(term.adjoint(term.adjoint(t)))
              if isinstance(u, term.Generator)]
    assert {u.kind for u in leaves} == set(term.GENERATOR_KINDS)
    for u in leaves:
        assert u is builders.get(u.kind, lambda u: term._WIRES[u.kind])(u)
    # slotted nodes and leaves: a catalogue holds about ten thousand
    assert not hasattr(term.wspider(1, 2), "__dict__")
    assert not hasattr(term.Seq(ID, ID), "__dict__") and not hasattr(term.Par(ID, ID), "__dict__")


def test_ten_thousand_nested_brackets():
    assert parse("(" * 10000 + "id" + ")" * 10000, Z) == ID
    assert parse("(" * 10000 + "cup ; cap" + ")" * 10000 + " * cup", Z) == \
        term.Par(term.Seq(CUP, CAP), CUP)
    with pytest.raises(ParseError, match="expected '\\)'") as err:
        parse("(" * 10000 + "id" + ")" * 9999, Z)
    assert err.value.position == 20001


def _inversions(perm):
    return sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
               if perm[i] > perm[j])


def _signed_permutation(perm):
    """Basis word b goes to b with letter i moved to position perm[i],
    signed by -1 for each inverted pair of wires that both carry a 1."""
    n = len(perm)
    entries = {}
    for bits in itertools.product("01", repeat=n):
        out = [""] * n
        for i, b in enumerate(bits):
            out[perm[i]] = b
        ones = sum(1 for i, j in itertools.combinations(range(n), 2)
                   if perm[i] > perm[j] and bits[i] == bits[j] == "1")
        entries[("".join(out), "".join(bits))] = ring.from_int(Z, (-1) ** ones)
    return semantics.make_map(Z, 2, n, n, entries)


def _check_crossing_network(perm):
    n = len(perm)
    t = term.crossing_perm(perm)
    assert (t.n_in, t.n_out) == (n, n)
    layers = helpers.layers(t)
    crossing_layers = [blocks for blocks in layers if term.X in blocks]
    assert len(crossing_layers) <= n
    for blocks in layers:
        # a layer is a row of disjoint crossings and wires spanning all n
        assert all(b in (term.X, ID) for b in blocks)
        assert sum(b.n_in for b in blocks) == n
    crossings = sum(blocks.count(term.X) for blocks in layers)
    assert crossings == _inversions(perm)
    assert semantics.map_equal(semantics.interpret(t, Z), _signed_permutation(perm))


@pytest.mark.parametrize("n", range(6))
def test_crossing_perm_every_small_permutation(n):
    for perm in itertools.permutations(range(n)):
        _check_crossing_network(list(perm))


def test_crossing_perm_seeded_twelve_wires():
    perm = list(range(12))
    random.Random(12).shuffle(perm)
    _check_crossing_network(perm)


@pytest.mark.parametrize("perm", [[0, 0, 1, 2], [0, 1, 3], [0, 1, 2, 4], [1, 2], [[1], [0]],
                                  list(range(term.SHARED_NETWORK_WIRES)) + [99],
                                  [0, "a"], [0, [1]], (0, None)])
def test_crossing_perm_rejects_non_permutation(perm):
    for _ in range(3):  # on every call: no error is kept, and none stands in for a network
        with pytest.raises(ArityError, match="is not a permutation"):
            term.crossing_perm(perm)


def test_crossing_perm_shares_one_network_per_permutation():
    perm = [2, 0, 3, 1]
    t = term.crossing_perm(perm)
    assert term.crossing_perm(tuple(perm)) is t and term.crossing_perm(list(perm)) is t
    assert term.crossing_perm([2, 0, 1, 3]) is not t
    # the identity's network, and a network at the bound, are shared too
    assert term.crossing_perm(range(3)) is term.crossing_perm([0, 1, 2]) == term.identity(3)
    widest = list(range(term.SHARED_NETWORK_WIRES))[::-1]
    assert term.crossing_perm(widest) is term.crossing_perm(tuple(widest))


def test_a_network_wider_than_the_bound_is_built_on_every_call():
    perm = list(range(term.SHARED_NETWORK_WIRES + 1))
    random.Random(17).shuffle(perm)
    before = term._shared_network.cache_info()
    t, again = term.crossing_perm(perm), term.crossing_perm(tuple(perm))
    assert term._shared_network.cache_info() == before  # neither looked up nor kept
    assert t is not again and t == again
    shared = term._shared_network(tuple(perm))  # what sharing would have kept
    assert shared == t and hash(shared) == hash(t) and render(shared) == render(t)


def test_the_shared_networks_stay_bounded():
    cache = term._shared_network
    cache.cache_clear()
    size = cache.cache_info().maxsize
    assert size is not None
    perms = list(itertools.islice(itertools.permutations(range(7)), size + 10))
    kept = [term.crossing_perm(p) for p in perms]
    info = cache.cache_info()
    assert (info.currsize, info.misses, info.hits) == (size, size + 10, 0)
    # the ten least recently used are dropped: the newest is found, the oldest rebuilt
    assert term.crossing_perm(perms[-1]) is kept[-1]
    oldest = term.crossing_perm(perms[0])
    assert oldest is not kept[0] and oldest == kept[0]
    assert cache.cache_info().currsize == size
    cache.cache_clear()


def _bubble_network(perm):
    """One crossing per inversion, one padded layer per crossing."""
    n = len(perm)
    cur = list(perm)
    layers = []
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if cur[i] > cur[i + 1]:
                layers.append(term.par_all(
                    [term.identity(i), term.X, term.identity(n - i - 2)]))
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                changed = True
    return term.seq_all(layers)


@pytest.mark.parametrize("perm", [[1, 0], [2, 0, 1], [3, 2, 1, 0],
                                  [1, 3, 0, 2], [4, 2, 0, 3, 1]])
def test_crossing_perm_matches_bubble_network_at_d3(perm):
    # at d = 3 the crossing is not an involution, so only the reducedness
    # of both words makes them denote the same map
    c = ring.C(1e-9)
    new = semantics.interpret(term.crossing_perm(perm), c, 3)
    old = semantics.interpret(_bubble_network(perm), c, 3)
    assert len(new.entries) == 3 ** len(perm)
    assert semantics.map_equal(new, old)


def test_wide_row_of_generators(capsys):
    # 3000 generators side by side: no walk over the * spine may recurse
    t = term.par_all([term.wspider(0, 1)] * 3000)
    text = render(t)
    assert repr(t) == f"{type(t).__name__}({text!r})"
    assert parse(text, Z) == t and hash(parse(text, Z)) == hash(t)
    assert term.adjoint(term.adjoint(t)) == t
    nf = normalform.normalize(t, Z)
    assert [(str(c), w) for c, w in nf.nf.rows] == [("1", "1" * 3000)]
    m = semantics.interpret(t, Z)
    assert {k: str(v) for k, v in m.entries.items()} == {("1" * 3000, ""): "1"}
    assert main(["roundtrip", text]) == 0


def test_whitespace_insignificant():
    a = parse(" w(0,2)  ;x ", Z)
    b = parse("w(0,2);x", Z)
    assert a == b
    # any whitespace, inside a generator or a label too
    for text, r, rendered in [("z(1,1)[1\t]", Z, "z(1,1)[1]"), ("z(1,1)[1\n]", Z, "z(1,1)[1]"),
                              ("z(1,1)[\t1 / 2\n+ i ]", QI, "z(1,1)[1/2+i]"),
                              ("w ( 0 , 2 )\n;\tx", Z, "w(0,2) ; x"),
                              ("\tket (\n1 ) *\rz\t(0,1)\n[\n-3\n]\n", Z, "ket(1) * z(0,1)[-3]")]:
        assert render(parse(text, r)) == rendered


def test_module_doctests():
    import doctest
    assert doctest.testmod(term).failed == 0
