"""The pillars' small-chain caches: a small nested chain is a leaf of the
fold, known by its key, and each pillar keeps its value beside its
generator tables (``semantics._chain_map``, ``normalform._chain_nf``;
see ``zwcalc.term.fold``)."""

import copy
import functools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from zwcalc import normalform, ring, semantics, term
from zwcalc.ring import RingMismatchError
from zwcalc.term import ArityError, ID

import helpers

Z, QI, ZN6, C = ring.Z(), ring.Qi(), ring.Zn(6), ring.C()
PILLARS = {"interpret": (semantics.interpret, semantics._chain_map),
           "normalize": (normalform.normalize, normalform._chain_nf)}
# the generators that take no label: every chain of them is cached over C too
LABEL_FREE_POOL = helpers.PURE_POOL + ("ket0", "ket1")


def _entries(cache) -> int:
    return cache.cache_info().currsize


def test_gadget_builders_return_shared_terms():
    assert term.w_monoid(2) is term.w_monoid(2)
    assert term.w_comonoid(3) is term.w_comonoid(3)
    assert term.twist() is term.twist()
    assert term.bra(1) is term.bra(1)
    assert term.negate() is term.negate() is term.wspider(1, 1)
    assert term.w_monoid(2) == term.seq(term.wspider(2, 1), term.wspider(1, 1))


def test_a_full_table_drops_its_oldest_value(fresh_tables):
    # 1025 distinct small chains: z(1,1)[k] ; id for k = 1..1025
    chains = [(term.zspider(1, 1, ring.from_int(Z, k)) >> ID) @ ID for k in range(1, 1026)]
    for run, cache in PILLARS.values():
        for t in chains:
            run(t, Z)
        assert _entries(cache) == cache.cache_info().maxsize == 1024
        misses = cache.cache_info().misses
        run(chains[-1], Z)  # the newest is kept
        assert cache.cache_info().misses == misses
        run(chains[0], Z)  # the oldest was dropped
        assert cache.cache_info().misses == misses + 1


def _nested_term(seed: int, r, pool=helpers.FULL_POOL) -> term.Term:
    """A seeded term whose first layer holds small random chains, some of
    them gadgets, side by side, and whose second layer may merge two
    wires with ``w_monoid(2)`` as a nested chain."""
    rng = random.Random(seed)
    labels = [ring.from_int(r, v) for v in (-2, -1, 2, 3)] if r.exact else []
    blocks = []
    for _ in range(rng.randint(2, 3)):
        pick = rng.random()
        if pick < 0.2:
            blocks.append(rng.choice([term.w_comonoid(2), term.w_monoid(2), term.twist()]))
        else:
            sub = rng.randrange(10 ** 6)  # an equal chain may come back as another object
            blocks.append(helpers.random_term(random.Random(sub), labels, pool=pool,
                                              max_generators=4, max_wires=2))
    t = term.par_all(blocks)
    if t.n_out >= 2 and rng.random() < 0.7:
        t = t >> (term.w_monoid(2) @ term.identity(t.n_out - 2))
    return t


def _read(pillar: str, t, r, d: int = 2):
    """The pillar's result as exact, ordered text: entries or rows."""
    if pillar == "interpret":
        return [(k, repr(v.value)) for k, v in semantics.interpret(t, r, d).entries.items()]
    m = normalform.normalize(t, r)
    return (m.n_in, m.n_out, [(repr(c.value), w) for c, w in m.nf.rows])


def _laid_out(pillar: str, t, r, d: int = 2):
    """:func:`_read` of a plan-less copy of ``t`` in which no chain is a
    leaf, so the fold joins every nested chain itself."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(term, "CHAIN_KEY_NODES", 1)  # every key walk stops at once
        return _read(pillar, copy.copy(t), r, d)


RINGS = (Z, QI, ZN6)


@pytest.mark.parametrize("pillar", PILLARS)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 9), r=st.sampled_from(RINGS))
def test_a_full_table_gives_what_a_cleared_one_does(pillar, seed, r):
    t, twin = _nested_term(seed, r), _nested_term(seed, r)  # equal, other nested objects
    others = [_nested_term(seed + k, r) for k in (1, 2)]
    try:
        cleared = []
        for u in (t, *others):
            helpers.clear_tables()
            cleared.append(_read(pillar, u, r))
        assert cleared[0] == _laid_out(pillar, t, r)
        for other in RINGS:  # the same chains over every ring, labels read in each
            if other is not r:
                _read(pillar, _nested_term(seed, other), other)
        # the caches now hold the chains of every term, over each ring
        for u, want in zip((t, *others, twin, t), (*cleared, cleared[0], cleared[0])):
            assert _read(pillar, u, r) == want
    finally:
        helpers.clear_tables()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 9))
def test_label_free_chains_over_c_are_cached_bit_for_bit(seed):
    t = _nested_term(seed, C, LABEL_FREE_POOL)
    try:
        missed = {}
        for d in (2, 3, 4):
            helpers.clear_tables()
            missed[d] = _read("interpret", t, C, d)
        for d in (2, 3, 4):  # the cache now holds the chains at every d
            assert _read("interpret", t, C, d) == missed[d] == _laid_out("interpret", t, C, d)
    finally:
        helpers.clear_tables()


# label parts with both zero signs: C's tolerant eq calls many of the labels
# equal, but they print apart and their tables keep each sign
SIGNED_PARTS = (0.0, -0.0, 1.0, -1.0)
SIGNED_LABELS = st.builds(lambda re, im: ring.complex_value(C, complex(re, im)),
                           st.sampled_from(SIGNED_PARTS), st.sampled_from(SIGNED_PARTS))
# a Z spider leaf, or a small chain that recurs as an equal chain of new nodes
SIGNED_BLOCKS = st.one_of(
    st.builds(lambda u: term.zspider(0, 1, u), SIGNED_LABELS),
    st.builds(lambda u: term.ket(1) >> term.zspider(1, 1, u), SIGNED_LABELS),
    st.builds(lambda u, v: term.zspider(0, 1, u) >> term.zspider(1, 1, v),
              SIGNED_LABELS, SIGNED_LABELS))


@settings(max_examples=150, deadline=None)
@given(terms=st.lists(st.lists(SIGNED_BLOCKS, min_size=1, max_size=3).map(term.par_all),
                      min_size=2, max_size=4),
       d=st.sampled_from([2, 3]))
def test_c_labels_are_told_apart_as_they_render(terms, d):
    for a in terms:
        for b in terms:
            assert (a == b) == (term.render(a) == term.render(b))
            if a == b:
                assert hash(a) == hash(b)
    spiders = [u for t in terms for u in term._preorder(t)
               if isinstance(u, term.Generator) and u.kind == "z"]
    for g in spiders:
        for h in spiders:
            assert (g.label == h.label) == (str(g.label) == str(h.label))
            assert g.label != h.label or hash(g.label) == hash(h.label)
    try:
        helpers.clear_tables()
        # after the first read, each may hit a table or chain value an earlier one stored
        warm = [_read("interpret", t, C, d) for t in terms * 2]
        for t, want in zip(terms * 2, warm):
            helpers.clear_tables()
            assert _read("interpret", copy.copy(t), C, d) == want  # a cold fold
    finally:
        helpers.clear_tables()


@pytest.mark.parametrize("pillar", PILLARS)
@pytest.mark.parametrize("chain, error", [
    (lambda: term.ket(2) >> term.wspider(1, 1), ArityError),
    (lambda: term.zspider(1, 1, ring.from_int(QI, 2)) >> ID, RingMismatchError),
], ids=["ket(2)", "a Qi label"])
def test_a_chain_that_raises_is_never_stored(fresh_tables, pillar, chain, error):
    run, cache = PILLARS[pillar]
    t = chain() @ ID
    for _ in range(2):
        with pytest.raises(error):
            run(t, Z)
        assert _entries(cache) == 0
    run((term.wspider(0, 1) >> term.wspider(1, 1)) @ ID, Z)  # a chain that closes
    assert _entries(cache) == 1


@pytest.mark.parametrize("d", [2, 3])
def test_c_keeps_each_zero_sign(fresh_tables, d):
    # labels whose real parts are 0.0 and -0.0 print apart, so they are two
    # elements: a chain with either is keyed, and each key keeps its own value
    for _ in range(2):
        for zero in (0.0, -0.0):
            label = ring.complex_value(C, complex(zero, 1))
            t = (term.zspider(1, 1, label) >> ID) @ ID
            m = semantics.interpret(t, C, d)
            value = m.entries[("10", "10")].value
            assert math.copysign(1, value.real) == math.copysign(1, zero) and value.imag == 1
            assert type(t._plan[1][0]) is tuple  # a key in the plan
    info = semantics._chain_map.cache_info()
    assert (info.currsize, info.misses, info.hits) == (2, 2, 2)  # one value per sign


def test_a_deep_term_stores_no_long_key(fresh_tables):
    # the CI's chain_in_row: 3000 levels of (w(0,1) * (...)) ; w(2,1)
    t = functools.reduce(lambda u, _: (term.wspider(0, 1) @ u) >> term.wspider(2, 1),
                         range(3000), term.ket(0))
    for run, cache in PILLARS.values():
        run(t, QI)
        assert _entries(cache) == 1  # the innermost level
    keys = [s for s in t._plan[1] if type(s) is tuple]
    assert len(keys) == 1 and len(keys[0]) <= term.CHAIN_KEY_NODES


@pytest.mark.parametrize("pillar", PILLARS)
def test_only_small_chains_of_leaf_layers_are_keyed(fresh_tables, monkeypatch, pillar):
    run, cache = PILLARS[pillar]
    # n id layers make a chain of 2n - 1 nodes
    for n, keyed in ((16, 1), (17, 0)):
        cache.cache_clear()
        run(term.seq_all([ID] * n) @ ID, Z)
        assert _entries(cache) == keyed
    # a chain whose layer holds a nested chain: only the inner one is keyed
    cache.cache_clear()
    inner = term.wspider(0, 1) >> term.wspider(1, 1)
    calls, real = [], term._assembled
    monkeypatch.setattr(term, "_assembled", lambda key: calls.append(key) or real(key))
    run(((inner @ ID) >> term.X) @ ID, Z)
    assert calls == [term._chain_key(inner)] and _entries(cache) == 1


@pytest.mark.parametrize("pillar, module", [("interpret", semantics), ("normalize", normalform)])
def test_a_stored_chain_is_indexed_once(fresh_tables, monkeypatch, pillar, module):
    _, cache = PILLARS[pillar]
    calls = []
    by_input = module._by_input
    monkeypatch.setattr(module, "_by_input", lambda *args: calls.append(args) or by_input(*args))
    # the merge gadget as a nested chain, joined onto one of three wires
    t = term.wspider(0, 3) >> (term.w_monoid(2) @ ID)
    first = _read(pillar, t, QI)
    assert calls and _entries(cache) == 1
    calls.clear()
    assert _read(pillar, t, QI) == first
    assert calls == []
    key = term._chain_key(term.w_monoid(2))
    value = cache(key, QI, 2) if pillar == "interpret" else cache(key, QI)
    assert value.by_input is not None and _entries(cache) == 1
