"""The pillars' chain tables: values of small nested chains kept from one
call to the next (see ``zwcalc.term.fold``)."""

import functools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from zwcalc import normalform, ring, semantics, term
from zwcalc.ring import RingMismatchError
from zwcalc.term import ArityError, ID

import helpers

Z, QI, ZN6 = ring.Z(), ring.Qi(), ring.Zn(6)
PILLARS = {"interpret": (semantics.interpret, semantics.chain_maps),
           "normalize": (normalform.normalize, normalform.chain_nfs)}


def test_gadget_builders_return_shared_terms():
    assert term.w_monoid(2) is term.w_monoid(2)
    assert term.w_comonoid(3) is term.w_comonoid(3)
    assert term.twist() is term.twist()
    assert term.bra(1) is term.bra(1)
    assert term.negate() is term.negate() is term.wspider(1, 1)
    assert term.w_monoid(2) == term.seq(term.wspider(2, 1), term.wspider(1, 1))


def test_a_full_table_drops_its_oldest_value():
    table = term.ChainTable(2, lambda value: 10 * value)  # stores each value prepared
    z, qi = table.at(Z), table.at(QI)
    assert table.at(Z) is z
    z["a"], qi["a"], z["b"] = 1, 2, 3
    assert (z.get("a"), qi.get("a"), z.get("b")) == (None, 20, 30)
    assert list(table) == [(QI, "a"), (Z, "b")]


def _nested_term(seed: int, r) -> term.Term:
    """A seeded term whose first layer holds small random chains, some of
    them gadgets, side by side, and whose second layer may merge two
    wires with ``w_monoid(2)`` as a nested chain."""
    rng = random.Random(seed)
    labels = [ring.from_int(r, v) for v in (-2, -1, 2, 3)]
    blocks = []
    for _ in range(rng.randint(2, 3)):
        pick = rng.random()
        if pick < 0.2:
            blocks.append(rng.choice([term.w_comonoid(2), term.w_monoid(2), term.twist()]))
        else:
            sub = rng.randrange(10 ** 6)  # an equal chain may come back as another object
            blocks.append(helpers.random_term(random.Random(sub), labels, max_generators=4,
                                              max_wires=2))
    t = term.par_all(blocks)
    if t.n_out >= 2 and rng.random() < 0.7:
        t = t >> (term.w_monoid(2) @ term.identity(t.n_out - 2))
    return t


def _read(pillar: str, t, r):
    """The pillar's result as exact, ordered text: entries or rows."""
    if pillar == "interpret":
        return [(k, repr(v.value)) for k, v in semantics.interpret(t, r).entries.items()]
    m = normalform.normalize(t, r)
    return (m.n_in, m.n_out, [(repr(c.value), w) for c, w in m.nf.rows])


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
        for other in RINGS:  # the same chains over every ring, labels read in each
            if other is not r:
                _read(pillar, _nested_term(seed, other), other)
        # the table now holds the chains of every term, over each ring
        for u, want in zip((t, *others, twin, t), (*cleared, cleared[0], cleared[0])):
            assert _read(pillar, u, r) == want
    finally:
        helpers.clear_tables()


@pytest.mark.parametrize("pillar", PILLARS)
@pytest.mark.parametrize("chain, error", [
    (lambda: term.ket(2) >> term.wspider(1, 1), ArityError),
    (lambda: term.zspider(1, 1, ring.from_int(QI, 2)) >> ID, RingMismatchError),
], ids=["ket(2)", "a Qi label"])
def test_a_chain_that_raises_is_never_stored(fresh_tables, pillar, chain, error):
    run, table = PILLARS[pillar]
    t = chain() @ ID
    for _ in range(2):
        with pytest.raises(error):
            run(t, Z)
        assert len(table) == 0
    run((term.wspider(0, 1) >> term.wspider(1, 1)) @ ID, Z)  # a chain that closes
    assert len(table) == 1


@pytest.mark.parametrize("d", [2, 3])
def test_c_keeps_each_zero_sign(fresh_tables, d):
    # equal labels whose real parts are 0.0 and -0.0: over C no value is shared
    C = ring.C()
    for _ in range(2):
        for zero in (0.0, -0.0):
            label = ring.complex_value(C, complex(zero, 1))
            t = (term.zspider(1, 1, label) >> ID) @ ID
            m = semantics.interpret(t, C, d)
            value = m.entries[("10", "10")].value
            assert math.copysign(1, value.real) == math.copysign(1, zero) and value.imag == 1
    assert len(semantics.chain_maps) == 0


def test_a_deep_term_stores_no_long_key(fresh_tables):
    # the CI's chain_in_row: 3000 levels of (w(0,1) * (...)) ; w(2,1)
    t = functools.reduce(lambda u, _: (term.wspider(0, 1) @ u) >> term.wspider(2, 1),
                         range(3000), term.ket(0))
    for run, table in PILLARS.values():
        run(t, QI)
        assert 0 < len(table) and max(len(key) for _, key in table) <= term.CHAIN_KEY_NODES


@pytest.mark.parametrize("pillar", PILLARS)
def test_only_small_chains_of_leaf_layers_are_keyed(fresh_tables, pillar):
    run, table = PILLARS[pillar]
    # n id layers make a chain of 2n - 1 nodes
    for n, keyed in ((16, 1), (17, 0)):
        table.clear()
        run(term.seq_all([ID] * n) @ ID, Z)
        assert len(table) == keyed
    # a chain whose layer holds a nested chain: only the inner one is keyed
    table.clear()
    inner = term.wspider(0, 1) >> term.wspider(1, 1)
    run(((inner @ ID) >> term.X) @ ID, Z)
    assert [key for _, key in table] == [term._chain_key(inner)]


@pytest.mark.parametrize("pillar, module", [("interpret", semantics), ("normalize", normalform)])
def test_a_stored_chain_is_indexed_once(fresh_tables, monkeypatch, pillar, module):
    run, table = PILLARS[pillar]
    calls = []
    by_input = module._by_input
    monkeypatch.setattr(module, "_by_input", lambda *args: calls.append(args) or by_input(*args))
    # the merge gadget as a nested chain, joined onto one of three wires
    t = term.wspider(0, 3) >> (term.w_monoid(2) @ ID)
    first = _read(pillar, t, QI)
    assert calls and len(table) == 1
    calls.clear()
    assert _read(pillar, t, QI) == first
    assert calls == []
    (value,) = table.values()
    assert value.by_input is not None
