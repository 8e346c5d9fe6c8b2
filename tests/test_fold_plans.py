"""Fold plans: the first fold of a term builds the plan of its walk and
keeps it on the term's root node, and every later fold runs from it (see
``zwcalc.term.fold``).  A plan holds structure only, so a term folded from
its plan must give what a copy of it without one gives, value for value."""

import copy
import functools
import pickle
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from zwcalc import normalform, qudit, ring, semantics, term
from zwcalc.term import ArityError, ID

import helpers

Z, QI, ZN6, C = ring.Z(), ring.Qi(), ring.Zn(6), ring.C()


def _labels(r) -> list:
    """Spider labels over ``r``; over C with both signs of a zero part."""
    if r is C:
        return [ring.complex_value(C, v) for v in (2, -1, complex(-0.0, 1), complex(0.0, -0.0))]
    return [ring.from_int(r, v) for v in (-2, -1, 2, 3)]


def _term(seed: int, r) -> term.Term:
    """A seeded term over ``r``: a first layer of small random chains, some
    of them shared gadgets, side by side (nested chains); then, on its
    outputs, a wiring run; and maybe the merge gadget as a nested chain."""
    rng, labels = random.Random(seed), _labels(r)
    blocks = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.2:
            blocks.append(rng.choice([term.w_comonoid(2), term.w_monoid(2), term.twist()]))
        else:
            blocks.append(helpers.random_term(random.Random(rng.randrange(10 ** 6)), labels,
                                              max_generators=4, max_wires=2))
    t = term.par_all(blocks)
    if t.n_out >= 2:
        t = term.seq_all([t, *helpers.wiring_run(rng, t.n_out)])
    if t.n_out >= 2 and rng.random() < 0.5:
        t = t >> (term.w_monoid(2) @ term.identity(t.n_out - 2))
    return t


def _read(pillar: str, t, r, d: int = 2):
    """The pillar's result with every raw value by its repr, in order."""
    if pillar == "interpret":
        m = semantics.interpret(t, r, d)
        return m.n_in, m.n_out, [(k, repr(v.value)) for k, v in m.entries.items()]
    m = normalform.normalize(t, r)
    return m.n_in, m.n_out, [(repr(c.value), w) for c, w in m.nf.rows]


def _planned(t) -> bool:
    return hasattr(t, "_plan")


@pytest.mark.parametrize("pillar, r, d", [
    ("interpret", Z, 2), ("interpret", QI, 2), ("interpret", ZN6, 2),
    ("interpret", C, 2), ("interpret", C, 3), ("interpret", C, 4),
    ("normalize", Z, 2), ("normalize", QI, 2), ("normalize", ZN6, 2),
])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 9))
def test_a_reused_plan_gives_what_a_plan_less_copy_gives(pillar, r, d, seed):
    t = _term(seed, r)
    try:
        helpers.clear_tables()  # every small-chain cache missed
        want = _read(pillar, copy.copy(t), r, d)
        helpers.clear_tables()
        first = _read(pillar, t, r, d)  # builds the plan, unless a shared gadget has one
        assert _planned(t) or isinstance(t, term.Generator)  # a bare leaf is not folded
        plan = getattr(t, "_plan", None)
        second = _read(pillar, t, r, d)  # from the plan, with the caches filled
        helpers.clear_tables()
        third = _read(pillar, t, r, d)  # from the plan, every cache missed again
        assert first == second == third == want
        assert getattr(t, "_plan", None) is plan
    finally:
        helpers.clear_tables()


def test_a_planned_run_that_declines_is_joined_layer_by_layer(monkeypatch, fresh_tables):
    # a run of two x layers on a three-wire state, then a spider layer
    t = term.seq_all([term.zspider(0, 2, ring.from_int(Z, 3)) @ term.ket(1),
                      term.X @ ID, ID @ term.X, term.wspider(1, 1) @ term.identity(2)])
    runs = []
    for module, name in ((semantics, "_apply_run"), (normalform, "_plug_run")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real:
                            runs.append(real(*args)) or runs[-1])
    before = {p: _read(p, t, Z) for p in ("interpret", "normalize")}
    assert _planned(t) and len(runs) == 2 and None not in runs
    # plant an x table that no signed swap has: an extra |11> -> |00> entry
    real_entries, real_nf = qudit.generator_entries, normalform.generator_nf

    def entries(g, r, d):
        out = real_entries(g, r, d)
        if g.kind == "x":
            out[("00", "11")] = r.one
        return out

    def nf(g, r):
        if g.kind != "x":
            return real_nf(g, r)
        rows = {w: c for c, w in real_nf(g, r).nf.rows}
        rows["1100"] = r.one
        pre = normalform.PreNormalForm(2, 4, tuple((c, w) for w, c in rows.items()))
        return normalform.MapNormalForm(2, 2, normalform.canonicalize(pre))

    helpers.clear_tables()
    monkeypatch.setattr(qudit, "generator_entries", entries)
    monkeypatch.setattr(normalform, "generator_nf", nf)
    runs.clear()
    for p in ("interpret", "normalize"):
        got = _read(p, t, Z)  # from the plan: the run declines, the layers join it
        assert got == _read(p, copy.copy(t), Z) != before[p]
    assert runs == [None] * 4
    # the two pillars' layer joins agree on the planted table
    rows = {w: c for c, w in normalform.normalize(t, Z).nf.rows}
    assert rows == {w: v for (w, _), v in semantics.interpret(t, Z).entries.items()}


def test_one_plan_serves_every_set_of_callbacks():
    small = term.wspider(0, 1) >> term.wspider(1, 2)  # a leaf, by its key
    big = term.seq_all([small, *[ID @ ID] * 8])  # 35 nodes: laid out
    t = term.seq_all([small @ big @ term.ket(0), ID @ term.X @ ID @ ID,
                      term.X @ term.SWAP @ ID, term.wspider(4, 1) @ ID])

    def kind(source):  # a small chain's key as the kinds of the chain it is
        if isinstance(source, term.Generator):
            return source.kind
        return tuple(u.kind for u in source if isinstance(u, term.Generator))

    by_kind = (kind, lambda acc, values: (acc, values),
               lambda acc, layers: ("run", acc, [list(x) for x in layers]))
    by_arity = (lambda s: len(s) if type(s) is tuple else (s.n_in, s.n_out),
                lambda acc, values: [acc, len(values), values], lambda acc, layers: None)
    kinds = term.fold(t, *by_kind)
    arities = term.fold(t, *by_arity)  # from the plan the first call built
    assert kinds == term.fold(copy.copy(t), *by_kind) == term.fold(t, *by_kind)
    assert arities == term.fold(copy.copy(t), *by_arity) == term.fold(t, *by_arity)
    # big's spine starts with small's two layers; its id layers cross nothing
    laid_out = ("run", ((None, ["w"]), ["w"]), [[]] * 8)
    assert kinds == (("run", (None, [("w", "w"), laid_out, "ket"]),
                      [[(1, "x")], [(0, "x"), (2, "swap")]]), ["w", "id"])
    assert arities[1:] == [2, [(4, 1), (1, 1)]]


def _shared_chain_term(r) -> term.Term:
    """``T = P * Q ; id⁵``: P reads a laid-out chain X, and Q reads a
    laid-out chain Y that reads X too, so Y is laid out after X, which it
    needs joined first.  Built through the API, as ``parse`` shares no chain."""
    a, b = _labels(r)[:2]
    z = term.zspider
    # 2 x 17 layers, 37 nodes: too large to be a leaf
    x = term.seq_all([term.wspider(0, 2), *[z(1, 1, a) @ ID, term.X, ID @ z(1, 1, b)] * 5,
                      term.SWAP])
    assert x.n_out == 2 and term._chain_key(x) is None
    p = (x @ term.ket(1)) >> (z(1, 1, b) @ term.wspider(2, 1))
    y = (term.ket(0) @ x) >> (term.wspider(1, 1) @ term.X)
    q = (y @ term.ket(1)) >> (ID @ ID @ term.wspider(2, 1))
    return (p @ q) >> term.identity(5)


@pytest.mark.parametrize("pillar, r, d", [
    ("interpret", Z, 2), ("interpret", QI, 2), ("interpret", C, 3),
    ("normalize", Z, 2), ("normalize", QI, 2),
])
def test_a_chain_shared_by_two_laid_out_chains_is_joined_before_both(fresh_tables, pillar,
                                                                      r, d):
    t = _shared_chain_term(r)
    want = _read(pillar, copy.copy(t), r, d)
    assert want[2]  # not the zero map
    for _ in range(2):  # the first call builds the plan, the second runs from it
        assert _read(pillar, t, r, d) == want


def test_a_leaf_that_raises_keeps_raising_and_the_plan_serves_on(monkeypatch, fresh_tables):
    chain = term.wspider(0, 2) >> term.X
    t = chain @ term.identity(3) @ term.ket(2)
    twin = (term.wspider(0, 2) >> term.X) @ term.identity(3) @ term.ket(2)
    built = _count_plans(monkeypatch)
    for _ in range(3):
        with pytest.raises(ArityError, match=r"ket\(2\)"):
            normalform.normalize(t, QI)
    # t's plan, and that of the copy of its small chain, joined once on the cache's miss
    assert built == [t, chain] and built[1] is not chain and _planned(t)
    # over C at d = 3 the same term object folds from its plan
    assert _read("interpret", t, C, 3) == _read("interpret", copy.copy(t), C, 3)
    assert sum(u is t for u in built) == 1
    # ==, hash, repr, copies and pickles ignore the plan
    assert t == twin and twin == t and hash(t) == hash(twin) and repr(t) == repr(twin)
    assert not _planned(twin)
    for other in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert other == t and hash(other) == hash(t) and not _planned(other)


def test_a_block_that_is_not_a_term_leaves_no_plan():
    stray = types.SimpleNamespace(n_in=1, n_out=1)
    # in a layer, in a small nested chain (its key walk finds it) and in a large one
    for t in (term.Par(ID, stray), term.Par(term.Seq(ID, stray), ID),
              term.Par(term.seq_all([ID] * 20 + [stray]), ID)):
        for _ in range(2):
            with pytest.raises(ArityError, match="not a term"):
                term.fold(t, lambda g: g.kind, lambda acc, values: values,
                          lambda acc, layers: None)
            assert not _planned(t)


def _count_plans(monkeypatch) -> list:
    built, real = [], term._planned
    monkeypatch.setattr(term, "_planned", lambda u: built.append(u) or real(u))
    return built


def test_a_deep_chain_folds_from_its_plan(monkeypatch, fresh_tables):
    # the CI's chain_in_row: 3000 levels of (w(0,1) * (...)) ; w(2,1)
    t = functools.reduce(lambda u, _: (term.wspider(0, 1) @ u) >> term.wspider(2, 1),
                         range(3000), term.ket(0))
    built = _count_plans(monkeypatch)
    rows = [normalform.normalize(t, QI) for _ in range(2)]
    maps = [semantics.interpret(t, QI) for _ in range(2)]
    # the innermost level is a small chain: each pillar's cache joins a copy of it once
    inner = (term.wspider(0, 1) @ term.ket(0)) >> term.wspider(2, 1)
    assert built[0] is t and built[1:] == [inner, inner]
    assert rows[0] == rows[1] and semantics.map_equal(maps[0], maps[1])
    assert semantics.map_equal(rows[0].to_sparse(QI), maps[0]) and not maps[0].is_zero()


def test_a_wide_crossing_network_folds_from_its_plan(monkeypatch, fresh_tables):
    # 300 wires, one w(0,1) on each, then every wire sent to the mirrored
    # position: about 45000 crossings in 300 layers
    n = 300
    t = term.par_all([term.wspider(0, 1)] * n) >> term.crossing_perm(list(range(n))[::-1])
    built = _count_plans(monkeypatch)
    for pillar in ("normalize", "interpret", "normalize", "interpret"):
        assert _read(pillar, t, Z) == ((0, n, [("1", "1" * n)]) if pillar == "normalize"
                                       else (0, n, [(("1" * n, ""), "1")]))
    assert built == [t]


def _diagrams_sharing_a_network(r, d: int) -> list:
    """Two canonical diagrams over ``r`` at ``d`` with the same words and
    other amplitudes, so one crossing network."""
    if d == 2:
        words = ["0110", "1011", "1100", "0111"]
        return [normalform.nf_to_term(normalform.canonicalize(normalform.PreNormalForm(
            2, 4, tuple((ring.from_int(r, v), w) for v, w in zip(values, words)))))
            for values in ([1, -2, 3, 2], [2, 5, -1, -3])]
    p = qudit.QParams(d, 1e-9)
    words = ["012", "201", "110"]
    return [qudit.qudit_universal_nf(semantics.make_map(r, d, 0, 3, {
        (w, ""): ring.complex_value(r, a) for w, a in zip(words, amps)}), p)[0]
        for amps in ([1, 2j, complex(-0.0, 1)], [3 - 1j, 0.25, -1])]


@pytest.mark.parametrize("pillar, r, d", [
    ("interpret", Z, 2), ("interpret", QI, 2), ("normalize", Z, 2), ("normalize", QI, 2),
    ("interpret", C, 3),
])
def test_diagrams_that_share_a_network_read_as_plan_less_copies(pillar, r, d):
    diagrams = _diagrams_sharing_a_network(r, d)
    networks = [t.first.then for t in diagrams]  # bottom ; whites ; network ; merges
    assert networks[0] is networks[1] and networks[0].n_in > 3
    assert diagrams[0] != diagrams[1]
    for t in diagrams:
        helpers.clear_tables()
        want = _read(pillar, copy.copy(t), r, d)
        helpers.clear_tables()
        assert _read(pillar, t, r, d) == want  # builds t's plan
        assert _read(pillar, t, r, d) == want  # from it, with the caches filled
    # the network folded on its own, then inside both diagrams, from their plans
    alone = _read(pillar, networks[0], r, d)
    assert alone == _read(pillar, copy.copy(networks[0]), r, d)
    assert [_read(pillar, t, r, d) for t in diagrams] == [
        _read(pillar, copy.copy(t), r, d) for t in diagrams]


def test_law_terms_are_shared_so_every_check_folds_from_their_plans(monkeypatch):
    assert qudit.law_terms(3) is qudit.law_terms(3)
    with pytest.raises(TypeError):
        qudit.law_terms(3)["bialgebra"] = None  # shared, so read-only
    p = qudit.QParams(3, 1e-9)
    checks = (qudit.check_bialgebra, qudit.check_antipode, qudit.check_commutation)
    for check in checks:
        check(p)
    built = _count_plans(monkeypatch)
    assert all(check(p).passed for check in checks)
    assert built == []
