import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from zwcalc import normalform, qudit, ring, semantics, term
from zwcalc.ring import UnsupportedOperationError
from zwcalc.term import ArityError
from zwcalc.semantics import interpret, map_equal, make_map
from zwcalc.normalform import (
    MapNormalForm,
    NormalForm,
    PreNormalForm,
    canonicalize,
    from_json_dict,
    generator_nf,
    nf_negate,
    nf_of_state,
    nf_permute,
    nf_tensor,
    nf_to_term,
    nf_trace,
    normalize,
    to_json_dict,
)

import helpers

Z = ring.Z()
QI = ring.Qi()
ONE = Z.one


def iz(k):
    return ring.from_int(Z, k)


def rows_of(nf):
    return [(str(c), w) for c, w in nf.rows]


def pre(n, rows):
    return PreNormalForm(2, n, tuple((iz(c), w) for c, w in rows))


def test_merge_duplicate_rows():
    nf = canonicalize(pre(2, [(1, "01"), (2, "01"), (1, "11")]))
    assert rows_of(nf) == [("3", "01"), ("1", "11")]


def test_cancellation_gives_zero_state():
    nf = canonicalize(pre(2, [(1, "01"), (-1, "01")]))
    assert nf.is_zero() and nf.n == 2


def test_doubled_wire_row_is_deleted_and_matches_semantics():
    p = pre(2, [(1, "20"), (1, "01")])
    nf = canonicalize(p)
    assert rows_of(nf) == [("1", "01")]
    # oracle: interpret the diagram of the pre-normal form directly
    direct = interpret(nf_to_term(p), Z)
    assert map_equal(direct, interpret(nf_to_term(nf), Z))


def test_canonicalize_is_idempotent():
    nf = canonicalize(pre(3, [(2, "011"), (1, "000"), (3, "011")]))
    assert canonicalize(nf) == nf


def test_nf_of_state_examples():
    ghz = nf_of_state(interpret(term.zspider(0, 3, ONE), Z))
    assert rows_of(ghz) == [("1", "000"), ("1", "111")]
    w2 = nf_of_state(interpret(term.wspider(0, 2), Z))
    assert rows_of(w2) == [("1", "01"), ("1", "10")]
    zero = nf_of_state(interpret(term.parse("(w(0,2) ; cap) * cup", Z), Z))
    assert zero.is_zero() and zero.n == 2
    with pytest.raises(Exception):
        nf_of_state(interpret(term.CAP, Z))


def test_nf_tensor():
    a = canonicalize(pre(1, [(1, "0")]))
    b = canonicalize(pre(1, [(1, "1")]))
    assert rows_of(nf_tensor(a, b)) == [("1", "01")]
    empty = NormalForm(2, 2, ())
    assert nf_tensor(empty, a).is_zero()
    assert nf_tensor(a, empty).n == 3


def test_tensor_then_trace_reproduces_snake():
    # pairing two self-duality states and plugging the inner legs is the
    # bent identity; the row calculus and the interpreter must agree
    z2 = nf_of_state(interpret(term.zspider(0, 2, ONE), Z))
    snaked = nf_trace(nf_tensor(z2, z2), 1, 2)
    snake_term = term.parse("(z(0,2)[1] * z(0,2)[1]) ; (id * cap * id)", Z)
    assert snaked == nf_of_state(interpret(snake_term, Z))
    assert snaked == generator_nf(term.ID, Z).nf


def test_nf_trace_examples():
    z2 = nf_of_state(interpret(term.zspider(0, 2, ONE), Z))
    assert rows_of(nf_trace(z2, 0, 1)) == [("2", "")]
    w2 = nf_of_state(interpret(term.wspider(0, 2), Z))
    assert nf_trace(w2, 0, 1).is_zero()
    three = canonicalize(pre(2, [(1, "00"), (1, "11"), (1, "01")]))
    assert rows_of(nf_trace(three, 0, 1)) == [("2", "")]
    with pytest.raises(Exception):
        nf_trace(z2, 0, 0)


def test_nf_negate():
    a = canonicalize(pre(2, [(1, "00"), (1, "11")]))
    assert rows_of(nf_negate(a, 0)) == [("1", "01"), ("1", "10")]
    assert nf_negate(nf_negate(a, 1), 1) == a
    with pytest.raises(UnsupportedOperationError):
        nf_negate(NormalForm(3, 1, ((iz(1), "2"),)), 0)


def test_ops_commute_with_semantics():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = {}
        for _ in range(rng.randint(0, 4)):
            rows["".join(rng.choice("01") for _ in range(n))] = iz(rng.randint(-3, 3))
        nf = canonicalize(PreNormalForm(2, n, tuple((c, w) for w, c in rows.items())))
        j = rng.randrange(n)
        # negation: composing with the binary node on wire j
        negated = interpret(
            nf_to_term(nf) >> term.par_all(
                [term.identity(j), term.negate(), term.identity(n - j - 1)]), Z)
        assert nf_of_state(negated) == nf_negate(nf, j)
        if n >= 2:
            traced = interpret(
                nf_to_term(nf) >> term.par_all(
                    [term.identity(n - 2), term.CAP]), Z)
            assert nf_of_state(traced) == nf_trace(nf, n - 2, n - 1)
        other = canonicalize(pre(1, [(2, "0"), (1, "1")]))
        both = interpret(term.par(nf_to_term(nf), nf_to_term(other)), Z)
        assert nf_of_state(both) == nf_tensor(nf, other)


def _swap_network(perm):
    """Plain swaps (no signs) sending wire i to position perm[i]."""
    n, cur, layers = len(perm), list(perm), []
    for _ in range(n):
        for i in range(n - 1):
            if cur[i] > cur[i + 1]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                layers.append(term.par_all(
                    [term.identity(i), term.SWAP, term.identity(n - i - 2)]))
    return term.seq_all(layers) if layers else term.identity(n)


@pytest.mark.parametrize("perm", list(itertools.permutations(range(4))))
def test_nf_permute_matches_swap_network(perm):
    # every coordinate carries a different pattern, so a misplaced
    # coordinate shows in the rows; normalize joins the network as a run
    # of plain swap layers
    nf = canonicalize(pre(4, [(1, "1000"), (2, "1100"), (3, "1110"),
                              (4, "0101"), (5, "0011"), (-6, "1111")]))
    t = nf_to_term(nf) >> _swap_network(list(perm))
    assert nf_permute(nf, list(perm)) == nf_of_state(interpret(t, Z)) == normalize(t, Z).nf


@pytest.mark.parametrize("perm", [[0, 0, 1, 2], [0, 1, 2], [0, 1, 2, 4]])
def test_nf_permute_rejects_non_permutation(perm):
    nf = canonicalize(pre(4, [(1, "1000")]))
    with pytest.raises(ArityError):
        nf_permute(nf, perm)


def test_generator_nf_crossing_has_minus_on_all_ones():
    g = generator_nf(term.X, Z)
    assert rows_of(g.nf) == [("1", "0000"), ("1", "0110"),
                             ("1", "1001"), ("-1", "1111")]


def test_generator_nf_spiders():
    z3 = generator_nf(term.zspider(0, 3, iz(5)), Z)
    assert rows_of(z3.nf) == [("1", "000"), ("5", "111")]
    cap = generator_nf(term.CAP, Z)
    assert rows_of(cap.nf) == [("1", "00"), ("1", "11")]
    assert (cap.n_in, cap.n_out) == (2, 0)
    # every transpose of a spider shares one bent table
    assert generator_nf(term.wspider(2, 1), Z).nf == \
        generator_nf(term.wspider(0, 3), Z).nf


def test_normalize_examples():
    t = term.parse("w(0,3) ; id * id * id", Z)
    assert normalize(t, Z).nf == nf_of_state(interpret(term.wspider(0, 3), Z))
    snake = term.parse("(id * cup) ; (cap * id)", Z)
    assert normalize(snake, Z) == normalize(term.ID, Z)
    hopf_lhs = term.parse("(w(1,1) ; w(1,2)) ; (id * (z(1,1)[-1])) ; (w(2,1) ; w(1,1))", Z)
    hopf_rhs = term.parse("z(1,1)[0]", Z)
    assert normalize(hopf_lhs, Z) == normalize(hopf_rhs, Z)


def test_identity_opens_with_the_bent_identity():
    words = ["".join(bits) for bits in itertools.product("01", repeat=12)]
    bent = MapNormalForm(12, 12, NormalForm(2, 24, tuple((ONE, w + w) for w in words)))
    t = term.identity(12)
    assert len(bent.nf.rows) == 4096
    assert normalize(t, Z) == bent
    assert map_equal(interpret(t, Z), bent.to_sparse(Z))


@pytest.mark.parametrize("r, text", [pytest.param(r, text, id=text) for r, text in [
    (Z, "cap * id * cap"),
    (Z, "id * cup * id ; x * z(2,1)[2] ; id * w(2,1)"),
    (Z, "(id * cup * id) * w(1,0) ; w(2,2) * cap ; z(2,0)[-1]"),
    # over Zn(6) 2 * 3 = 0, so rows 000:1, 010:2, 101:3, and no 111
    (ring.Zn(6), "z(0,1)[2] * z(1,1)[3]"),
    (ring.Zn(6), "z(1,1)[3] * cup * z(0,1)[2]"),
    (ring.Zn(6), "ket(1) * z(1,2)[2] * z(0,1)[3]"),
]])
def test_pillars_agree_on_opening_layers(r, text):
    t = term.parse(text, r)
    # the same nonzero values, word by word: no zero row and no zero entry
    rows = {w: c for c, w in normalize(t, r).nf.rows}
    assert rows == {u + w: v for (w, u), v in interpret(t, r).entries.items()}


def test_chain_with_empty_factors():
    empty = term.EMPTY
    t = term.seq_all([empty, term.CUP, term.par(term.CAP, empty), empty,
                      term.zspider(0, 2, iz(3))])
    assert rows_of(normalize(t, Z).nf) == [("2", "00"), ("6", "11")]
    assert map_equal(normalize(t, Z).to_sparse(Z), interpret(t, Z))
    assert rows_of(normalize(empty, Z).nf) == [("1", "")]
    assert map_equal(interpret(empty, Z), make_map(Z, 2, 0, 0, {("", ""): ONE}))


@settings(max_examples=250, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_normalize_agrees_with_interpreter(seed):
    rng = random.Random(seed)
    labels = [ring.from_int(Z, v) for v in (-2, -1, 0, 1, 2)]
    t = helpers.random_term(rng, labels)
    assert map_equal(normalize(t, Z).to_sparse(Z), interpret(t, Z))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_normalize_over_gaussians(seed):
    rng = random.Random(seed)
    labels = [ring.gaussian(QI, 1, 1), ring.gaussian(QI, 0, 1),
              ring.from_int(QI, -1), ring.from_int(QI, 2)]
    t = helpers.random_term(rng, labels)
    assert map_equal(normalize(t, QI).to_sparse(QI), interpret(t, QI))


def test_normalize_rows_pass_the_normal_form_checks():
    # the joins leave rows unsorted and the result is wrapped without
    # NormalForm's checks: sorted, distinct words of the right length
    from zwcalc import rules

    for r in (QI, Z, ring.Zn(6)):
        for inst in rules.axiom_instances(rules.DEFAULT_BOUNDS, r) + rules.derived_instances(
                rules.DEFAULT_BOUNDS, r):
            for side in (inst.lhs, inst.rhs, rules.mutate(inst, r).lhs):
                nf = normalize(side, r).nf
                assert NormalForm(nf.d, nf.n, nf.rows) == nf
    rng = random.Random(19)
    labels = [ring.from_int(Z, v) for v in (-2, -1, 0, 1, 2)]
    for _ in range(200):
        nf = normalize(helpers.random_term(rng, labels, max_wires=6), Z).nf
        assert NormalForm(nf.d, nf.n, nf.rows) == nf


def test_nf_to_term_round_trip():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(0, 4)
        entries = {}
        for _ in range(rng.randint(0, 6)):
            w = "".join(rng.choice("01") for _ in range(n))
            entries[(w, "")] = iz(rng.randint(-5, 5))
        state = make_map(Z, 2, 0, n, entries)
        nf = nf_of_state(state)
        t = nf_to_term(nf)
        assert map_equal(interpret(t, Z), state)
        # states with no letters (|0..0>, scalars) rebuild without EMPTY layers
        assert term.parse(term.render(t), Z) == t


# a parsed 1 is not the interned one, 1/2 is no Gaussian integer, and
# 2*3 = 0 mod 6, so a product's row must be dropped
WIDE_LABELS = ((Z, ("-2", "-1", "0", "1", "2")), (QI, ("0", "1", "-1", "i", "1/2")),
               (ring.Zn(6), ("2", "3")))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_normalize_agrees_with_interpreter_on_wide_terms(seed):
    rng = random.Random(seed)
    for r, texts in WIDE_LABELS:
        labels = [ring.parse_literal(r, s) for s in texts]
        t = helpers.random_term(rng, labels, pool=helpers.FULL_POOL + ("delta2", "mu2"),
                                max_generators=30, max_wires=10)
        # the same nonzero values, word by word: no zero row and no zero entry
        rows = {w: c for c, w in normalize(t, r).nf.rows}
        assert rows == {u + w: v for (w, u), v in interpret(t, r).entries.items()}


def _spider_layer(rng, n_in: int, n_out: int, labels) -> term.Term:
    """A row of random Z and W spiders from n_in to n_out wires."""
    groups = rng.randint(1, max(n_in, n_out, 1))
    ins, outs = [0] * groups, [0] * groups
    for counts, n in ((ins, n_in), (outs, n_out)):
        for _ in range(n):
            counts[rng.randrange(groups)] += 1
    return term.par_all(
        term.zspider(a, b, rng.choice(labels)) if rng.random() < 0.5 else term.wspider(a, b)
        for a, b in zip(ins, outs) if a + b)


def _run_term(rng, n: int, labels, shape: str) -> term.Term:
    """A wiring run on n wires with spiders after it: after a random map
    or state, nested with a ket beside it, or opening the chain."""
    run = helpers.wiring_run(rng, n)
    before = _spider_layer(rng, rng.randint(0, 2), n, labels)
    if shape == "after a map":
        return term.seq_all([before, *run, _spider_layer(rng, n, rng.randint(0, 2), labels)])
    if shape == "nested":
        inner = term.seq_all([before, *run]) @ term.ket(rng.randint(0, 1))
        return inner >> _spider_layer(rng, n + 1, rng.randint(0, 2), labels)
    return term.seq_all([*run, _spider_layer(rng, n, rng.randint(0, 2), labels)])


RUN_RINGS = [(r, [ring.parse_literal(r, s) for s in texts]) for r, texts in WIDE_LABELS]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9),
       st.sampled_from(["after a map", "nested", "opening"]))
def test_wiring_runs_match_the_dense_oracle(seed, shape):
    # up to 6 wires: 2^6 x 2^6 = 4096 entries per run layer; a run that
    # opens the chain keeps its inputs, so it stays at 4 wires
    rng = random.Random(seed)
    n = rng.randint(2, {"after a map": 6, "nested": 5, "opening": 4}[shape])
    for r, labels in RUN_RINGS:
        t = _run_term(rng, n, labels, shape)
        want = helpers.dense_evaluate(t, r)
        assert helpers.dense_equal(helpers.sparse_to_dense(interpret(t, r), r), want)
        assert helpers.dense_equal(
            helpers.sparse_to_dense(normalize(t, r).to_sparse(r), r), want)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9),
       st.sampled_from(["after a map", "nested", "opening"]))
def test_wiring_runs_agree_across_pillars_on_wide_terms(seed, shape):
    rng = random.Random(seed)
    n = rng.randint(10, 12)
    for r, labels in RUN_RINGS:
        t = _run_term(rng, n, labels, shape)
        # the same nonzero values, row by row
        rows = {w: c for c, w in normalize(t, r).nf.rows}
        assert rows == {u + w: v for (w, u), v in interpret(t, r).entries.items()}


@pytest.fixture
def plant_x(monkeypatch):
    """``plant_x(u, v, value)`` sets the entry of x and xinv from the input
    word u to the output word v to ``value(ring)``, in both pillars' tables
    and in the dense oracle, and returns the values the run joins give back."""
    real_entries, real_nf, real_dense = (
        qudit.generator_entries, normalform.generator_nf, helpers._gen_matrix)
    joined = []
    for module, name in ((semantics, "_apply_run"), (normalform, "_plug_run")):
        real_run = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real_run=real_run:
                            joined.append(real_run(*args)) or joined[-1])

    def plant(u: str, v: str, value) -> list:
        def entries(g, r, d):
            out = real_entries(g, r, d)
            if g.kind in ("x", "xinv"):
                out[(v, u)] = value(r)
            return out

        def nf(g, r):
            if g.kind not in ("x", "xinv"):
                return real_nf(g, r)
            rows = {w: c for c, w in real_nf(g, r).nf.rows}
            rows[u + v] = value(r)
            pre = PreNormalForm(2, 4, tuple((c, w) for w, c in rows.items()))
            return MapNormalForm(2, 2, canonicalize(pre))

        def dense(g, r):
            m = real_dense(g, r)
            if g.kind in ("x", "xinv"):
                m[int(v, 2), int(u, 2)] = value(r)
            return m

        helpers.clear_tables()
        monkeypatch.setattr(qudit, "generator_entries", entries)
        monkeypatch.setattr(normalform, "generator_nf", nf)
        monkeypatch.setattr(helpers, "_gen_matrix", dense)
        return joined

    yield plant
    helpers.clear_tables()  # no planted table outlives the test


@pytest.mark.parametrize("plant", ["sign by side", "not a swap"])
def test_runs_read_each_table_the_way_round_it_is(plant_x, plant):
    # plant the same x and xinv table in both pillars: a sign on |01> alone,
    # which depends on the wire on the left, or an extra |11> -> |00> entry,
    # which no signed swap has and which sends every run with one to the layer joins
    joined = (plant_x("01", "10", lambda r: -r.one) if plant == "sign by side"
              else plant_x("11", "00", lambda r: r.one))
    rng, labels = random.Random(3), [iz(v) for v in (-2, -1, 2)]
    for _ in range(20):
        n = rng.randint(2, 6)
        t = term.seq_all([_spider_layer(rng, 0, n, labels), *helpers.wiring_run(rng, n)])
        m = interpret(t, Z)
        by_layer = term.fold(t, lambda g: semantics.generator_map(g, Z, 2)._raw,
                             lambda acc, blocks: semantics._apply_blocks(acc, blocks, Z),
                             lambda acc, layers: None)  # every layer joined alone
        assert {k: v.value for k, v in m.entries.items()} == by_layer.entries
        rows = {w: c for c, w in normalize(t, Z).nf.rows}
        assert rows == {w: v for (w, _), v in m.entries.items()}
    if plant == "sign by side":
        assert len(joined) > 10 and None not in joined
    else:  # a run of swap and id only is still a signed permutation
        assert None in joined


# x's own "11" entry, and the "sign by side" plant: a sign on |01> alone,
# which shows which wire is on the left
X_ENTRIES = {"real x": ("11", "11", -1), "sign by side": ("01", "10", -1)}


@pytest.mark.parametrize("plant", X_ENTRIES)
@pytest.mark.parametrize("times", [1, 2, 3])
def test_one_pair_crossed_again_and_again_matches_the_dense_oracle(plant_x, plant, times):
    # the two wires of a state whose four words all differ cross `times`
    # times, each time with the other wire on the left, in a run padded to
    # three layers
    u, v, value = X_ENTRIES[plant]
    joined = plant_x(u, v, lambda r: ring.from_int(r, value))
    for r, (a, b) in ((Z, ("2", "3")), (QI, ("i", "1/2")), (ring.Zn(6), ("2", "5"))):
        crossings = ["x", "xinv", "x"][:times] + ["id * id"] * (3 - times)
        t = term.parse(" ; ".join([f"z(0,1)[{a}] * z(0,1)[{b}]", *crossings]), r)
        want = helpers.dense_evaluate(t, r)
        assert helpers.dense_equal(helpers.sparse_to_dense(interpret(t, r), r), want)
        assert helpers.dense_equal(
            helpers.sparse_to_dense(normalize(t, r).to_sparse(r), r), want)
    assert len(joined) == 6 and None not in joined


@pytest.mark.parametrize("text, kept", [
    ("z(0,1)[1] * z(0,1)[1] ; x ; x", 3),  # |11> takes 2 * 2 = 0
    ("z(0,2)[2] * ket(1) ; x * id ; id * x", 1),  # 2|111> takes 2 once
])
def test_a_crossing_that_is_not_a_unit_drops_the_rows_it_zeroes(plant_x, text, kept):
    # over Zn(4), a planted x with 2 on |11>
    Z4 = ring.Zn(4)
    joined = plant_x("11", "11", lambda r: ring.from_int(r, 2))
    t = term.parse(text, Z4)
    m, nf = interpret(t, Z4), normalize(t, Z4).nf
    assert helpers.dense_equal(helpers.sparse_to_dense(m, Z4), helpers.dense_evaluate(t, Z4))
    assert len(m.entries) == kept
    assert {w: c for c, w in nf.rows} == {w: v for (w, _), v in m.entries.items()}
    assert NormalForm(nf.d, nf.n, nf.rows) == nf
    assert all(not Z4.eq(c.value, Z4.zero.value) for c, _ in nf.rows)
    assert len(joined) == 2 and None not in joined


def test_nf_to_term_round_trip_ten_wires():
    rng = random.Random(10)
    words = set()
    while len(words) < 20:
        words.add("".join(rng.choice("01") for _ in range(10)))
    state = make_map(Z, 2, 0, 10, {
        (w, ""): iz(rng.choice([-3, -2, -1, 1, 2, 3])) for w in sorted(words)})
    nf = nf_of_state(state)
    t = nf_to_term(nf)
    assert normalize(t, Z) == MapNormalForm(0, 10, nf)
    assert map_equal(interpret(t, Z), state)


def test_normalize_rejects_approximate_rings():
    with pytest.raises(UnsupportedOperationError):
        normalize(term.ID, ring.C(1e-9))


def test_json_round_trip():
    nf = canonicalize(pre(3, [(1, "000"), (7, "111")]))
    assert from_json_dict(to_json_dict(nf), Z) == nf
    assert to_json_dict(nf) == {
        "n": 3, "d": 2,
        "rows": [{"v": "1", "w": "000"}, {"v": "7", "w": "111"}]}


# rows that break canonicity: unsorted words, a repeated word, a letter d = 2 cannot hold
NON_CANONICAL = {
    "unsorted": [(1, "11"), (2, "01")],
    "duplicate": [(1, "01"), (2, "01")],
    "out-of-range": [(1, "01"), (2, "12")],
}


@pytest.mark.parametrize("case", NON_CANONICAL)
def test_normal_form_rejects_non_canonical_words(case):
    # canonicalize skips this check, so the constructor must still make it
    with pytest.raises(ArityError):
        NormalForm(2, 2, tuple((iz(c), w) for c, w in NON_CANONICAL[case]))


@pytest.mark.parametrize("case", NON_CANONICAL)
def test_json_reader_canonicalizes_its_rows(case):
    rows = NON_CANONICAL[case]
    data = {"n": 2, "d": 2, "rows": [{"v": str(c), "w": w} for c, w in rows]}
    if case == "out-of-range":  # a letter is not a level below d: rejected, not dropped
        with pytest.raises(ring.RingError, match="'12'"):
            from_json_dict(data, Z)
        return
    if case == "duplicate":  # a repeated word is rejected, not summed
        with pytest.raises(ring.RingError, match="two rows for '01'"):
            from_json_dict(data, Z)
        return
    nf = from_json_dict(data, Z)
    assert nf == canonicalize(pre(2, rows)) == NormalForm(2, 2, nf.rows)
    with pytest.raises(ArityError):  # what canonicalize cannot mend
        from_json_dict({**data, "rows": data["rows"] + [{"v": "1", "w": "011"}]}, Z)


@pytest.mark.parametrize("d", [-1, 0, 1, 11])
def test_json_reader_rejects_dimensions_outside_2_to_10(d):
    # at d = -1 the row would be dropped, giving an empty normal form
    data = {"n": 1, "d": d, "rows": [{"v": "1", "w": "1"}]}
    with pytest.raises(ring.RingError, match=f"d={d} is outside 2..10"):
        from_json_dict(data, Z)


def test_json_reader_rejects_a_negative_arity():
    with pytest.raises(ring.RingError, match="negative arity -1"):
        from_json_dict({"d": 2, "n": -1, "rows": []}, Z)
    assert from_json_dict({"d": 2, "n": 0, "rows": []}, Z) == NormalForm(2, 0, ())


def test_opening_layer_starts_from_its_first_block(monkeypatch):
    # ket(0) * ket(1) * ket(0) is one product per further block in each
    # pillar, with no multiplication by one to start from
    t = term.parse("ket(0) * ket(1) * ket(0)", Z)
    want = interpret(t, Z), normalize(t, Z)
    calls = []
    real = Z.ops["mul"]

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setitem(Z.ops, "mul", counting)
    m = interpret(t, Z)
    assert len(calls) == 2
    calls.clear()
    nf = normalize(t, Z)
    assert len(calls) == 2
    assert m.entries == want[0].entries and nf == want[1]
    assert rows_of(nf.nf) == [("1", "010")]


def test_only_the_shared_id_table_copies_its_segment(monkeypatch, fresh_tables):
    # a padded layer copies the segment of an id block that is the cached
    # normal form of id; a rebuilt table, as after an eviction from the
    # cache, takes the general join and multiplies by one
    t = term.parse("w(0,3) ; (id * w(2,1)) ; x", Z)
    want = normalize(t, Z)
    calls = []
    real_mul, real_nf = Z.ops["mul"], normalform.generator_nf

    def counting(a, b):
        calls.append((a, b))
        return real_mul(a, b)

    def rebuilt(g, r):
        m = real_nf(g, r)
        return MapNormalForm(m.n_in, m.n_out, m.nf) if g.kind == "id" else m

    monkeypatch.setitem(Z.ops, "mul", counting)
    assert normalize(t, Z) == want
    shared = len(calls)
    calls.clear()
    monkeypatch.setattr(normalform, "generator_nf", rebuilt)
    assert normalize(t, Z) == want
    assert len(calls) > shared
