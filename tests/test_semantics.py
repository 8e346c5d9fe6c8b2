import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from zwcalc import ring, semantics, term
from zwcalc.ring import UnsupportedOperationError
from zwcalc.semantics import (
    dagger,
    first_difference,
    from_json_dict,
    interpret,
    map_equal,
    parity_class,
    to_json_dict,
)
from zwcalc.term import CUP, ID, SWAP, X, parse

import helpers

Z = ring.Z()
Z2 = ring.Zn(2)
QI = ring.Qi()
ONE = Z.one


def ent(m):
    return {k: str(v) for k, v in m.entries.items()}


def test_crossing_matrix():
    m = interpret(X, Z)
    assert ent(m) == {("00", "00"): "1", ("01", "10"): "1",
                      ("10", "01"): "1", ("11", "11"): "-1"}


def test_w_spider_states():
    assert ent(interpret(term.wspider(0, 3), Z)) == {
        ("001", ""): "1", ("010", ""): "1", ("100", ""): "1"}
    # w_0 and z_0 arise as self-traces of the binary spiders
    w0 = interpret(parse("w(0,2) ; cap", Z), Z)
    assert w0.is_zero() and (w0.n_in, w0.n_out) == (0, 0)
    z0 = interpret(parse("z(0,2)[1] ; cap", Z), Z)
    assert str(z0.scalar()) == "2"


def test_z_one_is_plus_state():
    assert ent(interpret(term.zspider(0, 1, ONE), Z)) == {
        ("0", ""): "1", ("1", ""): "1"}


def test_loop_scalar_is_dimension():
    assert str(interpret(parse("cup ; cap", Z), Z).scalar()) == "2"
    p = __import__("zwcalc.qudit", fromlist=["QParams"]).QParams(5)
    m = interpret(parse("cup ; cap", p.ring()), p.ring(), 5)
    assert abs(complex(m.scalar().value) - 5) < 1e-9


def test_map_equal_examples():
    snake = parse("(id * cup) ; (cap * id)", Z)
    assert map_equal(interpret(snake, Z), interpret(ID, Z))
    assert map_equal(interpret(term.zspider(0, 2, ONE), Z), interpret(CUP, Z))
    assert not map_equal(interpret(term.wspider(0, 1), Z),
                         interpret(term.zspider(0, 1, ONE), Z))


def test_first_difference_is_deterministic():
    a = interpret(term.wspider(0, 1), Z)
    b = interpret(term.zspider(0, 1, ONE), Z)
    assert first_difference(a, b) == ("0", "", "0", "1")


def test_dagger():
    k1 = interpret(term.ket(1), QI)
    b1 = dagger(k1)
    assert (b1.n_in, b1.n_out) == (1, 0)
    zi = interpret(term.zspider(0, 1, ring.gaussian(QI, 0, 1)), QI)
    flipped = dagger(zi)
    conj = interpret(term.zspider(1, 0, ring.gaussian(QI, 0, -1)), QI)
    assert map_equal(flipped, conj)
    with pytest.raises(UnsupportedOperationError):
        dagger(interpret(term.zspider(0, 1, Z2.one), Z2))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_dagger_is_an_involution(seed):
    rng = random.Random(seed)
    labels = [ring.gaussian(QI, 1, 1), ring.gaussian(QI, 0, 1), ring.from_int(QI, 2)]
    t = helpers.random_term(rng, labels)
    m = interpret(t, QI)
    assert map_equal(dagger(dagger(m)), m)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_adjoint_term_is_vertical_reflection(seed):
    # reflecting the diagram and conjugating labels interprets as the dagger
    rng = random.Random(seed)
    labels = [ring.gaussian(QI, 1, 1), ring.gaussian(QI, 0, -1), ring.from_int(QI, 2)]
    t = helpers.random_term(rng, labels)
    assert map_equal(interpret(term.adjoint(t), QI), dagger(interpret(t, QI)))


def test_adjoint_of_qudit_crossing_and_ket():
    # at d > 2 reflection still daggers the crossing and the basis states,
    # though not the spiders, whose deformed coefficients are complex
    from zwcalc.qudit import QParams
    p = QParams(3)
    for t in (term.X, term.XINV, term.ket(2)):
        assert map_equal(interpret(term.adjoint(t), p.ring(), 3),
                         dagger(interpret(t, p.ring(), 3)))


def test_parity_examples():
    assert parity_class(interpret(term.wspider(0, 3), Z)) == "odd"
    assert parity_class(interpret(X, Z)) == "even"
    assert parity_class(interpret(term.zspider(0, 3, ONE), Z)) == "mixed"
    assert parity_class(interpret(parse("w(0,2) ; cap", Z), Z)) == "zero"


def test_parity_requires_qubits():
    from zwcalc.qudit import QParams
    p = QParams(3)
    with pytest.raises(UnsupportedOperationError):
        parity_class(interpret(ID, p.ring(), 3))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_agrees_with_dense_oracle(seed):
    rng = random.Random(seed)
    labels = [ring.from_int(Z, v) for v in (-2, -1, 0, 1, 2)]
    t = helpers.random_term(rng, labels)
    if t.n_in + t.n_out > 4:
        return
    sparse = helpers.sparse_to_dense(interpret(t, Z), Z)
    dense = helpers.dense_evaluate(t, Z)
    assert helpers.dense_equal(sparse, dense)


def test_wire_fragment_entries_are_signed_powers_of_two():
    # signs come from crossings, powers of two from closed loops
    rng = random.Random(11)
    for _ in range(200):
        t = helpers.random_term(rng, [], pool=helpers.WIRE_POOL)
        m = interpret(t, Z)
        for v in m.entries.values():
            assert v.value != 0 and (abs(v.value) & (abs(v.value) - 1)) == 0


def test_crossing_equals_swap_only_mod_2():
    assert map_equal(interpret(X, Z2), interpret(SWAP, Z2))
    assert not map_equal(interpret(X, Z), interpret(SWAP, Z))


def test_inverse_crossing_collapses_at_d2():
    assert map_equal(interpret(term.XINV, Z), interpret(X, Z))


def test_qudit_needs_complex_ring():
    with pytest.raises(UnsupportedOperationError):
        interpret(ID, Z, 3)


def test_zero_scalar_composes():
    # a vanishing state tensored into anything keeps killing entries
    t = parse("(w(0,2) ; cap) * w(0,1)", Z)
    assert interpret(t, Z).is_zero()


def test_json_round_trip():
    m = interpret(parse("z(0,3)[1+i]", QI), QI)
    data = json.loads(json.dumps(to_json_dict(m)))
    assert map_equal(from_json_dict(data, QI), m)
    assert data["entries"][0] == {"out": "000", "in": "", "v": "1"}


@pytest.mark.parametrize("d", [-1, 0, 1, 11])
def test_json_reader_rejects_dimensions_outside_2_to_10(d):
    # the letters below d = -1 would be "012345678", so "5" would be read back
    data = {"d": d, "in": 0, "out": 1, "entries": [{"out": "5", "in": "", "v": "1"}]}
    with pytest.raises(ring.RingError, match=f"d={d} is outside 2..10"):
        from_json_dict(data, Z)


def test_json_reader_rejects_two_values_for_one_entry():
    entries = [{"out": "1", "in": "0", "v": "1"}, {"out": "1", "in": "0", "v": "2"}]
    with pytest.raises(ring.RingError, match="two entries for \\('1', '0'\\)"):
        from_json_dict({"d": 2, "in": 1, "out": 1, "entries": entries}, Z)
    # distinct keys are all kept
    entries[1]["in"] = "1"
    m = from_json_dict({"d": 2, "in": 1, "out": 1, "entries": entries}, Z)
    assert {k: v.value for k, v in m.entries.items()} == {("1", "0"): 1, ("1", "1"): 2}


def test_ket_matches_w1():
    assert map_equal(interpret(term.ket(1), Z), interpret(term.wspider(0, 1), Z))


def test_generator_tables_are_built_once_per_key(monkeypatch, fresh_tables):
    from zwcalc import qudit

    calls = []
    real = qudit.generator_entries

    def spy(g, r, d):
        calls.append((g, r, d))
        return real(g, r, d)

    monkeypatch.setattr(qudit, "generator_entries", spy)
    C = ring.C()
    lhs, rhs = qudit.law_terms(3)["bialgebra"]
    # seven leaves on the left, two on the right, four distinct generators
    for t in (lhs, rhs, lhs):
        interpret(t, C, 3)
    interpret(rhs, C, 4)
    for _ in range(2):  # Z builds its own tables once, id's as its wire too
        interpret(rhs, Z)
    keys = [(g.kind, g.n_in, g.n_out, str(r), d) for g, r, d in calls]
    assert sorted(keys) == sorted(set(keys)) == sorted(
        [("w", 1, 2, str(C), 3), ("id", 1, 1, str(C), 3), ("x", 2, 2, str(C), 3),
         ("w", 2, 1, str(C), 3), ("w", 2, 1, str(C), 4), ("w", 1, 2, str(C), 4),
         ("id", 1, 1, str(C), 4),
         ("w", 2, 1, "Z", 2), ("w", 1, 2, "Z", 2), ("id", 1, 1, "Z", 2)])


def test_cached_tables_are_read_only():
    from zwcalc import semantics

    m = interpret(X, Z)  # a bare generator hands back the shared table
    assert m is interpret(X, Z) is semantics.generator_map(X, Z, 2)
    with pytest.raises(TypeError):
        m.entries[("00", "00")] = ONE
    with pytest.raises(TypeError):
        interpret(term.wspider(1, 2), ring.C(), 3).entries[("10", "1")] = ring.C().one
    assert ent(interpret(X, Z))[("11", "11")] == "-1"


def test_complex_labels_keep_the_sign_of_zero():
    # equal labels whose zero parts differ in sign have separate tables
    C = ring.C()
    for d in (2, 3):
        for v in (complex(-0.0, 1), complex(0.0, 1)):
            m = interpret(term.zspider(0, 1, ring.complex_value(C, v)), C, d)
            assert repr(m.entries[("1", "")].value) == repr(v)


def test_every_ring_joins_wiring_runs_in_one_step(monkeypatch):
    runs = []
    for name in ("_apply_run", "_apply_run_in_order"):
        real = getattr(semantics, name)
        monkeypatch.setattr(semantics, name, lambda *args, name=name, real=real:
                            runs.append((name, real(*args))) or runs[-1][1])
    C = ring.C()
    text = "w(0,3) ; x * id ; id * xinv ; swap * id ; x * id"
    for d in (2, 3):
        interpret(parse(text, C), C, d)
    interpret(parse(text, QI), QI)
    assert [name for name, _ in runs] == ["_apply_run_in_order"] * 2 + ["_apply_run"]
    assert None not in [joined for _, joined in runs]


# parts of the labels a C run's values are built from: signed zeros,
# units, values near the tolerance (1e-9; a value a step above it may fall
# under it in a run), and a big part whose top power is about 1e300, so
# that products of two of them overflow
def _parts(d: int) -> tuple:
    return 0.0, -0.0, 1.0, -1.0, 1e-10, -math.nextafter(1e-9, 1), 1e300 ** (1 / (d - 1))


def _c_state(rng: random.Random, d: int) -> term.Term:
    """A state over C on two or more wires, with label parts from
    :func:`_parts`: one-row states ``ket(1) ; z(1,1)[u]`` of value u, Z
    spider states, and ``ket(0)``, whose letter meets only factors one."""
    C, blocks = ring.C(), []
    while sum(b.n_out for b in blocks) < 2:
        u = ring.complex_value(C, complex(rng.choice(_parts(d)), rng.choice(_parts(d))))
        one_row = term.ket(1) >> term.zspider(1, 1, u)
        blocks.append(rng.choice([one_row, one_row, term.zspider(0, rng.randint(1, 2), u),
                                  term.ket(0)]))
    return term.par_all(blocks)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
@example(18)  # a value a step above the tolerance falls under it inside the run
@example(528)  # an overflowed value, which a product by one turns to nan
def test_c_runs_give_the_layer_joins_values_bit_for_bit(seed):
    rng = random.Random(seed)
    C, d = ring.C(), rng.randint(2, 7)
    state = _c_state(rng, d)
    t = term.seq_all([state, *helpers.wiring_run(rng, state.n_out)])

    wire = semantics.generator_map(ID, C, d)._raw

    def layer_by_layer(u):  # every layer joined alone; a small chain's key read as its chain
        return term.fold(u, lambda s: semantics.generator_map(s, C, d)._raw
                         if type(s) is term.Generator else layer_by_layer(term._assembled(s)),
                         lambda acc, blocks: semantics._apply_blocks(acc, blocks, C, wire),
                         lambda acc, layers: None)

    by_layer = layer_by_layer(t)
    got = interpret(t, C, d)
    assert [(k, repr(v.value)) for k, v in got.entries.items()] == [
        (k, repr(v)) for k, v in by_layer.entries.items()]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_id_padding_keeps_every_c_value(seed):
    # an id is a wire: plugging a layer of them, or a run of two, takes no
    # product, so no zero part changes its sign
    rng, C = random.Random(seed), ring.C()
    d, parts = rng.randint(2, 4), (0.0, -0.0, 1.0, -1.0, 0.5, -2.5)
    labels = [ring.complex_value(C, complex(rng.choice(parts), rng.choice(parts)))
              for _ in range(2)]
    t = term.par_all([term.zspider(0, rng.randint(1, 2), u) for u in labels])
    wires = term.identity(t.n_out)

    def values(u):
        return [(k, repr(v.value)) for k, v in interpret(u, C, d).entries.items()]

    assert values(t >> wires) == values(t >> wires >> wires) == values(t)


def test_id_padding_keeps_the_sign_of_a_zero_part():
    C = ring.C()
    t = parse("z(0,1)[-1+0.0i] * z(0,1)[-1+0.0i]", C)
    for u in (t, parse("z(0,1)[-1+0.0i] * z(0,1)[-1+0.0i] ; id * id", C)):
        assert repr(interpret(u, C, 4).entries[("11", "")].value) == "(1-0j)"


def _joined_block_by_block(a, blocks, r, wire) -> dict:
    """A plugged layer's join as written out: block by block over every
    entry of ``a``, each product taken but a ``wire``'s, whose letter is
    copied, and summed in order."""
    mul, add = r.ops["mul"], r.ops["add"]
    rows, pos = [("", mid, u, v) for (mid, u), v in a.entries.items()], 0
    for b in blocks:
        index = semantics._by_input(b.entries)
        rows = [(w + mid[pos], mid, u, v) for w, mid, u, v in rows] if b is wire else [
            (w + bw, mid, u, mul(v, bv)) for w, mid, u, v in rows
            for bw, bv in index.get(mid[pos:pos + b.n_in], ())]
        pos += b.n_in
    acc = {}
    for w, _, u, v in rows:
        acc[w, u] = add(acc[w, u], v) if (w, u) in acc else v
    return {k: v for k, v in acc.items() if not r.eq(v, r.zero.value)}


ONE_BLOCK_CASES = [(ring.C(), d) for d in range(2, 8)] + [(QI, 2), (Z, 2), (ring.Zn(6), 2)]


def _sample(rng: random.Random, r: ring.RingDescriptor):
    """A nonzero raw value of ``r``; over C with parts 0.0 and -0.0 among them."""
    if not r.exact:
        parts = (0.0, -0.0, 1.0, -1.5, 2.5, 1e-3)
        return complex(rng.choice(parts[2:]), rng.choice(parts))
    v = ring.from_int(r, rng.choice([-3, -2, -1, 1, 2, 5]))
    if r is QI:
        v = v * rng.choice([QI.one, ring.gaussian(QI, 0, 1), ring.gaussian(QI, "1/2", -2)])
    return v.value


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(ONE_BLOCK_CASES))), st.integers(min_value=0, max_value=10 ** 9))
def test_a_one_block_layer_joins_as_block_by_block(case, seed):
    # the one-pass join of a layer with one block that is not a wire gives
    # the written-out join's values by repr, in its order
    r, d = ONE_BLOCK_CASES[case]
    rng = random.Random(seed)
    label = semantics.RingElement(r, _sample(rng, r)) if rng.random() < 0.8 else r.zero
    g = rng.choice([term.wspider(rng.randint(0, 2), rng.randint(0, 2) + 1),
                    term.zspider(rng.randint(0, 2), rng.randint(1, 2), label),
                    X, term.XINV, SWAP, term.CAP, CUP, ID, term.ket(rng.randrange(d))])
    left, right, k = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1)
    table = semantics.generator_map(g, r, d)._raw
    wire = semantics.generator_map(ID, r, d)._raw
    letters = "0123456789"[:d]
    n = left + table.n_in + right
    entries = {("".join(rng.choice(letters) for _ in range(n)),
                "".join(rng.choice(letters) for _ in range(k))): _sample(rng, r)
               for _ in range(rng.randint(1, 8))}
    a = semantics._RawMap(k, n, entries)
    blocks = [wire] * left + [table] + [wire] * right
    got = semantics._apply_blocks(a, blocks, r, wire)
    assert (got.n_in, got.n_out) == (k, n - table.n_in + table.n_out)
    assert [(key, repr(v)) for key, v in got.entries.items()] == [
        (key, repr(v)) for key, v in _joined_block_by_block(a, blocks, r, wire).items()]


def test_generator_errors_are_raised_on_every_call():
    from zwcalc.qudit import QuditError
    from zwcalc.semantics import generator_map

    wrong = term.zspider(1, 1, ring.from_int(QI, 2))
    for r in (Z, ring.C()):
        for _ in range(2):
            with pytest.raises(ring.RingMismatchError):
                interpret(wrong, r)
    for _ in range(2):
        with pytest.raises(term.ArityError):
            interpret(term.ket(2), Z)
    for _ in range(2):
        with pytest.raises(QuditError):
            interpret(term.wspider(1, 2), ring.C(), 11)
    for _ in range(2):
        with pytest.raises(QuditError):
            generator_map(term.wspider(1, 2), ring.C(), 11)


@pytest.mark.parametrize("g", [term.ID, term.ket(0), term.wspider(1, 2),
                               term.zspider(0, 2, ring.C().one)])
def test_generator_map_checks_the_dimension_as_interpret_does(g):
    from zwcalc.qudit import QuditError
    from zwcalc.semantics import generator_map

    C = ring.C()
    exact = g.label is None
    cases = [(C, 1, term.ArityError), (C, 11, QuditError)]
    if exact:
        cases += [(Z, 1, term.ArityError), (Z, 3, UnsupportedOperationError),
                  (QI, 0, term.ArityError), (QI, 4, UnsupportedOperationError)]
    for r, d, error in cases:
        for _ in range(2):  # errors are not cached
            with pytest.raises(error):
                generator_map(g, r, d)
            with pytest.raises(error):
                interpret(g, r, d)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9),
       st.sampled_from(["Z", "Zn6", "Qi", "C"]))
def test_results_hold_ring_elements_of_the_call_ring(seed, name):
    # the joins run on raw values; every result wraps them again
    from zwcalc import normalform

    r = {"Z": Z, "Zn6": ring.Zn(6), "Qi": QI, "C": ring.C()}[name]
    d = 3 if name == "C" else 2
    labels = [ring.parse_literal(r, s) for s in ("2", "-1", "0", "3")]
    t = helpers.random_term(random.Random(seed), labels)
    m = interpret(t, r, d)
    values = list(m.entries.values())
    to_json_dict(m)
    if r.exact:
        nf = normalform.normalize(t, r)
        values += [c for c, _ in nf.nf.rows]
        normalform.to_json_dict(nf.nf)
    assert all(type(v) is ring.RingElement and v.ring == r for v in values)
