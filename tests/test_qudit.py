import cmath
import math
import random

import numpy as np
import pytest

from zwcalc import ring, rules, term
from zwcalc.semantics import SparseMap, dagger, interpret, make_map, map_equal
from zwcalc.qudit import (
    QParams,
    QuditError,
    antipode_term,
    binomial_table,
    check_antipode,
    check_bialgebra,
    check_commutation,
    check_q_vandermonde,
    law_terms,
    q_binom,
    q_factorial,
    q_int,
    qudit_universal_nf,
)

import helpers

TOL = 1e-9
DIMS = range(2, 11)


def close(a, b, tol=TOL):
    return abs(a - b) <= tol


def entry(t, d, out_w, in_w):
    """One coefficient of a term's map at dimension d, zero when absent."""
    got = interpret(t, QParams(d).ring(), d).entries.get((out_w, in_w))
    return complex(got.value) if got is not None else 0j


def diagonal(d, values):
    R = QParams(d).ring()
    return make_map(R, d, 1, 1, {
        (str(n), str(n)): ring.complex_value(R, v) for n, v in enumerate(values)})


def test_qparams_validation():
    p = QParams(5)
    assert close(p.q ** 5, 1)
    with pytest.raises(QuditError):
        QParams(1)
    with pytest.raises(QuditError):
        QParams(3, tolerance=0.0)
    # words spell one level per character, so level 10 cannot be written
    with pytest.raises(QuditError, match="one level per character"):
        QParams(11)
    with pytest.raises(QuditError, match="one level per character"):
        interpret(term.wspider(1, 2), ring.C(), 11)


def test_qparams_checks_only_its_inputs():
    # |q^d - 1| is float rounding (up to 8.9e-16 at d = 8): no lower bound
    for d in DIMS:
        assert QParams(d, 1e-300).tolerance == 1e-300
    # at |q - 1| or above, q itself would pass for 1
    with pytest.raises(QuditError, match=r"not in 0 < T < \|q - 1\| = 1.73205"):
        QParams(3, 2.0)


def test_qparams_q_is_computed_once():
    p = QParams(5)
    assert p.q is p.q and p.q == cmath.exp(2j * cmath.pi / 5)
    # q is not a field: equality and hashing still read d and tolerance
    assert p == QParams(5) and hash(p) == hash(QParams(5))
    assert binomial_table(p) is binomial_table(QParams(5))


def test_q_integers():
    p = QParams(4)
    assert close(q_int(0, p), 0)
    assert close(q_int(1, p), 1)
    assert close(q_int(4, p), 0)  # [d] vanishes
    for n in range(4, 9):
        assert close(q_factorial(n, p), 0)
    assert close(q_binom(2, 0, p), 1)
    assert close(q_binom(2, 2, p), 1)


def test_q_binom_value_at_d3():
    p = QParams(3)
    assert close(q_binom(2, 1, p), cmath.exp(1j * cmath.pi / 3))
    with pytest.raises(QuditError):
        q_binom(2, 3, p)


def test_table_caching_and_sqrt():
    p = QParams(3)
    tab = binomial_table(p)
    assert binomial_table(QParams(3)) is tab
    assert close(q_int(3, p), 0)
    assert close(q_factorial(0, p), 1)
    assert close(tab.sqrt_binomials[2][1], cmath.exp(1j * cmath.pi / 6))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_vandermonde_all_small_dimensions(d):
    p = QParams(d)
    for n in range(d):
        for j in range(n + 1):
            for k in range(n + 1):
                assert check_q_vandermonde(p, n, j, k)


def test_split_tables_match_known_values():
    split = term.wspider(1, 2)
    assert close(entry(split, 3, "02", "2"), 1)
    assert close(entry(split, 3, "11", "2"), cmath.exp(1j * cmath.pi / 6))
    assert close(entry(split, 3, "20", "2"), 1)
    assert close(entry(split, 4, "11", "2"), 2 ** 0.25 * cmath.exp(1j * cmath.pi / 8))
    assert close(entry(split, 4, "12", "3"), cmath.exp(1j * cmath.pi / 4))
    assert close(entry(split, 4, "21", "3"), cmath.exp(1j * cmath.pi / 4))
    # d = 2 split is the familiar beam splitter
    assert close(entry(split, 2, "01", "1"), 1) and close(entry(split, 2, "10", "1"), 1)
    assert close(entry(split, 2, "11", "1"), 0)


def test_antipode_values():
    assert close(entry(antipode_term(3), 3, "1", "1"), -1)
    assert close(entry(antipode_term(3), 3, "2", "2"), cmath.exp(2j * cmath.pi / 3))
    assert close(entry(antipode_term(4), 4, "2", "2"), 1j)
    # |3> picks up -q^3 = i; this also closes the Hopf loop (see below)
    assert close(entry(antipode_term(4), 4, "3", "3"), 1j)
    assert check_antipode(QParams(4)).passed


def test_antipode_diagram_matches_formula():
    for d in (2, 3, 4):
        p = QParams(d)
        formula = [(-1) ** n * p.q ** (n * (n - 1) // 2) for n in range(d)]
        assert map_equal(interpret(antipode_term(d), p.ring(), d), diagonal(d, formula))


def test_antipode_squared():
    for d in (2, 3, 4, 5):
        p = QParams(d)
        sq = interpret(term.seq_all([antipode_term(d)] * 2), p.ring(), d)
        assert map_equal(sq, diagonal(d, [p.q ** (n * (n - 1)) for n in range(d)]))
        assert map_equal(sq, diagonal(d, [1] * d)) == (d == 2)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_crossing_order_and_inverse(d):
    # the crossing is swap . diag(q^(jk)); the diagonal part has order d
    # and the permutation part order 2, so x^d is the identity for even d
    # and the plain swap for odd d, with x^(2d) always the identity
    R = QParams(d).ring()

    def power(n):
        return interpret(term.seq_all([term.X] * n), R, d)

    wires = interpret(term.identity(2), R, d)
    xinv = interpret(term.XINV, R, d)
    assert map_equal(xinv, dagger(interpret(term.X, R, d)))
    if d % 2 == 0:
        assert map_equal(power(d), wires)
        assert map_equal(power(d - 1), xinv)
    else:
        assert map_equal(power(d), interpret(term.SWAP, R, d))
        assert map_equal(power(2 * d), wires)
        assert map_equal(power(2 * d - 1), xinv)
    assert map_equal(interpret(term.X >> term.XINV, R, d), wires)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_comonoid_laws(d):
    R = QParams(d).ring()
    split, wire, counit = term.wspider(1, 2), term.ID, term.bra(0)

    def same(a, b):
        return map_equal(interpret(a, R, d), interpret(b, R, d))

    assert same(split >> (split @ wire), split >> (wire @ split))
    assert same(split >> term.SWAP, split)  # cocommutative with plain swap
    assert same(split >> (counit @ wire), wire)
    assert same(split >> (wire @ counit), wire)


@pytest.mark.parametrize("d", DIMS)
def test_bialgebra(d):
    rep = check_bialgebra(QParams(d))
    assert rep.passed, str(rep)


def test_bialgebra_negative_control():
    # the d=3 law with its left side damaged two ways, each failing at a
    # known first entry: the inverse crossing in place of x, and a stray
    # 1.01 scaling of level 1 on one output
    p = QParams(3)
    R = p.ring()
    lhs, rhs = law_terms(3)["bialgebra"]
    split, merge, wire = term.wspider(1, 2), term.wspider(2, 1), term.ID
    damaged = [
        (term.seq_all([split @ split, wire @ term.XINV @ wire, merge @ merge]), ("11", "11")),
        (lhs >> (term.zspider(1, 1, ring.complex_value(R, 1.01)) @ wire), ("10", "01")),
    ]
    for bad, where in damaged:
        law = rules.check_maps("bialgebra", "d=3", interpret(bad, R, 3), interpret(rhs, R, 3))
        assert not law.passed and law.witness[:2] == where and law.max_error > TOL
        assert f"(out={where[0]!r}, in={where[1]!r})" in str(law)


@pytest.mark.parametrize("d", DIMS)
def test_antipode_hopf(d):
    rep = check_antipode(QParams(d))
    assert rep.passed, str(rep)


@pytest.mark.parametrize("d", DIMS)
def test_commutation(d):
    p = QParams(d)
    rep = check_commutation(p)
    assert rep.passed, str(rep)
    if d == 2:
        # q = -1: a a+ = 1 - a+ a
        create = (term.ket(1) @ term.ID) >> term.wspider(2, 1)
        annihilate = term.wspider(1, 2) >> (term.bra(1) @ term.ID)
        a_adag = helpers.qudit_to_dense(interpret(create >> annihilate, p.ring(), 2))
        adag_a = helpers.qudit_to_dense(interpret(annihilate >> create, p.ring(), 2))
        assert np.allclose(a_adag, np.eye(2) - adag_a, atol=TOL)


def test_bosonic_truncation():
    # q = 1 ladder on 8 levels: commutator is the identity away from the top
    n = 8
    adag = np.zeros((n, n))
    for lvl in range(n - 1):
        adag[lvl + 1, lvl] = math.sqrt(lvl + 1)
    a = adag.T
    comm = a @ adag - adag @ a
    assert np.allclose(comm[: n - 1, : n - 1], np.eye(n - 1), atol=TOL)
    assert check_commutation(QParams(5)).passed


def test_merge_is_transpose_of_split():
    for d in (2, 3, 4, 5):
        R = QParams(d).ring()
        split = interpret(term.wspider(1, 2), R, d)
        transposed = SparseMap(R, d, 2, 1, {(u, w): v for (w, u), v in split.entries.items()})
        assert map_equal(interpret(term.wspider(2, 1), R, d), transposed)


def test_spider_entries_match_dense_matrices():
    # two routes to the same maps: combinatorial tree entries vs the
    # closed-form split/merge/crossing matrices of the dense oracle
    for d in (2, 3, 4, 5):
        R = QParams(d).ring()
        for t, dense in ((term.wspider(1, 2), helpers.qudit_split(d)),
                         (term.wspider(2, 1), helpers.qudit_merge(d)),
                         (term.X, helpers.qudit_x(d))):
            assert np.allclose(helpers.qudit_to_dense(interpret(t, R, d)), dense, atol=TOL)


def test_qudit_spider_entries():
    p = QParams(3)
    R = p.ring()
    m = interpret(term.wspider(2, 1), R, 3)
    got = m.entries[("2", "11")]
    assert close(complex(got.value), cmath.sqrt(q_int(2, p) * q_int(1, p)))
    z = interpret(term.zspider(1, 1, ring.complex_value(R, 2 + 0j)), R, 3)
    for lvl in range(3):
        assert close(complex(z.entries[(str(lvl), str(lvl))].value), 2 ** lvl)
    disc = interpret(term.zspider(1, 0, R.one), R, 3)
    c2 = cmath.sqrt(q_factorial(2, p))
    assert close(complex(disc.entries[("", "2")].value), 1 / c2)


def test_wide_w_spiders_need_no_recursion():
    # w(0,m) is built as its m one-hot words, in lexicographic order, not
    # filtered from every word of digit sum at most 1
    R = QParams(3).ring()
    m = interpret(term.wspider(0, 3000), R, 3)
    assert len(m.entries) == 3000
    assert list(m.entries)[:2] == [("0" * 2999 + "1", ""), ("0" * 2998 + "10", "")]
    assert all(v == R.one for v in m.entries.values())


def test_z_table_overflow_is_an_error():
    # the level-2 entry of a 1e200 label is 1e400, beyond a float
    R = QParams(3).ring()
    big = term.zspider(0, 1, ring.complex_value(R, 1e200))
    with pytest.raises(QuditError, match="overflows"):
        interpret(big, R, 3)
    assert interpret(big, R, 2).entries[("1", "")].value == 1e200
    # squares that come out as nan, not as an OverflowError
    for label in (1e155 + 1e155j, 1e308 + 1e308j):
        for d in (3, 7):
            with pytest.raises(QuditError, match="overflows at level 2"):
                interpret(term.zspider(0, 2, ring.complex_value(R, label)), R, d)


def test_universal_example_from_two_rows():
    p = QParams(3)
    R = p.ring()
    one = R.one
    state = interpret(term.parse("ket(0) * ket(1)", R), R, 3)
    entries = {("01", ""): one, ("22", ""): one}
    from zwcalc.semantics import make_map
    state = make_map(R, 3, 0, 2, entries)
    t, nf = qudit_universal_nf(state, p)
    assert [w for _, w in nf.rows] == ["01", "22"]
    rebuilt = interpret(t, R, 3)
    assert map_equal(rebuilt, state)
    # adjusted labels: row |22> is scaled by 1/[2]! once per doubled leg
    labels = [g.label for g in _leaves(t) if g.kind == "z"]
    lam = [complex(l.value) for l in labels]
    assert close(lam[0], 1)
    assert close(lam[1], 1 / (q_factorial(2, p)))


def _leaves(t):
    from zwcalc.term import Generator, Par, Seq
    if isinstance(t, Generator):
        return [t]
    if isinstance(t, Seq):
        return _leaves(t.first) + _leaves(t.then)
    if isinstance(t, Par):
        return _leaves(t.left) + _leaves(t.right)
    return []


def test_universal_zero_state():
    p = QParams(3)
    from zwcalc.semantics import make_map
    state = make_map(p.ring(), 3, 0, 2, {})
    t, nf = qudit_universal_nf(state, p)
    assert nf.is_zero()
    assert interpret(t, p.ring(), 3).is_zero()


def test_universal_at_d2_reduces_to_qubit_shape():
    p = QParams(2)
    R = p.ring()
    from zwcalc.semantics import make_map
    state = make_map(R, 2, 0, 2, {
        ("01", ""): ring.complex_value(R, 2), ("10", ""): ring.complex_value(R, -1)})
    t, nf = qudit_universal_nf(state, p)
    # multiplicities are 0/1, so no sqrt adjustment happens
    labels = [complex(g.label.value) for g in _leaves(t) if g.kind == "z"]
    assert close(labels[0], 2) and close(labels[1], -1)
    assert map_equal(interpret(t, R, 2), state)


def test_universal_survives_branch_cuts():
    # at d = 6 the merge-tree coefficient for five stacked particles is
    # minus the principal sqrt of [5]!, so the label adjustment must invert
    # the tree product, not the factorial root
    p = QParams(6)
    R = p.ring()
    from zwcalc.semantics import make_map
    state = make_map(R, 6, 0, 2, {
        ("55", ""): ring.complex_value(R, 1 + 0j),
        ("04", ""): ring.complex_value(R, -2 + 1j)})
    t, _ = qudit_universal_nf(state, p)
    assert map_equal(interpret(t, R, 6), state)


@pytest.mark.parametrize("d", [8, 9, 10])
def test_universal_survives_branch_cuts_at_high_d(d):
    # each letter from 5 up on its own output, so each merge tree's root
    # of [l]! is met alone; at d = 10 it is minus the principal root for
    # every l = 5..8, which a label divided by the principal root gets wrong
    p = QParams(d)
    R = p.ring()
    levels = range(5, min(8, d - 1) + 1)
    n = len(levels)
    words = ["0" * i + str(l) + "0" * (n - 1 - i) for i, l in enumerate(levels)]
    amps = (1 + 0j, -2 + 1j, 0.5j, 3 - 0.25j)
    state = make_map(R, d, 0, n, {(w, ""): ring.complex_value(R, a) for w, a in zip(words, amps)})
    t, _ = qudit_universal_nf(state, p)
    assert map_equal(interpret(t, R, d), state)


def test_universal_handles_wide_states():
    # many rows at d = 5 on 3 wires: thousands of crossing layers, which
    # must not hit the interpreter's or the term tree's recursion limits
    rng = random.Random(31)
    p = QParams(5)
    R = p.ring()
    from zwcalc.semantics import make_map
    entries = {}
    while len(entries) < 8:
        w = "".join(str(rng.randint(0, 4)) for _ in range(3))
        entries[(w, "")] = ring.complex_value(R, complex(rng.uniform(-3, 3), 1))
    state = make_map(R, 5, 0, 3, entries)
    t, _ = qudit_universal_nf(state, p)
    assert map_equal(interpret(t, R, 5), state)
    assert term.render(t)  # rendering long chains stays iterative


def test_universal_random_round_trips():
    rng = random.Random(123)
    p = QParams(3)
    R = p.ring()
    from zwcalc.semantics import make_map
    for _ in range(40):
        n = rng.choice((1, 2, 3))
        entries = {}
        for _ in range(rng.randint(1, 5)):
            w = "".join(str(rng.randint(0, 2)) for _ in range(n))
            entries[(w, "")] = ring.complex_value(
                R, complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        state = make_map(R, 3, 0, n, entries)
        t, _ = qudit_universal_nf(state, p)
        assert map_equal(interpret(t, R, 3), state)


def _complex_entries(m):
    return {k: complex(v.value) for k, v in m.entries.items()}


def _same_table(anyonic, qubit):
    a, b = _complex_entries(anyonic), _complex_entries(qubit)
    return (anyonic.n_in, anyonic.n_out) == (qubit.n_in, qubit.n_out) and all(
        close(a.get(k, 0j), b.get(k, 0j)) for k in a.keys() | b.keys())


# generators whose anyonic table at d = 2 is their qubit table; integer
# labels, so that the text reads in both rings
BRIDGE_SAME = ["id", "swap", "x", "cup", "cap", "ket(0)", "ket(1)",
               *(f"w(0,{m})" for m in range(1, 5)),
               *(f"z({k},{m})[{u}]" for k in range(5) for m in range(5 - k) if k + m
                 for u in (-2, 0, 3))]


@pytest.mark.parametrize("text", BRIDGE_SAME)
def test_anyonic_tables_at_d2_are_the_qubit_tables(text):
    C, Z = ring.C(TOL), ring.Z()
    assert _same_table(interpret(term.parse(text, C), C, 2), interpret(term.parse(text, Z), Z))


@pytest.mark.parametrize("k,m", [(k, m) for k in range(1, 5) for m in range(5 - k)])
def test_anyonic_w_at_d2_is_merge_then_split(k, m):
    # the anyonic w(k,m) merges k wires and splits m ways, and the qubit
    # w(k,m) is the bent W state, so the bridge runs through the W monoid
    C, Z = ring.C(TOL), ring.Z()
    anyonic = interpret(term.wspider(k, m), C, 2)
    assert _same_table(anyonic, interpret(term.seq(term.w_monoid(k), term.w_comonoid(m)), Z))
    assert not _same_table(anyonic, interpret(term.wspider(k, m), Z))
