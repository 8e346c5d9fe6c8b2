"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are fixed
here: exact equality for everything at dimension 2, 1e-9 for the anyonic
law checks, 1e-8 for the d=3 universal round trip.
"""

import cmath
import random
import time

from zwcalc import ring, term
from zwcalc.semantics import interpret, make_map, map_equal, parity_class
from zwcalc.normalform import nf_of_state, nf_to_term, normalize
from zwcalc import rules as zrules
from zwcalc import qudit as zq

import helpers

Z = ring.Z()
QI = ring.Qi()
Z2 = ring.Zn(2)


def _verdict(number, text, ok):
    print(f"criterion {number:>2} ({text}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_c01_axiom_soundness():
    t0 = time.time()
    total, failures = 0, []
    for R in (Z, QI):
        instances = zrules.axiom_instances(zrules.DEFAULT_BOUNDS, R)
        total += len(instances)
        failures += [r for r in zrules.check_all(instances, R) if not r.passed]
    elapsed = time.time() - t0
    ok = not failures and 200 <= total <= 500 and elapsed < 10
    print(f"  {total} instances over Z and Qi in {elapsed:.2f}s")
    _verdict(1, "axiom soundness", ok)


def test_c02_derived_rules():
    failures = []
    for R in (Z, QI):
        instances = zrules.derived_instances(zrules.DEFAULT_BOUNDS, R)
        names = {i.name for i in instances}
        assert {"xnat", "d_ba_w", "d_ba_zw", "aut", "lp", "sum", "crossminus",
                "hopf", "negation", "trace", "absorption"} <= names
        failures += [r for r in zrules.check_all(instances, R) if not r.passed]
    _verdict(2, "derived-rule validity", not failures)


def _bent_state(m):
    entries = {(u + w, ""): v for (w, u), v in m.entries.items()}
    return make_map(m.ring, m.d, 0, m.n_in + m.n_out, entries)


def test_c03_completeness_desk_scale():
    rng = random.Random(20260809)
    labels = [ring.from_int(Z, v) for v in (-2, -1, 0, 1, 2)]
    checked = 0
    while checked < 1000:
        t = helpers.random_term(rng, labels, max_generators=8)
        if t.n_in + t.n_out > 4:
            continue
        checked += 1
        direct = nf_of_state(_bent_state(interpret(t, Z)))
        assert normalize(t, Z).nf == direct
    pairs = 0
    for inst in (zrules.axiom_instances(zrules.DEFAULT_BOUNDS, Z)
                 + zrules.derived_instances(zrules.DEFAULT_BOUNDS, Z)):
        assert normalize(inst.lhs, Z) == normalize(inst.rhs, Z), \
            f"{inst.name} {inst.params}"
        pairs += 1
    print(f"  {checked} random terms, {pairs} curated pairs")
    _verdict(3, "oracle equivalence of normalization", checked >= 1000)


def test_c04_universality_round_trip():
    rng = random.Random(4)
    done = 0
    while done < 200:
        n = rng.randint(0, 4)
        entries = {}
        for _ in range(rng.randint(0, 6)):
            w = "".join(rng.choice("01") for _ in range(n))
            entries[(w, "")] = ring.from_int(Z, rng.randint(-9, 9))
        v = make_map(Z, 2, 0, n, entries)
        if len(v.entries) > 6:
            continue
        done += 1
        rebuilt = interpret(nf_to_term(nf_of_state(v)), Z)
        assert map_equal(rebuilt, v)
    _verdict(4, "universality round trip", done >= 200)


def test_c05_fragment_grading():
    rng = random.Random(55)
    labels = []
    for _ in range(500):
        t = helpers.random_term(rng, labels, pool=helpers.EVEN_POOL)
        assert parity_class(interpret(t, Z)) in ("even", "zero")
    for _ in range(500):
        t = helpers.random_term(rng, labels, pool=helpers.PURE_POOL)
        assert parity_class(interpret(t, Z)) != "mixed"
    _verdict(5, "fragment grading", True)


def test_c06_modular_variant():
    over_z2 = map_equal(interpret(term.X, Z2), interpret(term.SWAP, Z2))
    over_z = map_equal(interpret(term.X, Z), interpret(term.SWAP, Z))
    _verdict(6, "crossing equals swap exactly mod 2", over_z2 and not over_z)


def test_c07_qudit_tables():
    tol = 1e-9
    checks = []

    def entry(t, d, out_word, in_word):
        m = interpret(t, zq.QParams(d).ring(), d)
        got = m.entries.get((out_word, in_word))
        return complex(got.value) if got is not None else 0j

    def w_entry(d, level, out_word):
        return entry(term.wspider(1, 2), d, out_word, str(level))

    def t_entry(d, level):
        return entry(zq.antipode_term(d), d, str(level), str(level))

    checks.append(abs(w_entry(2, 1, "01") - 1) <= tol)
    checks.append(abs(w_entry(2, 1, "11") - 0) <= tol)
    checks.append(abs(w_entry(3, 2, "11") - cmath.exp(1j * cmath.pi / 6)) <= tol)
    checks.append(abs(w_entry(3, 2, "02") - 1) <= tol)
    checks.append(abs(w_entry(4, 2, "11")
                      - 2 ** 0.25 * cmath.exp(1j * cmath.pi / 8)) <= tol)
    checks.append(abs(w_entry(4, 3, "12") - cmath.exp(1j * cmath.pi / 4)) <= tol)
    checks.append(abs(t_entry(3, 1) + 1) <= tol)
    checks.append(abs(t_entry(3, 2) - cmath.exp(2j * cmath.pi / 3)) <= tol)
    checks.append(abs(t_entry(4, 2) - 1j) <= tol)
    # top level at d=4: the Hopf property forces -q^3 = +i here
    checks.append(abs(t_entry(4, 3) - 1j) <= tol)
    checks.append(zq.check_antipode(zq.QParams(4)).passed)
    checks.append(abs(t_entry(2, 1) + 1) <= tol)
    _verdict(7, "explicit d=2,3,4 tables", all(checks))


def test_c08_qudit_laws():
    ok = True
    for d in range(2, 6):
        p = zq.QParams(d)
        for n in range(d):
            for j in range(n + 1):
                for k in range(n + 1):
                    ok = ok and zq.check_q_vandermonde(p, n, j, k)
    for d in range(2, 5):
        ok = ok and zq.check_bialgebra(zq.QParams(d)).passed
    for d in range(2, 7):
        ok = ok and zq.check_commutation(zq.QParams(d)).passed
        ok = ok and abs(zq.q_int(d, zq.QParams(d))) <= 1e-9
    _verdict(8, "q-Vandermonde, bialgebra, commutation, [d]=0", ok)


def test_c09_qudit_universality():
    rng = random.Random(9)
    p = zq.QParams(3)
    R = p.ring()
    done = 0
    while done < 100:
        entries = {}
        for _ in range(rng.randint(1, 5)):
            w = "".join(str(rng.randint(0, 2)) for _ in range(2))
            entries[(w, "")] = ring.complex_value(
                R, complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        state = make_map(R, 3, 0, 2, entries)
        done += 1
        t, nf = zq.qudit_universal_nf(state, p)
        rebuilt = interpret(t, R, 3)
        zero = ring.complex_value(R, 0)
        for key in state.entries.keys() | rebuilt.entries.keys():
            a = complex(state.entries.get(key, zero).value)
            b = complex(rebuilt.entries.get(key, zero).value)
            assert abs(a - b) <= 1e-8
    _verdict(9, "anyonic universal round trip", done >= 100)


def test_c10_negative_controls():
    instances = zrules.axiom_instances(
        zrules.RuleBounds(max_spider_arity=3, max_nm=2,
                          label_samples=("1", "2")), Z)
    sample = instances[:: max(1, len(instances) // 14)][:14]
    reports = [zrules.check_rule(zrules.mutate(i, Z), Z) for i in sample]
    # a control that fails to evaluate shows nothing: its witness must be an entry
    ok = (len(reports) >= 10
          and all(not r.passed and r.witness is not None and r.witness[0] != "<error>"
                  for r in reports))
    # the d=3 bialgebra law with a stray 1.01 scaling on one output
    C = zq.QParams(3).ring()
    lhs, rhs = zq.law_terms(3)["bialgebra"]
    bad = lhs >> (term.zspider(1, 1, ring.complex_value(C, 1.01)) @ term.ID)
    rep = zrules.check_maps("bialgebra", "d=3", interpret(bad, C, 3), interpret(rhs, C, 3))
    ok = ok and not rep.passed and rep.witness is not None
    _verdict(10, "negative controls bite", ok)
