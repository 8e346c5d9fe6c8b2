import os
import subprocess
import sys
from pathlib import Path

import pytest

from zwcalc import ring, term
from zwcalc.rules import (
    DEFAULT_BOUNDS,
    RuleBounds,
    axiom_instances,
    check_all,
    check_maps,
    check_rule,
    derived_instances,
    mutate,
)
from zwcalc.normalform import normalize

Z = ring.Z()
QI = ring.Qi()
SRC = Path(__file__).resolve().parents[1] / "src"

SMALL = RuleBounds(max_spider_arity=3, max_nm=2, label_samples=("0", "1", "-1", "2", "i"))


def by_name(instances):
    names = {}
    for inst in instances:
        names.setdefault(inst.name, []).append(inst)
    return names


def test_every_axiom_scheme_is_instantiated():
    names = by_name(axiom_instances(DEFAULT_BOUNDS, QI))
    expected = {
        "adj_L", "adj_R", "com", "com_co", "rei_x_1", "rei_x_2", "rei_x_3",
        "nat_x_eta", "nat_x_eps", "nat_x_w", "cut_w", "tr_w", "sym_w",
        "sym_w_x", "inv", "ba_w", "ant_x_n", "cut_z", "tr_z", "sym_z",
        "id", "rng_1", "ba_zw", "loop", "ph", "nat_c_n", "unx", "rng_-1",
        "rng_+", "frm",
    }
    assert expected <= set(names)


def test_every_derived_scheme_is_instantiated():
    names = by_name(derived_instances(DEFAULT_BOUNDS, QI))
    expected = {"xnat", "aut", "lp", "sum", "crossminus", "hopf",
                "negation", "trace", "absorption", "d_ba_w", "d_ba_zw"}
    assert expected <= set(names)


@pytest.mark.parametrize("R", [Z, QI], ids=["Z", "Qi"])
def test_all_axioms_sound(R):
    reports = check_all(axiom_instances(DEFAULT_BOUNDS, R), R)
    failed = [r for r in reports if not r.passed]
    assert not failed, "\n".join(str(r) for r in failed)


@pytest.mark.parametrize("R", [Z, QI], ids=["Z", "Qi"])
def test_all_derived_rules_sound(R):
    reports = check_all(derived_instances(DEFAULT_BOUNDS, R), R)
    failed = [r for r in reports if not r.passed]
    assert not failed, "\n".join(str(r) for r in failed)


def test_specific_instances():
    names = by_name(axiom_instances(SMALL, Z))
    rei2 = check_rule(names["rei_x_2"][0], Z)
    assert rei2.passed
    # the label-sum rule really adds: the (2, 3) pair lands on 5
    wide = RuleBounds(label_samples=("2", "3"))
    plus = [i for i in by_name(axiom_instances(wide, Z))["rng_+"]
            if i.params == "r=2,s=3"]
    assert plus and check_rule(plus[0], Z).passed
    from zwcalc.semantics import interpret
    for side in (plus[0].lhs, plus[0].rhs):
        assert any(str(v) == "5" for v in interpret(side, Z).entries.values())


def test_sum_rule_adds_labels():
    wide = RuleBounds(label_samples=("1", "2", "3"))
    inst = next(i for i in derived_instances(wide, Z)
                if i.name == "sum" and i.params == "rs=1,2,3")
    assert check_rule(inst, Z).passed
    from zwcalc.semantics import interpret
    assert any(str(v) == "6" for v in interpret(inst.rhs, Z).entries.values())


def test_bialgebra_edge_cases_present():
    names = by_name(axiom_instances(DEFAULT_BOUNDS, Z))
    params = {i.params for i in names["ba_zw"]}
    assert "n=0,m=1,r=3" in params
    assert not any(p.startswith("n=2,m=0") for p in params)  # m = 0 is excluded
    assert {i.params for i in names["ba_w"]} >= {"n=0,m=0", "n=2,m=2", "n=3,m=3"}


def test_mutated_instances_fail_with_witness():
    insts = axiom_instances(SMALL, Z)
    mutated = [mutate(i) for i in insts[:12]]
    reports = [check_rule(m, Z) for m in mutated]
    assert all(not r.passed for r in reports)
    assert all(r.witness is not None for r in reports)
    out_w, in_w, lv, rv = reports[0].witness
    assert lv != rv


@pytest.mark.parametrize("R, n_instances, n_sound", [(Z, 277, 7), (ring.Zn(6), 277, 8),
                                                    (QI, 375, 7)])
def test_controls_fail_with_a_witness_in_their_own_ring(R, n_instances, n_sound):
    # a closed rule's control gets the scalar -1 of R: one of Qi made the
    # controls of the 10 scalar rules raise instead of naming an entry
    insts = axiom_instances(DEFAULT_BOUNDS, R) + derived_instances(DEFAULT_BOUNDS, R)
    sound = []
    for inst in insts:
        control = mutate(inst, R)
        rep = check_rule(control, R)
        if rep.passed:  # the damage leaves the map as it was: normalize agrees
            assert normalize(control.lhs, R) == normalize(control.rhs, R)
            sound.append(inst.name)
        else:
            assert rep.witness[0] != "<error>", rep
    assert len(insts) == n_instances and len(sound) == n_sound


def test_report_formatting():
    inst = axiom_instances(SMALL, Z)[0]
    assert "pass" in str(check_rule(inst, Z))
    bad = check_rule(mutate(inst), Z)
    assert "FAIL" in str(bad)


# exits 3 if check_rule raises MemoryError, 0 if it returns a report
_CHECK_BIG_RULE = """
import sys
from zwcalc import ring, term
from zwcalc.rules import RuleInstance, check_rule
side = term.wspider(30000, 0)
try:
    report = check_rule(RuleInstance("big", "", side, side), ring.Z())
except MemoryError:
    sys.exit(3)
print(report)
"""


def test_running_out_of_memory_is_no_verdict():
    # the spider's table outgrows 400 MB of address space, which binds the
    # child process only; a rule whose sides are one term must not FAIL
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no address-space limit on this platform")
    limit = 400 << 20
    done = subprocess.run(
        [sys.executable, "-c", _CHECK_BIG_RULE], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (done.returncode, done.stdout) == (3, "")


def test_check_maps_over_z():
    from zwcalc.semantics import first_difference, make_map

    one = Z.one
    a = make_map(Z, 2, 0, 1, {("0", ""): one, ("1", ""): one})
    b = make_map(Z, 2, 0, 1, {("0", ""): one, ("1", ""): -one})
    same = check_maps("same", "", a, a)
    assert same.passed and same.witness is None and same.max_error is None
    differ = check_maps("differ", "p", a, b)
    assert not differ.passed and differ.max_error is None
    assert differ.witness == first_difference(a, b) == ("1", "", "1", "-1")
    assert str(differ).endswith("FAIL at (out='1', in=''): 1 vs -1")


def test_check_maps_over_c():
    from zwcalc.semantics import make_map

    cc = ring.C(1e-9)

    def state(*values):
        return make_map(cc, 2, 0, 2, {(w, ""): ring.complex_value(cc, v)
                                      for w, v in zip(("00", "01", "11"), values)})

    # a difference below the tolerance passes and is measured
    near = check_maps("near", "", state(1, 2j), state(1 + 4e-10, 2j - 3e-10))
    assert near.passed and near.witness is None
    assert near.max_error == pytest.approx(4e-10, rel=1e-6)
    # the largest |difference| may sit on an entry that one side lacks
    far = check_maps("far", "", state(1, 2j), state(1.5, 2j, 3j))
    assert not far.passed and far.max_error == 3.0
    assert far.witness[:2] == ("00", "")
    assert "(max error 3)" in str(far)


@pytest.mark.parametrize("R", [QI, Z, ring.Zn(6)], ids=["Qi", "Z", "Zn6"])
@pytest.mark.parametrize("bounds", [DEFAULT_BOUNDS, SMALL], ids=["DEFAULT", "SMALL"])
def test_catalog_file_round_trip(bounds, R):
    # every side's rendered text, and every control's, parses back to the built term
    for inst in axiom_instances(bounds, R) + derived_instances(bounds, R):
        for i in (inst, mutate(inst, R)):
            assert term.parse(i.lhs_text, R) == i.lhs
            assert term.parse(i.rhs_text, R) == i.rhs


def test_catalogue_is_built_without_parsing(monkeypatch):
    # every side is built as a term, never read from text
    def no_parse(*args):
        raise AssertionError("parse called while building the catalogue")

    monkeypatch.setattr(term, "parse", no_parse)
    for R in (QI, Z, ring.Zn(6)):
        for inst in axiom_instances(DEFAULT_BOUNDS, R) + derived_instances(DEFAULT_BOUNDS, R):
            mutate(inst, R)


@pytest.mark.parametrize("R, labels", [
    (ring.Zn(2), DEFAULT_BOUNDS.label_samples),
    (ring.Zn(3), DEFAULT_BOUNDS.label_samples),
    (ring.Zn(4), DEFAULT_BOUNDS.label_samples),
    (Z, ("1", "1", "2")),
    (Z, ("1",)),
], ids=["Zn2", "Zn3", "Zn4", "Z-1,1,2", "Z-1"])
def test_samples_equal_in_the_ring_give_one_instance(R, labels):
    # samples equal in the ring (2 and -2 are 0 mod 2) give one label, and
    # one label gives one sum of each length: no (name, params) repeats
    bounds = RuleBounds(label_samples=labels)
    keys = [(i.name, i.params) for i in axiom_instances(bounds, R) + derived_instances(bounds, R)]
    assert len(keys) == len(set(keys))


def test_catalogue_is_ring_generic():
    # the axioms hold over any commutative ring; spot-check residues mod 6
    z6 = ring.Zn(6)
    reports = check_all(axiom_instances(SMALL, z6), z6)
    assert all(r.passed for r in reports)


def test_modular_collapse_of_sums():
    # over Z/5 a five-fold sum of unit labels collapses to the zero label
    z5 = ring.Zn(5)
    from zwcalc import term as zterm
    from zwcalc.semantics import interpret, map_equal
    n = 5
    lhs = (zterm.w_comonoid(n)
           >> zterm.par_all([zterm.zspider(1, 1, z5.one)] * n)
           >> zterm.w_monoid(n))
    rhs = zterm.zspider(1, 1, z5.zero)
    assert map_equal(interpret(lhs, z5), interpret(rhs, z5))


def test_instance_count_in_budget():
    n_z = len(axiom_instances(DEFAULT_BOUNDS, Z))
    n_qi = len(axiom_instances(DEFAULT_BOUNDS, QI))
    assert 200 <= n_z + n_qi <= 500
