"""The known answers, confirmed by the dense oracle instead of zwcalc."""

import pytest

import oracle
import workloads


def test_oracle_basics():
    assert oracle.dense_equal("(id * cup) ; (cap * id)", "id")
    assert oracle.dense_equal("x ; x", "id * id")
    assert not oracle.dense_equal("x", "swap")
    assert oracle.dense_equal("z(1,1)[1]", "id")
    assert oracle.dense_equal("w(1,1) ; w(1,1)", "id")
    assert not oracle.dense_equal("z(1,1)[1+i]", "z(1,1)[1-i]")
    assert oracle.dense("z(0,1)[-1/2-3i]")[1, 0] == complex(-0.5, -3)


@pytest.fixture(scope="module")
def catalogue():
    workloads.load_zwcalc()
    from zwcalc import ring, rules

    qi = ring.Qi()
    return (rules.axiom_instances(rules.DEFAULT_BOUNDS, qi)
            + rules.derived_instances(rules.DEFAULT_BOUNDS, qi))


def test_every_rule_holds(catalogue):
    wrong = [(i.name, i.params) for i in catalogue
             if not oracle.dense_equal(i.lhs_text, i.rhs_text)]
    assert wrong == []


def test_sound_mutants_are_exactly_the_listed_ones(catalogue):
    from zwcalc import rules

    sound = set()
    for inst in catalogue:
        mut = rules.mutate(inst)
        if oracle.dense_equal(mut.lhs_text, mut.rhs_text):
            sound.add((inst.name, inst.params))
    listed = {(m["name"], m["params"]) for m in workloads.EXPECTED["sound_mutants"]}
    assert sound == listed
    assert len(listed) == 7


@pytest.mark.parametrize("d", range(2, 8))
def test_bialgebra_law_holds(d):
    assert oracle.bialgebra_error(d) <= 1e-9
