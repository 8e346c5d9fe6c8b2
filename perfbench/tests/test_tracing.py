"""The tracer: patches every alias, leaves nothing behind, and its self
times add up."""

import pytest

import tracing
import workloads


@pytest.fixture()
def zw():
    return workloads.load_zwcalc()


def test_install_patches_every_alias_and_uninstall_restores(zw):
    from zwcalc import rules, semantics

    orig = semantics.interpret
    tr = tracing.Tracer()
    assert tr.install() == []
    try:
        assert semantics.interpret is rules.interpret is zw.interpret
        assert semantics.interpret.__wrapped__ is orig
    finally:
        tr.uninstall()
    assert semantics.interpret is orig and rules.interpret is orig
    assert zw.interpret is orig
    for mod, fname in tracing.LAYERS:
        assert not hasattr(getattr(getattr(zw, mod), fname), "__wrapped__")


def test_self_times_add_up_and_nest(zw):
    w = workloads.build("reconstruct", 1)
    tr = tracing.Tracer()
    tr.install()
    try:
        for i, v in enumerate(w.verdicts[:3]):
            assert tr.run_verdict(i, v.check)
    finally:
        tr.uninstall()
    sums = tr.verdict_self_sums()
    assert sorted(sums) == [0, 1, 2]
    for self_total, root in sums.values():
        assert self_total == pytest.approx(root, rel=1e-9)
    for i in range(len(tr.name)):
        p = tr.parent[i]
        assert tr.start[i] <= tr.end[i]
        if p >= 0:
            assert tr.start[p] <= tr.start[i] and tr.end[i] <= tr.end[p]
            assert tr.verdict[p] == tr.verdict[i]
    # normalize recurses; only the outermost spans count towards its time
    nid = tr.name_id("normalform.normalize")
    assert tr.calls[nid] > 3

    def nested(i):
        p = tr.parent[i]
        while p >= 0 and tr.name[p] != nid:
            p = tr.parent[p]
        return p >= 0

    outer = sum(tr.end[i] - tr.start[i] for i in range(len(tr.name))
                if tr.name[i] == nid and not nested(i))
    assert tr.outer("normalform.normalize") == pytest.approx(outer)


def test_nested_builders_count_once(zw):
    from zwcalc import ring, rules

    tr = tracing.Tracer()
    tr.install()
    try:
        derived = rules.derived_instances(rules.DEFAULT_BOUNDS, ring.Qi())
    finally:
        tr.uninstall()
    assert tr.n_calls("rules.build") == 2  # derived calls axiom_instances
    m = tracing.layer_metrics(tr, 1.0, 1.0)
    assert m["rules.instances"]["value"] == len(derived)
    assert set(m) == set(tracing.LAYER_METRICS)
