"""Seeded inputs: reproducible per seed, one cost profile across seeds."""

import pytest

import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_digest(name):
    assert workloads.build(name, 7).digest == workloads.build(name, 7).digest


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seeds_share_the_schedule(name):
    a, b = workloads.build(name, 7), workloads.build(name, 8)
    assert a.schedule == b.schedule
    assert a.digest != b.digest
    assert len(a.verdicts) == len(b.verdicts)


def test_catalogue_is_the_default_catalogue():
    w = workloads.build("catalogue", 0)
    assert w.schedule == [288, 87]
    assert len(w.verdicts) == 2 * (288 + 87)


def test_reconstruct_schedule_bounds():
    for d, width, rows, k, crossings in workloads.build("reconstruct", 0).schedule:
        assert d == 2 and 3 <= width <= 6 and 2 <= rows <= 4 and 5 <= k <= 9
        assert crossings > 0


def test_qudit_covers_laws_and_states():
    w = workloads.build("qudit", 0)
    labels = {v.label for v in w.verdicts}
    for d in range(2, 8):
        for law in ("bialgebra", "commutation", "antipode", "q-vandermonde"):
            assert f"law {law} d={d}" in labels
    dims = {entry[0] for entry in w.schedule if isinstance(entry, list)}
    assert dims == {3, 4, 5, 6, 7}


def test_known_defects_are_verdicts_of_a_workload():
    labels = {v.label for name in workloads.WORKLOADS
              for v in workloads.build(name, 0).verdicts}
    for entry in workloads.EXPECTED["known_wrong"]:
        assert entry["label"] in labels


def test_draw_words_meets_its_constraints():
    import random

    words = workloads.draw_words(random.Random(1), 5, (2, 3, 4), (3, 3, 3), 13)
    assert sorted(sum(map(int, w)) for w in words) == [2, 3, 4]
    assert [sum(int(w[j]) for w in words) for j in range(3)] == [3, 3, 3]
    assert workloads.crossings(words) == 13
    assert words == sorted(set(words))
