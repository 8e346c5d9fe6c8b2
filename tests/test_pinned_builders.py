"""The canonical diagram's builders against reference copies of the way
they were first written (``tests/helpers.py``): the same terms, compared
by ``==``, ``render`` and ``hash``, and the same normal forms, down to the
``repr`` of every value."""

import itertools
import random

from zwcalc import normalform, qudit, ring, semantics, term
from zwcalc.normalform import NormalForm, PreNormalForm

import helpers


def _same_term(t: term.Term, ref: term.Term) -> None:
    assert t == ref
    assert hash(t) == hash(ref)
    if t is not term.EMPTY:
        assert term.render(t) == term.render(ref)


def _blocks(t: term.Term) -> list:
    return [] if t is term.EMPTY else [b for layer in helpers.layers(t) for b in layer]


def test_crossing_perm_matches_reference_on_every_small_permutation():
    for n in range(8):
        for perm in itertools.permutations(range(n)):
            t = term.crossing_perm(perm)
            _same_term(t, helpers.ref_crossing_perm(perm))
            assert all(b is term.X or b is term.ID for b in _blocks(t))


def test_crossing_perm_matches_reference_on_wide_permutations():
    rng = random.Random(23)
    for n in (12, 40):
        for _ in range(25):
            perm = list(range(n))
            rng.shuffle(perm)
            t = term.crossing_perm(perm)
            _same_term(t, helpers.ref_crossing_perm(perm))
            assert all(b is term.X or b is term.ID for b in _blocks(t))


def _same_nf(nf: NormalForm, ref: NormalForm) -> None:
    assert type(nf) is NormalForm
    assert (nf.d, nf.n) == (ref.d, ref.n)
    assert [(w, repr(c.value)) for c, w in nf.rows] == [(w, repr(c.value)) for c, w in ref.rows]
    assert [c.ring for c, _ in nf.rows] == [c.ring for c, _ in ref.rows]


def test_nf_to_term_matches_reference():
    rng = random.Random(23)
    cases = []
    for r in (ring.Z(), ring.Qi()):
        for _ in range(40):
            n = rng.randint(1, 6)
            words = sorted({"".join(rng.choice("01") for _ in range(n))
                            for _ in range(rng.randint(1, 8))})
            cases.append(normalform.canonicalize(PreNormalForm(2, n, tuple(
                (ring.from_int(r, rng.choice([-3, -2, -1, 1, 2, 3])), w) for w in words))))
    one, two = ring.from_int(ring.Z(), 1), ring.from_int(ring.Z(), 2)
    # letters above 1 become parallel wires, and a word may repeat
    cases.append(PreNormalForm(2, 3, ((two, "201"), (one, "012"), (one, "201"), (two, "130"))))
    cases += [NormalForm(2, n, ()) for n in range(4)]  # the empty state
    cases += [NormalForm(2, 0, ((two, ""),)), PreNormalForm(2, 0, ((one, ""), (two, "")))]
    for nf in cases:
        _same_term(normalform.nf_to_term(nf), helpers.ref_nf_to_term(nf))


def _states(rng: random.Random):
    parts = (0.0, -0.0, 0.5, -0.75, 1.25, -2.0)
    for d in range(2, 11):
        c = qudit.QParams(d).ring()
        for _ in range(8):
            n = rng.randint(1, 4)
            words = {"".join(str(rng.randrange(d)) for _ in range(n))
                     for _ in range(rng.randint(1, 5))}
            yield d, semantics.make_map(c, d, 0, n, {
                (w, ""): ring.complex_value(c, complex(rng.choice(parts), rng.choice(parts)))
                for w in words})
        yield d, semantics.make_map(c, d, 0, 2, {})  # the zero state
        fine = ring.C(1e-15)  # keeps an amplitude that the universal tolerance drops
        yield d, semantics.make_map(fine, d, 0, 3, {
            ("111", ""): ring.complex_value(fine, 1e-12), ("101", ""): ring.complex_value(fine, 2)})
        yield d, semantics.make_map(c, d, 0, 0, {("", ""): ring.complex_value(c, -0.5 - 0.0j)})


def test_qudit_universal_nf_matches_reference():
    for d, state in _states(random.Random(23)):
        p = qudit.QParams(d)
        t, nf = qudit.qudit_universal_nf(state, p)
        ref_t, ref_nf = helpers.ref_qudit_universal_nf(state, p)
        _same_term(t, ref_t)
        _same_nf(nf, ref_nf)
