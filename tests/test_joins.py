"""Both pillars' layer joins on layers built to take each path: a lone
block over the whole middle word, one block padded with wires, several
blocks, and sums that cancel to zero, checked against the dense oracle."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from zwcalc import ring, term
from zwcalc.normalform import normalize
from zwcalc.semantics import interpret
from zwcalc.term import ID

import helpers

Z, QI, ZN6 = ring.Z(), ring.Qi(), ring.Zn(6)


def _labels(r) -> list:
    if r is QI:
        return [ring.gaussian(QI, Fraction(1, 2), -1), ring.gaussian(QI, 0, 3),
                ring.from_int(QI, -2)]
    return [ring.from_int(r, k) for k in (-3, -1, 2, 5)]


def _cancel(c, lo: int = 0, n: int = 1, nested: bool = True) -> term.Term:
    """Wire ``lo`` of ``n``, on which |0> takes c and -c along two paths
    (W spiders), which sum to zero, so only |1> passes: one nested chain
    padded with wires, or three padded layers."""
    gadget = [term.wspider(1, 2), term.zspider(1, 1, c) @ term.zspider(1, 1, -c),
              term.wspider(2, 1)]
    pad = [ID] * lo, [ID] * (n - lo - 1)
    if nested:
        return term.par_all([*pad[0], term.seq_all(gadget), *pad[1]])
    return term.seq_all([term.par_all([*pad[0], g, *pad[1]]) for g in gadget])


def _block(rng, r, k: int, room: int) -> term.Term:
    """A block on k wires with at most ``room`` outputs."""
    c = rng.choice(_labels(r))
    picks = [lambda: term.zspider(k, rng.randint(1, room), c),
             lambda: term.wspider(k, rng.randint(1, room))]
    if k == 1:
        picks.append(lambda: _cancel(c, nested=False))
    if k == 2:
        picks += [lambda: term.X, lambda: term.SWAP]
    return rng.choice(picks)()


def _layered(seed: int, r) -> term.Term:
    """A chain on 1 to 4 wires whose layers each take one join path."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    t = _block(rng, r, n, 4) if rng.random() < 0.5 else term.identity(n)
    for _ in range(rng.randint(1, 4)):
        n, shape = t.n_out, rng.choice(["whole", "padded", "cancel", "several"])
        if shape == "whole":
            layer = _block(rng, r, n, 4)
        elif shape == "cancel":
            layer = _cancel(rng.choice(_labels(r)), rng.randrange(n), n, rng.random() < 0.5)
        elif shape == "padded" or n < 2:
            k = rng.randint(1, n)
            lo = rng.randint(0, n - k)
            layer = term.par_all([ID] * lo + [_block(rng, r, k, 4 - n + k)] + [ID] * (n - lo - k))
        else:  # one block per wire, each with one output
            layer = term.par_all([_block(rng, r, 1, 1) for _ in range(n)])
        t = t >> layer
    return t


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 9), r=st.sampled_from([Z, QI, ZN6]))
def test_each_join_path_matches_the_dense_oracle(seed, r):
    t = _layered(seed, r)
    want = helpers.dense_evaluate(t, r)
    assert helpers.dense_equal(helpers.sparse_to_dense(interpret(t, r), r), want)
    assert helpers.dense_equal(helpers.sparse_to_dense(normalize(t, r).to_sparse(r), r), want)


def test_a_cancelling_sum_leaves_no_entry():
    for r in (Z, QI, ZN6):
        for c in _labels(r):
            for n, lo, kept in ((1, 0, ["1"]), (2, 0, ["10", "11"]),
                                (3, 1, ["010", "011", "110", "111"])):
                for nested in (True, False):
                    t = _cancel(c, lo, n, nested)
                    m = interpret(t, r)
                    assert sorted(m.entries) == [(w, w) for w in kept]
                    assert all(v == r.one for v in m.entries.values())
                    assert [(c, w) for c, w in normalize(t, r).nf.rows] == [
                        (r.one, w + w) for w in kept]
