"""Digest of zwcalc's outputs, to show that a change keeps them bit-identical.

    python3 tools/outputs_digest.py

imports zwcalc from the ``src`` next to this file, so running it in two
checkouts compares their outputs.  It prints one SHA-256 per section and
one over all of them; a section whose digest differs names what moved.
Every value is written with ``repr`` of its raw value, so an int, a
Gaussian rational and a complex number with the sign of each zero part
all count.

* ``catalogue-Qi``, ``catalogue-Z``, ``catalogue-Zn6``: every default
  axiom and derived instance and its negative control (``rules.mutate``)
  over the ring: the texts, both sides' maps (``interpret``) and normal
  forms (``normalize``), and the verdict with its witness;
* ``catalogue-Qi-fractions``: the same over Qi at the labels 1/2 and
  -1/3+1/2i, whose values are not Gaussian integers;
* ``reconstruct``: seeded d = 2 states over Z rebuilt with
  ``nf_to_term``, rendered, parsed and evaluated by both pillars;
* ``qudit-tables``: the C generator tables and the binomial tables at
  d = 2..10;
* ``qudit-laws``: the law reports, ``max_error`` included, at d = 2..10;
* ``qudit-universal``: seeded states at d = 3..7 rebuilt by
  ``qudit_universal_nf`` and interpreted;
* ``qudit-crossings``: seeded states shaped like the benchmark's d = 5..7
  groups (``perfbench/workloads.py``, 13 to 22 crossings), with amplitude
  parts that are 0.0 or -0.0 among them, rebuilt and interpreted.

A run takes a few seconds.  ``tools/outputs_digest.exact`` holds the
lines of the exact-ring sections (the catalogues and ``reconstruct``),
which CI requires unchanged; the C sections are left out there, as their
last bits follow the platform's libm.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from zwcalc import normalform, qudit, ring, rules, semantics, term  # noqa: E402
from perfbench import workloads  # noqa: E402


def _map(m) -> list:
    return [m.d, m.n_in, m.n_out, sorted((k, repr(v.value)) for k, v in m.entries.items())]


def _nf(mnf) -> list:
    return [mnf.n_in, mnf.n_out, mnf.nf.d, [(repr(c.value), w) for c, w in mnf.nf.rows]]


def _guarded(fn):
    """The value of ``fn()``, or the error it raises, as text."""
    try:
        return fn()
    except Exception as exc:  # an error is an output too
        return ["raised", type(exc).__name__, str(exc)]


def _report(rep) -> list:
    return [rep.name, rep.params, rep.passed, rep.witness, repr(rep.max_error)]


def catalogue(r: ring.RingDescriptor, labels=rules.DEFAULT_BOUNDS.label_samples):
    bounds = replace(rules.DEFAULT_BOUNDS, label_samples=labels)
    for inst in rules.axiom_instances(bounds, r) + rules.derived_instances(bounds, r):
        for case in (inst, rules.mutate(inst, r)):
            yield [case.name, case.params, case.lhs_text, case.rhs_text,
                   _report(rules.check_rule(case, r))]
            for side in (case.lhs, case.rhs):
                yield _guarded(lambda: _map(semantics.interpret(side, r)))
                yield _guarded(lambda: _nf(normalform.normalize(side, r)))


def reconstruct():
    z, rng = ring.Z(), random.Random(15)
    for _ in range(60):
        n = rng.randint(1, 6)
        words = sorted({"".join(rng.choice("01") for _ in range(n))
                        for _ in range(rng.randint(1, 6))})
        nf = normalform.canonicalize(normalform.PreNormalForm(2, n, tuple(
            (ring.from_int(z, rng.choice([-3, -2, -1, 1, 2, 3])), w) for w in words)))
        text = term.render(normalform.nf_to_term(nf))
        parsed = term.parse(text, z)
        yield [text, _nf(normalform.normalize(parsed, z)), _map(semantics.interpret(parsed, z))]


def _qudit_generators(c: ring.RingDescriptor, d: int) -> list:
    gens = [term.ID, term.SWAP, term.CUP, term.CAP, term.X, term.XINV]
    gens += [term.wspider(k, m) for k, m in ((0, 1), (1, 0), (1, 1), (0, 2), (1, 2), (2, 1))]
    labels = [ring.parse_literal(c, s) for s in ("1", "-1", "0.5-2i", "-0.0+1e-3i")]
    gens += [term.zspider(k, m, a) for k, m in ((0, 1), (1, 0), (1, 1), (0, 2), (2, 0),
                                                (1, 2), (2, 1), (0, 3))
             for a in labels]
    return gens + [term.ket(level) for level in range(d)]


def qudit_tables():
    for d in range(2, 11):
        p = qudit.QParams(d)
        for g in _qudit_generators(p.ring(), d):
            yield [term.render(g), _map(semantics.interpret(g, p.ring(), d))]
        yield repr(qudit.binomial_table(p))


def qudit_laws():
    for d in range(2, 11):
        p = qudit.QParams(d)
        for check in (qudit.check_bialgebra, qudit.check_commutation,
                      qudit.check_antipode, qudit.check_vandermonde):
            yield _report(check(p))


def qudit_universal():
    rng = random.Random(15)
    for d in range(3, 8):
        p = qudit.QParams(d)
        c = p.ring()
        for _ in range(4):
            n = rng.randint(1, 3)
            words = sorted({"".join(str(rng.randrange(d)) for _ in range(n)) for _ in range(3)})
            state = semantics.make_map(c, d, 0, n, {
                (w, ""): ring.complex_value(c, complex(rng.randint(-8, 8), rng.randint(-8, 8)) / 4)
                for w in words})
            t, nf = qudit.qudit_universal_nf(state, p)
            yield [term.render(t), [(repr(v.value), w) for v, w in nf.rows],
                   _map(semantics.interpret(t, c, d))]


def qudit_crossings():
    rng = random.Random(18)
    parts = (0.0, -0.0, 0.5, -0.75, 1.25, -2.0)
    for d, fans, fan_ins, crossings, _ in workloads.QUDIT_STATES:
        if d < 5:
            continue
        p = qudit.QParams(d)
        c = p.ring()
        for _ in range(4):
            words = workloads.draw_words(rng, d, fans, fan_ins, crossings)
            amps = [complex(rng.choice(parts), rng.choice(parts)) for _ in words]
            state = semantics.make_map(c, d, 0, len(fan_ins), {
                (w, ""): ring.complex_value(c, a if a else 1j) for w, a in zip(words, amps)})
            t, _ = qudit.qudit_universal_nf(state, p)
            yield _map(semantics.interpret(t, c, d))


SECTIONS = {
    "catalogue-Qi": lambda: catalogue(ring.Qi()),
    "catalogue-Z": lambda: catalogue(ring.Z()),
    "catalogue-Zn6": lambda: catalogue(ring.Zn(6)),
    "catalogue-Qi-fractions": lambda: catalogue(ring.Qi(), ("1/2", "-1/3+1/2i")),
    "reconstruct": reconstruct,
    "qudit-tables": qudit_tables,
    "qudit-laws": qudit_laws,
    "qudit-universal": qudit_universal,
    "qudit-crossings": qudit_crossings,
}


def main() -> None:
    total = hashlib.sha256()
    for name, records in SECTIONS.items():
        h = hashlib.sha256()
        for record in records():
            h.update(repr(record).encode())
            h.update(b"\n")
        print(f"{h.hexdigest()}  {name}")
        total.update(h.digest())
    print(f"{total.hexdigest()}  all")


if __name__ == "__main__":
    main()
