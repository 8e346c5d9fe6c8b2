"""Seeded inputs and verdicts for the three benchmark workloads.

A verdict is one question put to zwcalc whose answer is known without
zwcalc: a catalogue rule holds (it is an equation of the calculus), a
negative control fails (unless ``expected.json`` lists it as sound), a
state rebuilt from its rows gives back those rows (the rows were drawn
here), an anyonic law holds (it is a theorem).  ``Verdict.check`` runs
the program and returns whether its answer matches.

Inputs depend on the seed only through the choices a schedule leaves
open, so every seed has the same cost profile:

* ``catalogue``: the default rule catalogue over Qi; the seed orders it.
* ``reconstruct``: d=2 states whose width, row count, letter weight K,
  crossing count and per-output fan-in are fixed by ``RECONSTRUCT``; the
  seed picks the rows and their integer coefficients.
* ``qudit``: the four law checks for d = 2..7, and states at d = 3..7
  fixed the same way by ``QUDIT_STATES``; the seed picks rows and
  complex amplitudes.

Everything calls zwcalc through module attributes (``normalform.normalize``,
not a name imported once), so the tracer's patches are seen.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = json.loads((HERE / "expected.json").read_text())

WORKLOADS = ("catalogue", "reconstruct", "qudit")

# (row fans, per-output fan-ins, crossings, copies); K = sum of the fans.
# 100 states, so the percentiles rest on 100 verdicts; the copies put the
# median inside the K=7 group and the 90th percentile inside the K=9
# group, so neither sits on a boundary between groups of different cost.
RECONSTRUCT = (
    ((2, 3), (1, 2, 2), 3, 12),
    ((1, 2, 2), (1, 1, 2, 1), 6, 12),
    ((3, 3), (2, 2, 1, 1), 4, 8),
    ((2, 2, 2), (2, 1, 2, 1), 9, 8),
    ((1, 2, 2, 2), (2, 2, 1, 2), 13, 20),
    ((2, 3, 3), (3, 2, 2, 1), 8, 24),
    ((4, 5), (2, 2, 2, 2, 1), 6, 16),
)

# (d, row fans, per-output fan-ins, crossings, copies); letters are levels.
# With the 24 law verdicts that makes 108; the median falls inside the
# d=5 group and the 90th percentile inside the d=7 group.
QUDIT_STATES = (
    (3, (2, 2, 2), (2, 2, 2), 7, 4),
    (3, (1, 2, 3), (3, 2, 1), 7, 4),
    (4, (3, 3, 2), (3, 3, 2), 13, 4),
    (4, (2, 3, 3), (2, 2, 2, 2), 11, 4),
    (5, (3, 3, 3), (3, 3, 3), 14, 16),
    (5, (2, 3, 4), (3, 3, 3), 13, 16),
    (6, (4, 3, 3), (4, 3, 3), 16, 8),
    (6, (2, 4, 4), (3, 4, 3), 16, 8),
    (7, (4, 4, 3), (4, 4, 3), 22, 10),
    (7, (3, 3, 5), (4, 3, 4), 16, 10),
)
QUDIT_LAW_DIMS = range(2, 8)
QUDIT_TOLERANCE = 1e-9
ROUND_TRIP_TOLERANCE = 1e-8


class SetupError(Exception):
    """The checkout does not hold the program the benchmark drives."""


def load_zwcalc():
    """Import zwcalc from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "zwcalc" / "__init__.py").is_file():
        raise SetupError(f"no zwcalc sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import zwcalc
    import zwcalc.cli  # noqa: F401  -- the command line's import cost is set-up

    if Path(zwcalc.__file__).resolve().parent != SRC / "zwcalc":
        raise SetupError(f"imported zwcalc from {zwcalc.__file__}, not {SRC}")
    return zwcalc


@dataclass(frozen=True)
class Verdict:
    label: str
    check: Callable[[], bool]


@dataclass
class Workload:
    name: str
    verdicts: list[Verdict]
    inputs: list = field(default_factory=list)  # JSON-able description
    schedule: list = field(default_factory=list)  # seed-independent shape

    @property
    def digest(self) -> str:
        text = json.dumps(self.inputs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def build(name: str, seed: int) -> Workload:
    """Import zwcalc and build the workload's inputs with its builders."""
    load_zwcalc()
    if name == "catalogue":
        return _catalogue(seed)
    if name == "reconstruct":
        return _reconstruct(seed)
    if name == "qudit":
        return _qudit(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _value(v):
    """The raw value of a coefficient, whether or not it is wrapped."""
    return getattr(v, "value", v)


# --- catalogue -------------------------------------------------------------

def _bent(m) -> dict:
    """A sparse map as rows of its bent state: input word + output word."""
    return {u + w: v for (w, u), v in m.entries.items()}


def _rows(mnf) -> dict:
    return {w: c for c, w in mnf.nf.rows}


def _rule_holds(inst, ring) -> bool:
    from zwcalc import normalform, rules, semantics

    report = rules.check_rule(inst, ring)
    lhs = normalform.normalize(inst.lhs, ring)
    rhs = normalform.normalize(inst.rhs, ring)
    return (report.passed and lhs == rhs
            and _rows(lhs) == _bent(semantics.interpret(inst.lhs, ring))
            and _rows(rhs) == _bent(semantics.interpret(inst.rhs, ring)))


def _mutant_judged(mut, ring, sound: bool) -> bool:
    from zwcalc import normalform, rules

    report = rules.check_rule(mut, ring)
    lhs = _rows(normalform.normalize(mut.lhs, ring))
    rhs = _rows(normalform.normalize(mut.rhs, ring))
    if sound:
        return report.passed and lhs == rhs
    if report.passed or report.witness is None:
        return False
    # the interpreter's witness entry must differ in the normal forms too
    out_w, in_w = report.witness[:2]
    word = in_w + out_w
    return lhs.get(word) != rhs.get(word)


def _catalogue(seed: int) -> Workload:
    from zwcalc import ring, rules

    qi = ring.Qi()
    axioms = rules.axiom_instances(rules.DEFAULT_BOUNDS, qi)
    derived = rules.derived_instances(rules.DEFAULT_BOUNDS, qi)
    sound = {(m["name"], m["params"]) for m in EXPECTED["sound_mutants"]}
    known = {(i.name, i.params) for i in axioms + derived}
    if not sound <= known:
        raise SetupError(f"expected.json names missing rules: {sorted(sound - known)}")
    cases = []
    for inst in axioms + derived:
        tag = f"{inst.name}[{inst.params}]"
        mut = rules.mutate(inst)
        cases.append((f"rule {tag}", inst.lhs_text, inst.rhs_text,
                      lambda i=inst: _rule_holds(i, qi)))
        cases.append((f"mutant {tag}", mut.lhs_text, mut.rhs_text,
                      lambda m=mut, s=(inst.name, inst.params) in sound:
                      _mutant_judged(m, qi, s)))
    random.Random(seed).shuffle(cases)
    return Workload(
        "catalogue",
        [Verdict(label, check) for label, _, _, check in cases],
        inputs=[[label, lhs, rhs] for label, lhs, rhs, _ in cases],
        schedule=[len(axioms), len(derived)])


# --- seeded states -----------------------------------------------------------

def crossings(words) -> int:
    """Inversions between the canonical diagram's wire order (row-major)
    and its output order (output-major): the crossings it needs."""
    key = []
    for i, w in enumerate(words):
        for j, c in enumerate(w):
            key.extend([(j, i)] * int(c))
    return sum(1 for a in range(len(key)) for b in range(a + 1, len(key))
               if key[a] > key[b])


def draw_words(rng: random.Random, d: int, fans, fan_ins, target: int) -> list[str]:
    """Distinct sorted words with the given row sums (fans), output sums
    (fan-ins), letters below d, and exactly ``target`` crossings."""
    stubs = [j for j, k in enumerate(fan_ins) for _ in range(k)]
    for _ in range(100_000):
        rng.shuffle(stubs)
        words, pos = [], 0
        for f in fans:
            letters = [0] * len(fan_ins)
            for j in stubs[pos:pos + f]:
                letters[j] += 1
            pos += f
            if max(letters) >= d:
                break
            words.append("".join(map(str, letters)))
        else:
            words.sort()
            if len(set(words)) == len(words) and crossings(words) == target:
                return words
    raise SetupError(f"no words for d={d}, fans={fans}, fan-ins={fan_ins}")


def _shape(d, words) -> list:
    return [d, len(words[0]), len(words),
            sum(int(c) for w in words for c in w), crossings(words)]


def _reconstruct_ok(nf, expected: dict, ring) -> bool:
    from zwcalc import normalform, semantics, term

    built = normalform.nf_to_term(nf)
    parsed = term.parse(term.render(built), ring)
    rows = normalform.normalize(parsed, ring)
    state = semantics.interpret(parsed, ring)
    return (parsed == built and rows.n_in == 0
            and {w: str(_value(c)) for c, w in rows.nf.rows} == expected
            and {u + w: str(_value(v)) for (w, u), v in state.entries.items()} == expected)


def _reconstruct(seed: int) -> Workload:
    from zwcalc import normalform, ring

    z = ring.Z()
    rng = random.Random(seed)
    coeffs = [c for c in range(-9, 10) if c]
    verdicts, inputs, schedule = [], [], []
    for fans, fan_ins, target, copies in RECONSTRUCT:
        for _ in range(copies):
            words = draw_words(rng, 2, fans, fan_ins, target)
            rows = [{"v": str(rng.choice(coeffs)), "w": w} for w in words]
            data = {"n": len(fan_ins), "d": 2, "rows": rows}
            nf = normalform.from_json_dict(data, z)
            expected = {r["w"]: r["v"] for r in rows}
            label = f"state {len(verdicts)} K={sum(fans)}"
            verdicts.append(Verdict(
                label, lambda nf=nf, e=expected: _reconstruct_ok(nf, e, z)))
            inputs.append(data)
            schedule.append(_shape(2, words))
    return Workload("reconstruct", verdicts, inputs, schedule)


# --- qudit -------------------------------------------------------------------

def _vandermonde(qudit, p) -> bool:
    return all(qudit.check_q_vandermonde(p, n, j, k)
               for n in range(p.d) for j in range(n + 1) for k in range(n + 1))


def _law_verdicts(qudit) -> list[Verdict]:
    out = []
    for d in QUDIT_LAW_DIMS:
        p = qudit.QParams(d, QUDIT_TOLERANCE)
        out += [
            Verdict(f"law bialgebra d={d}", lambda p=p: qudit.check_bialgebra(p).passed),
            Verdict(f"law commutation d={d}", lambda p=p: qudit.check_commutation(p).passed),
            Verdict(f"law antipode d={d}", lambda p=p: qudit.check_antipode(p).passed),
            Verdict(f"law q-vandermonde d={d}", lambda p=p: _vandermonde(qudit, p)),
        ]
    return out


def _universal_ok(state, p, expected: dict) -> bool:
    from zwcalc import qudit, semantics

    term, nf = qudit.qudit_universal_nf(state, p)
    rebuilt = semantics.interpret(term, p.ring(), p.d)
    got = {w: complex(_value(v)) for (w, u), v in rebuilt.entries.items()}
    rows = {w: complex(_value(c)) for c, w in nf.rows}

    def close(a: dict) -> bool:
        return all(abs(a.get(w, 0) - expected.get(w, 0)) <= ROUND_TRIP_TOLERANCE
                   for w in a.keys() | expected.keys())

    return close(got) and close(rows) and rows.keys() == expected.keys()


def _amplitude(rng: random.Random) -> complex:
    while True:
        v = complex(rng.randint(-16, 16), rng.randint(-16, 16)) / 8
        if v:
            return v


def _qudit(seed: int) -> Workload:
    from zwcalc import qudit, semantics

    rng = random.Random(seed)
    verdicts = _law_verdicts(qudit)
    inputs = [v.label for v in verdicts]
    schedule = list(inputs)
    for d, fans, fan_ins, target, copies in QUDIT_STATES:
        p = qudit.QParams(d, QUDIT_TOLERANCE)
        for _ in range(copies):
            words = draw_words(rng, d, fans, fan_ins, target)
            amps = {w: _amplitude(rng) for w in words}
            data = {"d": d, "in": 0, "out": len(fan_ins), "entries": [
                {"out": w, "in": "", "v": f"{a.real!r}{a.imag:+}i"}
                for w, a in amps.items()]}
            state = semantics.from_json_dict(data, p.ring())
            label = f"state {len(verdicts)} d={d}"
            verdicts.append(Verdict(
                label, lambda s=state, p=p, e=amps: _universal_ok(s, p, e)))
            inputs.append(data)
            schedule.append(_shape(d, words))
    order = list(range(len(verdicts)))
    rng.shuffle(order)
    return Workload("qudit", [verdicts[i] for i in order],
                    [inputs[i] for i in order], schedule)
