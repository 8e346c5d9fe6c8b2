"""Catalogue of the calculus's equations, checked against the interpreter.

Every axiom and derived rule is materialised as a pair of closed terms at
concrete arities and labels.  Parameterised families (spider fusion, the
bialgebra squares, ...) are enumerated over small bounds.  The squares
``ba_w`` and ``ba_zw`` wire each of n bottom spiders to each of m top
spiders, which is the canonical diagram of the normal-form theorem with
no bottom layer and n all-ones words
(:func:`zwcalc.normalform.canonical_diagram`).  A rule's two
sides are kept only as the terms its builder makes; their text is
rendered when read.  The catalogue's ring is ``QI``, the Gaussian
rationals, unless a caller passes another.  :func:`mutate`
builds a negative control, and the scalar -1 it puts beside a closed
rule lives in the ring the control is checked in.

:func:`check_maps` is zwcalc's one verdict on two maps: the rule
checks, the anyonic laws of :mod:`zwcalc.qudit` and the command line's
round trips all call it.  It reports a :class:`RuleReport` that names the
first differing matrix entry on failure and, over the approximate complex
ring, the largest entrywise error.  ``check_rule`` evaluates both sides
of a rule with the sparse interpreter and hands them to it.  For rules
that hold only under extra relations in the coefficient ring (none in
the base catalogue) the checker is ring-sensitive by construction.

Naming follows the calculus: ``adj`` the snake equations, ``com`` the
commutativity of cup and cap, ``rei`` the Reidemeister moves of the
crossing, ``nat`` naturality/sliding rules, ``cut``/``tr``/``sym`` spider
fusion, self-trace and leg exchange, ``ba`` the bialgebra squares,
``ant`` the crossing/negation anticommutation, ``inv``/``id``/``rng``
the unit laws, ``loop``/``lp`` white-black loop collapse, ``ph`` kink
sliding, ``unx`` crossing removal over copied wires, and the derived
``xnat``, ``aut``, ``sum``, ``crossminus`` and ``hopf``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import normalform as _nf
from . import ring as _ring
from .ring import RingDescriptor, RingElement, format_literal
from . import term as _term
from .term import Term, identity, render, w_comonoid, w_monoid, zspider
from .semantics import SparseMap, first_difference, interpret, map_equal


@dataclass(frozen=True)
class RuleInstance:
    name: str
    params: str
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if (self.lhs.n_in, self.lhs.n_out) != (self.rhs.n_in, self.rhs.n_out):
            raise _term.ArityError(
                f"rule {self.name}[{self.params}] sides have different arities")

    @property
    def lhs_text(self) -> str:
        return render(self.lhs)

    @property
    def rhs_text(self) -> str:
        return render(self.rhs)


@dataclass(frozen=True)
class RuleReport:
    name: str
    params: str
    passed: bool
    witness: tuple | None = None  # (out, in, lhs value, rhs value) on failure
    max_error: float | None = None  # over the approximate complex ring only

    def __str__(self):
        error = "" if self.max_error is None else f" (max error {self.max_error:.3g})"
        if self.passed:
            return f"{self.name:<12} {self.params:<24} pass{error}"
        out_w, in_w, lv, rv = self.witness
        return (f"{self.name:<12} {self.params:<24} FAIL at (out={out_w!r}, "
                f"in={in_w!r}): {lv} vs {rv}{error}")


@dataclass(frozen=True)
class RuleBounds:
    max_spider_arity: int = 4
    max_nm: int = 3
    label_samples: tuple[str, ...] = ("0", "1", "-1", "2", "-2", "i", "1+i")


DEFAULT_BOUNDS = RuleBounds()
QI = _ring.Qi()


def labels_for(ring: RingDescriptor, bounds: RuleBounds) -> list[RingElement]:
    """The samples that are literals of ``ring``, each value once, in first-seen
    order: samples that coincide in the ring (2 and 0 mod 2) would repeat instances."""
    out = {}
    for text in bounds.label_samples:
        try:
            out.setdefault(_ring.parse_literal(ring, text))
        except _ring.RingError:
            continue  # imaginary samples do not exist over the integers
    return list(out)


# --- term builders ---------------------------------------------------------

def _scalar(r: RingElement) -> Term:
    """The closed diagram of value r: z(0,1)[r] ; w(1,0)."""
    return zspider(0, 1, r) >> _term.wspider(1, 0)


def _w_state(n: int) -> Term:
    """w(0,n); with no legs, w(0,2) closed by a cap, the zero scalar."""
    return _term.wspider(0, n) if n else _term.wspider(0, 2) >> _term.CAP


def _z_state(n: int, r: RingElement) -> Term:
    """z(0,n)[r]; with no legs, z(0,2)[r] closed by a cap, the scalar 1 + r."""
    return zspider(0, n, r) if n else zspider(0, 2, r) >> _term.CAP


# --- the catalogue ---------------------------------------------------------

def _fixed_rules(ring: RingDescriptor) -> list[RuleInstance]:
    ID, CUP, CAP, SWAP, X = _term.ID, _term.CUP, _term.CAP, _term.SWAP, _term.X
    tw, neg, one = _term.twist(), _term.negate(), ring.one
    return [
        RuleInstance("adj_L", "", (ID @ CUP) >> (CAP @ ID), ID),
        RuleInstance("adj_R", "", (CUP @ ID) >> (ID @ CAP), ID),
        RuleInstance("com_co", "", CUP >> SWAP, CUP),
        RuleInstance("com", "", SWAP >> CAP, CAP),
        RuleInstance("rei_x_1", "", (ID @ CUP) >> (X @ ID) >> (ID @ CAP),
                     (CUP @ ID) >> (ID @ X) >> (CAP @ ID)),
        RuleInstance("rei_x_2", "", X >> X, ID @ ID),
        RuleInstance("rei_x_3", "", (X @ ID) >> (ID @ X) >> (X @ ID),
                     (ID @ X) >> (X @ ID) >> (ID @ X)),
        RuleInstance("nat_x_eta", "", (CUP @ ID) >> (ID @ X) >> (X @ ID), ID @ CUP),
        RuleInstance("nat_x_eps", "", CAP @ ID, (ID @ X) >> (X @ ID) >> (ID @ CAP)),
        RuleInstance("nat_x_w", "", (w_comonoid(2) @ ID) >> (ID @ X) >> (X @ ID),
                     X >> (ID @ w_comonoid(2))),
        RuleInstance("inv", "", neg >> neg, ID),
        RuleInstance("ant_x_n", "", (neg @ ID) >> X, X >> (tw @ neg)),
        RuleInstance("frm", "", tw >> tw, ID),
        RuleInstance("id", "", zspider(1, 1, one), ID),
        RuleInstance("rng_1", "", zspider(1, 1, one), ID),
        RuleInstance("rng_-1", "", zspider(1, 1, -one), tw),
        RuleInstance("ph", "", zspider(1, 2, one) >> (tw @ ID), tw >> zspider(1, 2, one)),
        RuleInstance("nat_c_n", "", zspider(1, 2, one) >> (neg @ neg),
                     neg >> zspider(1, 2, one)),
    ]


def _join(a: Term, leg_a: int, b: Term, through_tick: bool) -> Term:
    """Plug the last output of a into the first output of b, optionally
    through a binary node; a and b are states."""
    mid = _term.negate() if through_tick else _term.ID
    t = a @ b
    t = t >> _term.par_all([identity(leg_a - 1), mid, identity(b.n_out)])
    return t >> _term.par_all([identity(leg_a - 1), _term.CAP, identity(b.n_out - 1)])


def axiom_instances(bounds: RuleBounds = DEFAULT_BOUNDS,
                    ring: RingDescriptor = QI) -> list[RuleInstance]:
    """One instance per axiom per admissible parameter tuple."""
    labels = labels_for(ring, bounds)
    two = _ring.from_int(ring, 2)
    three = _ring.from_int(ring, 3)
    arities = range(1, bounds.max_spider_arity + 1)
    nms = range(0, bounds.max_nm + 1)
    out = _fixed_rules(ring)

    for a in arities:
        for b in arities:
            out.append(RuleInstance("cut_w", f"a={a},b={b}",
                                    _join(_term.wspider(0, a), a, _term.wspider(0, b), True),
                                    _w_state(a + b - 2)))
    for n in range(0, bounds.max_spider_arity - 1):
        out.append(RuleInstance("tr_w", f"n={n}",
                                _term.wspider(0, n + 2) >> _term.par_all([identity(n), _term.CAP]),
                                _w_state(n)))
    for n in range(2, bounds.max_spider_arity + 1):
        w_n = _term.wspider(0, n)
        rest = identity(n - 2)
        out.append(RuleInstance("sym_w", f"n={n}", w_n >> _term.par_all([_term.SWAP, rest]), w_n))
        out.append(RuleInstance("sym_w_x", f"n={n}", w_n >> _term.par_all([_term.X, rest]), w_n))
    for n in nms:
        for m in nms:
            if (n, m) == (0, 0):  # the square without spiders has no layer
                lhs, rhs = _scalar(ring.one), _term.wspider(0, 1) >> _term.wspider(1, 0)
            else:
                lhs = _nf.canonical_diagram(_term.EMPTY, [w_comonoid(m)] * n, ["1" * m] * n,
                                            [w_monoid(n)] * m)
                rhs = _term.wspider(n, 1) >> _term.wspider(1, m)
            out.append(RuleInstance("ba_w", f"n={n},m={m}", lhs, rhs))

    cut_z_pairs = [(r, s) for r in labels for s in labels]
    for a in arities:
        for b in arities:
            pairs = cut_z_pairs if (a, b) == (2, 2) else [(two, three)]
            for r, s in pairs:
                out.append(RuleInstance(
                    "cut_z", f"a={a},b={b},r={format_literal(r)},s={format_literal(s)}",
                    _join(zspider(0, a, r), a, zspider(0, b, s), False),
                    _z_state(a + b - 2, r * s)))
    for n in range(0, bounds.max_spider_arity - 1):
        for r in labels:
            lhs = zspider(0, n + 2, r) >> _term.par_all([identity(n), _term.CAP])
            out.append(RuleInstance("tr_z", f"n={n},r={format_literal(r)}", lhs, _z_state(n, r)))
    for n in range(2, bounds.max_spider_arity + 1):
        for r in labels:
            z_n = zspider(0, n, r)
            out.append(RuleInstance("sym_z", f"n={n},r={format_literal(r)}",
                                    z_n >> _term.par_all([_term.SWAP, identity(n - 2)]), z_n))

    for n in nms:
        for m in range(1, bounds.max_nm + 1):
            rs = labels if (n, m) == (2, 2) else [three]
            for r in rs:
                lhs = _nf.canonical_diagram(_term.EMPTY, [zspider(1, m, r)] * n, ["1" * m] * n,
                                            [w_monoid(n)] * m)
                rhs = w_monoid(n) >> zspider(1, m, r)
                out.append(RuleInstance("ba_zw", f"n={n},m={m},r={format_literal(r)}", lhs, rhs))
    for r in labels:
        out.append(RuleInstance("loop", f"r={format_literal(r)}",
                                zspider(1, 2, r) >> w_monoid(2), w_comonoid(0) >> w_monoid(0)))
    for r in labels:
        for s in labels:
            out.append(RuleInstance(
                "unx", f"r={format_literal(r)},s={format_literal(s)}",
                w_comonoid(2) >> (zspider(1, 2, r) @ zspider(1, 2, s))
                >> _term.par_all([_term.ID, _term.X, _term.ID]),
                w_comonoid(2) >> (zspider(1, 2, r) @ zspider(1, 2, s))
                >> _term.par_all([_term.ID, _term.SWAP, _term.ID])))
    for r in labels:
        for s in labels:
            out.append(RuleInstance(
                "rng_+", f"r={format_literal(r)},s={format_literal(s)}",
                w_comonoid(2) >> (zspider(1, 1, r) @ zspider(1, 1, s)) >> w_monoid(2),
                zspider(1, 1, r + s)))
    return out


def derived_instances(bounds: RuleBounds = DEFAULT_BOUNDS,
                      ring: RingDescriptor = QI) -> list[RuleInstance]:
    """Instances of the derived rules; the checker treats them like axioms."""
    labels = labels_for(ring, bounds)
    one = ring.one
    out = []
    for n in range(0, bounds.max_nm + 1):
        rot = list(range(1, n + 1)) + [0]
        lhs = (w_comonoid(n) @ _term.ID) >> _term.crossing_perm(rot)
        rhs = _term.X >> (_term.ID @ w_comonoid(n))
        out.append(RuleInstance("xnat", f"n={n}", lhs, rhs))
    for n in range(0, bounds.max_nm + 1):
        negs = _term.par_all([_term.negate()] * n)
        lhs = zspider(1, n, one) >> negs if n else zspider(1, 0, one)
        rhs = _term.negate() >> zspider(1, n, one)
        out.append(RuleInstance("aut", f"n={n}", lhs, rhs))
    for n in range(2, bounds.max_spider_arity + 1):
        for r in labels:
            lhs = zspider(1, n, r) >> w_monoid(n)
            out.append(RuleInstance("lp", f"n={n},r={format_literal(r)}", lhs,
                                    w_comonoid(0) >> w_monoid(0)))
    sum_tuples = [(), *((r,) for r in labels)]
    pool = labels * 3
    sum_tuples += [tuple(pool[:2]), tuple(pool[1:3]), tuple(pool[2:5:2]),
                   tuple(pool[:3])]
    for rs in dict.fromkeys(sum_tuples):  # with fewer than two labels, tuples repeat
        n = len(rs)
        mids = _term.par_all([zspider(1, 1, r) for r in rs])
        lhs = w_comonoid(n) >> mids >> w_monoid(n) if n else w_comonoid(0) >> w_monoid(0)
        total = ring.zero
        for r in rs:
            total = total + r
        rhs = zspider(1, 1, total)
        params = "rs=" + ",".join(format_literal(r) for r in rs)
        out.append(RuleInstance("sum", params, lhs, rhs))
    for r in labels:
        out.append(RuleInstance("crossminus", f"r={format_literal(r)}",
                                zspider(1, 2, r) >> _term.X, zspider(1, 2, -r)))
    out.append(RuleInstance("hopf", "",
                            w_comonoid(2) >> (_term.ID @ _term.twist()) >> w_monoid(2),
                            w_comonoid(0) >> w_monoid(0)))
    out.extend(_lemma_schema_instances(ring))
    # the generalized bialgebra squares are derivable as well as axiomatic
    for inst in axiom_instances(RuleBounds(bounds.max_spider_arity, bounds.max_nm,
                                           bounds.label_samples[:4]), ring):
        if inst.name in ("ba_w", "ba_zw"):
            out.append(replace(inst, name="d_" + inst.name))
    return out


def _lemma_schema_instances(ring: RingDescriptor) -> list[RuleInstance]:
    """Negation, trace and absorption, stated on concrete small diagrams
    via the canonical-form builders."""
    one = ring.one
    two = _ring.from_int(ring, 2)
    m_two = -two
    sample = _nf.canonicalize(_nf.PreNormalForm(2, 3, (
        (one, "000"), (two, "011"), (m_two, "110"), (one, "111"))))
    out = []
    for j in range(3):
        lhs = _nf.nf_to_term(sample) >> _term.par_all(
            [identity(j), _term.negate(), identity(2 - j)])
        rhs = _nf.nf_to_term(_nf.nf_negate(sample, j))
        out.append(RuleInstance("negation", f"j={j}", lhs, rhs))
    for j, k in [(0, 1), (0, 2), (1, 2)]:
        plug = _term.par_all([identity(j), _term.CAP, identity(1)]) if (j, k) == (0, 1) \
            else _term.par_all([identity(1), _term.CAP]) if (j, k) == (1, 2) \
            else (_term.par_all([_term.ID, _term.SWAP])
                  >> _term.par_all([_term.CAP, _term.ID]))
        lhs = _nf.nf_to_term(sample) >> plug
        rhs = _nf.nf_to_term(_nf.nf_trace(sample, j, k))
        out.append(RuleInstance("trace", f"j={j},k={k}", lhs, rhs))
    empty2 = _nf.NormalForm(2, 2, ())
    other = _nf.canonicalize(_nf.PreNormalForm(2, 1, ((one, "0"), (two, "1"))))
    out.append(RuleInstance(
        "absorption", "",
        _term.par(_nf.nf_to_term(empty2), _nf.nf_to_term(other)),
        _nf.nf_to_term(_nf.NormalForm(2, 3, ()))))
    return out


def check_maps(name: str, params: str, lhs: SparseMap, rhs: SparseMap) -> RuleReport:
    """The verdict on two maps: they pass when equal entrywise (within the
    ring's tolerance over C), and a failure's witness is their first
    differing entry.  Over C, ``max_error`` is the largest entrywise
    |difference| of two maps of one shape; it is None over exact rings."""
    passed = map_equal(lhs, rhs)
    max_error = None
    if not lhs.ring.exact and (lhs.d, lhs.n_in, lhs.n_out) == (rhs.d, rhs.n_in, rhs.n_out):
        a, b, zero = lhs.entries, rhs.entries, lhs.ring.zero
        max_error = max((abs(a.get(k, zero).value - b.get(k, zero).value)
                         for k in a.keys() | b.keys()), default=0.0)
    return RuleReport(name, params, passed,
                      None if passed else first_difference(lhs, rhs), max_error)


def check_rule(r: RuleInstance, desc: RingDescriptor) -> RuleReport:
    try:
        lhs = interpret(r.lhs, desc)
        rhs = interpret(r.rhs, desc)
    except Exception as exc:  # report evaluation failures, do not raise
        return RuleReport(r.name, r.params, False,
                          ("<error>", "<error>", type(exc).__name__, str(exc)))
    return check_maps(r.name, r.params, lhs, rhs)


def check_all(instances, desc: RingDescriptor) -> list[RuleReport]:
    reports = [check_rule(r, desc) for r in instances]
    reports.sort(key=lambda rep: (rep.name, rep.params))
    return reports


def mutate(r: RuleInstance, ring: RingDescriptor = QI) -> RuleInstance:
    """Negative control: damage the left side with a stray binary node, or
    a closed one with the scalar -1 of ``ring``, the ring it is checked in.

    Some controls cannot fail, because the damage leaves the map as it
    is: a NOT on the first leg of a map symmetric in that leg (the left
    sides |0>+|1> and its transpose), any damage to a zero map, and -1
    times 3 mod 6.  They are 7 of the 375 default controls over Qi, 7 of
    the 277 over Z and 8 of the 277 over Zn(6)."""
    if r.lhs.n_out >= 1:
        lhs = r.lhs >> _term.par_all([_term.negate(), identity(r.lhs.n_out - 1)])
    elif r.lhs.n_in >= 1:
        lhs = _term.par_all([_term.negate(), identity(r.lhs.n_in - 1)]) >> r.lhs
    else:
        lhs = r.lhs @ _scalar(-ring.one)
    return RuleInstance("mut_" + r.name, r.params, lhs, r.rhs)
