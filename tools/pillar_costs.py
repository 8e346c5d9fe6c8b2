"""CPU time of each pillar over the rule catalogue's sides, or over wide round trips.

    python3 tools/pillar_costs.py                  # the catalogue's sides
    python3 tools/pillar_costs.py 10/64 12/128     # wide round trips, outputs/rows
    python3 tools/pillar_costs.py qudit            # the qudit universal rebuilds
    python3 tools/pillar_costs.py reconstruct      # the d = 2 round trips, front end and terms

imports zwcalc from the ``src`` next to this file, so running it in two
checkouts compares them; alternate the two, run by run, and compare the
medians.

With no argument it collects the sides of the default Qi catalogue:
both sides of every axiom and derived instance and the damaged side of
its negative control (``rules.mutate``), 1125 terms.  It prints the CPU
seconds (``time.process_time``, best of 5) that one pass of
``interpret`` and one pass of ``normalize`` take over all of them, after
a warm-up pass that fills the generator-table caches.  A side that
raises counts as a pass over it.  Those passes run from the plans that
``term.fold`` keeps on the sides after their first fold, so the next
line times first folds: each pillar's pass over plan-less copies of the
sides (``copy.copy``), which build their plans, and then its pass over
the same copies again, from those plans (best of 5, new copies each
time).  A copy shares its side's leaves but none of its ``;`` and
``*`` nodes, so a gadget that the side holds twice is two objects
there.  The next line times the opening joins alone: one warm pass of
each pillar records the arguments of every ``semantics._apply_blocks``
and ``normalform._plug`` call that opens a chain (nothing below it) with
a layer of two or more blocks, the two functions are restored, and each
is timed over its recorded calls (best of 5).  Then it prints each
pillar's mean microseconds per call in three size classes of sides,
counted in term nodes (leaves and ``;``/``*`` nodes): bare generators,
sides of 2 to 16 nodes, and larger sides, so a change to the fixed
cost of a call shows where it lands.  Each class's time is the best of
5 passes, each pass calling the pillar on the class's sides until at
least ``CLASS_CALLS`` calls are made.

With sizes it rebuilds the states of ``tools/wide_roundtrip.py`` and
prints the CPU seconds (best of 3) of each pillar on each, first with
the cyclic garbage collector on, then with it off, so the share the
collector takes shows.  Most of such a term is its crossing network.
A third line gives the front end of a round trip on the same diagram,
each step's CPU seconds (best of 3, collector on): ``nf_to_term``
building it, ``render`` printing it, ``parse`` reading the text back
and ``==`` comparing the two terms.

With ``qudit`` it takes the benchmark's qudit states (the state inputs
of ``perfbench.workloads.build("qudit", 1)``, read back by
``semantics.from_json_dict``) and prints the CPU seconds (best of 5,
after a warm-up pass) of one pass of ``qudit_universal_nf`` building
their canonical diagrams, of ``crossing_perm`` building just their
crossing networks, and of ``interpret`` reading the diagrams back.
``crossing_perm`` shares each network up to
``term.SHARED_NETWORK_WIRES`` wires, so the first two steps are timed
twice: "cold", with the shared networks dropped before every call
(``cache_clear``), so each call builds its network, and "shared", with
them kept, so a repeated permutation finds its network built.  The last
line times the C run joins alone, as the default mode does the opening
joins: one warm ``interpret`` pass over the diagrams records the
arguments of every ``semantics._apply_run_in_order`` call, its layers
as lists, the function is restored, and it is timed over the recorded
calls (best of 5).

With ``reconstruct`` it takes the benchmark's d = 2 states
(``perfbench.workloads.RECONSTRUCT`` as ``workloads.build`` draws them,
seed 1), builds each one's canonical diagram and parses its render, as a
round-trip verdict does.  It prints the CPU seconds (best of 5, after a
warm-up pass) of one pass of each front-end step over the states, as
the sizes mode does for one wide state: ``nf_to_term``, ``render``,
``parse`` and ``==`` between each parsed term and the built one.  Then
it prints those of one pass of each pillar over the parsed terms: first
with both pillars' small-chain caches (``semantics._chain_map``,
``normalform._chain_nf``) emptied before every call, so each call joins
every small nested chain once, then with the caches left full.
"""

from __future__ import annotations

import copy
import gc
import sys
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from zwcalc import normalform, qudit, ring, rules, semantics, term  # noqa: E402
from perfbench import workloads  # noqa: E402  (read only: its inputs)

import wide_roundtrip  # noqa: E402  (next to this file)

REPEATS = 5
CLASS_CALLS = 2000  # calls per timed pass of one size class
SIZE_CLASSES = ("bare generators", "2..16 nodes", "17+ nodes")


def sides() -> list:
    """Both sides of each default Qi instance, then its control's left side."""
    qi, out = rules.QI, []
    for inst in (rules.axiom_instances(rules.DEFAULT_BOUNDS, qi)
                 + rules.derived_instances(rules.DEFAULT_BOUNDS, qi)):
        out += [inst.lhs, inst.rhs, rules.mutate(inst, qi).lhs]
    return out


def best_of(work) -> float:
    """The least CPU time of ``REPEATS`` calls of ``work``, after a warm-up call."""
    times = []
    for _ in range(REPEATS + 1):  # the first pass warms the caches
        start = process_time()
        work()
        times.append(process_time() - start)
    return min(times[1:])


def each(step, calls):
    """A pass of ``step`` over the argument tuples ``calls``, each result
    dropped before the next call."""
    def one_pass():
        for args in calls:
            step(*args)
    return one_pass


def one_pass(pillar, terms) -> None:
    """``pillar`` on each of ``terms`` over Qi, in turn."""
    for t in terms:
        try:
            pillar(t, rules.QI)
        except Exception:  # an error is a verdict too
            pass


def best_time(pillar, terms) -> float:
    """The least CPU time of ``REPEATS`` passes of ``pillar`` over ``terms``."""
    return best_of(lambda: one_pass(pillar, terms))


def first_times(pillar, terms) -> tuple[float, float]:
    """The least CPU time of ``REPEATS`` passes of ``pillar`` over plan-less
    copies of ``terms``, made before each pass, and of a second pass over
    the same copies, after a warm-up round."""
    firsts, agains = [], []
    for _ in range(REPEATS + 1):
        copies = [copy.copy(t) for t in terms]
        for times in (firsts, agains):
            start = process_time()
            one_pass(pillar, copies)
            times.append(process_time() - start)
    return min(firsts[1:]), min(agains[1:])


def size_classes(terms) -> dict:
    """``terms`` by size class (``SIZE_CLASSES``), by their node count."""
    classes = {name: [] for name in SIZE_CLASSES}
    for t in terms:
        nodes = len(term._preorder(t))
        classes[SIZE_CLASSES[0 if nodes == 1 else 1 if nodes <= 16 else 2]].append(t)
    return classes


def class_costs(terms) -> None:
    """Each pillar's mean microseconds per call in each size class."""
    for name, group in size_classes(terms).items():
        laps = -(-CLASS_CALLS // len(group))  # passes over the group per timed pass
        means = [best_time(pillar, group * laps) / (len(group) * laps) * 1e6
                 for pillar in (semantics.interpret, normalform.normalize)]
        print(f"  {name}, {len(group)} sides: interpret {means[0]:.2f} us  "
              f"normalize {means[1]:.2f} us")


def recorder(join, calls):
    """``join``, appending the arguments of each call that opens a chain
    with a layer of two or more blocks to ``calls``."""
    def recording(a, blocks, *rest):
        out = join(a, blocks, *rest)
        if a is None and len(blocks) >= 2:
            calls.append((a, list(blocks), *rest))
        return out
    return recording


def opening_costs(terms) -> None:
    """Each pillar's least CPU time of one pass over its opening joins
    of ``terms`` alone, as one warm pass of each pillar makes them."""
    joins = {"interpret": (semantics, "_apply_blocks"), "normalize": (normalform, "_plug")}
    reals = {pillar: getattr(module, name) for pillar, (module, name) in joins.items()}
    calls = {pillar: [] for pillar in joins}
    for pillar, (module, name) in joins.items():  # each _fold looks its join up per call
        setattr(module, name, recorder(reals[pillar], calls[pillar]))
    try:
        one_pass(semantics.interpret, terms)
        one_pass(normalform.normalize, terms)
    finally:
        for pillar, (module, name) in joins.items():
            setattr(module, name, reals[pillar])
    print("  opening joins of 2+ blocks: " + "  ".join(
        f"{pillar} {len(calls[pillar])} calls {best_of(each(reals[pillar], calls[pillar])):.4f} s"
        for pillar in joins))


def qudit_costs() -> None:
    """One pass's least CPU time of each step of the qudit rebuilds."""
    states, perms = [], []
    for data in workloads.build("qudit", 1).inputs:
        if isinstance(data, dict):  # a state; the laws' inputs are their labels
            p = qudit.QParams(data["d"], workloads.QUDIT_TOLERANCE)
            states.append((p, semantics.from_json_dict(data, p.ring())))
    real = term.crossing_perm
    term.crossing_perm = lambda perm: perms.append(perm) or real(perm)  # collect the networks
    try:
        built = [(p, qudit.qudit_universal_nf(state, p)[0]) for p, state in states]
    finally:
        term.crossing_perm = real

    def cold(step):  # step on an emptied network cache
        return lambda *args: term._shared_network.cache_clear() or step(*args)

    steps = {"qudit_universal_nf": (qudit.qudit_universal_nf, [(s, p) for p, s in states]),
             "crossing_perm": (term.crossing_perm, [(perm,) for perm in perms])}
    for name, (step, calls) in steps.items():
        print(f"{len(calls)} calls of {name}: cold {best_of(each(cold(step), calls)):.4f} s  "
              f"shared {best_of(each(step, calls)):.4f} s")
    reads = [(t, p.ring(), p.d) for p, t in built]
    read = best_of(each(semantics.interpret, reads))
    print(f"{len(states)} qudit states: interpret {read:.4f} s")
    runs, real_run = [], semantics._apply_run_in_order

    def recording(a, layers, r):  # a run's layers are read once: keep them as a list
        runs.append((a, list(layers), r))
        return real_run(*runs[-1])

    semantics._apply_run_in_order = recording  # _fold looks the run join up per call
    try:
        each(semantics.interpret, reads)()
    finally:
        semantics._apply_run_in_order = real_run
    print(f"  {len(runs)} C run joins: {best_of(each(real_run, runs)):.4f} s")


def reconstruct_costs() -> None:
    """One pass's least CPU time of each front-end step over the
    reconstruct states, then of each pillar over their parsed terms, with
    the small-chain caches emptied before every call, then full."""
    z, caches = ring.Z(), (semantics._chain_map, normalform._chain_nf)
    states = [normalform.from_json_dict(data, z) for data in workloads.build("reconstruct", 1).inputs]
    built = [normalform.nf_to_term(nf) for nf in states]
    texts = [term.render(t) for t in built]
    terms = [term.parse(text, z) for text in texts]
    build, write, read, compare = (best_of(each(step, calls)) for step, calls in (
        (normalform.nf_to_term, [(nf,) for nf in states]),
        (term.render, [(t,) for t in built]),
        (term.parse, [(text, z) for text in texts]),
        (term.Term.__eq__, list(zip(terms, built)))))
    print(f"{len(states)} reconstruct states, front end: nf_to_term {build:.4f} s  "
          f"render {write:.4f} s  parse {read:.4f} s  == {compare:.4f} s")

    def one_pass(pillar, clear: bool):
        def work():
            for t in terms:
                if clear:
                    for cache in caches:
                        cache.cache_clear()
                pillar(t, z)
        return work

    for clear in (True, False):
        read, rows = (best_of(one_pass(pillar, clear))
                      for pillar in (semantics.interpret, normalform.normalize))
        print(f"{len(terms)} reconstruct terms, chain caches {'cleared' if clear else 'full'}: "
              f"interpret {read:.4f} s  normalize {rows:.4f} s")


def wide_costs(outputs: int, rows: int) -> None:
    """Each pillar's least CPU time of ``wide_roundtrip.REPEATS`` calls on
    the wide round trip, with gc on and off, then each front-end step's."""
    nf, z = wide_roundtrip.state(outputs, rows), ring.Z()
    t = normalform.nf_to_term(nf)
    for collect in (True, False):
        times = []
        for pillar in (semantics.interpret, normalform.normalize):
            best = float("inf")
            for _ in range(wide_roundtrip.REPEATS):
                gc.collect()
                if not collect:
                    gc.disable()
                start = process_time()
                pillar(t, z)
                best = min(best, process_time() - start)
                gc.enable()
            times.append(best)
        print(f"{outputs}/{rows} gc {'on' if collect else 'off'}: "
              f"interpret {times[0]:.3f} s  normalize {times[1]:.3f} s", flush=True)
    build, _ = wide_roundtrip.best_time(lambda: normalform.nf_to_term(nf))
    write, text = wide_roundtrip.best_time(lambda: term.render(t))
    read, back = wide_roundtrip.best_time(lambda: term.parse(text, z))
    compare, _ = wide_roundtrip.best_time(lambda: back == t)
    print(f"{outputs}/{rows} front end: nf_to_term {build:.4f} s  render {write:.4f} s  "
          f"parse {read:.4f} s  == {compare:.4f} s", flush=True)


def main(argv: list[str]) -> int:
    if not argv:
        terms = sides()
        print(f"{len(terms)} sides: interpret {best_time(semantics.interpret, terms):.4f} s  "
              f"normalize {best_time(normalform.normalize, terms):.4f} s")
        (read, read_again), (rows, rows_again) = (
            first_times(pillar, terms) for pillar in (semantics.interpret, normalform.normalize))
        print(f"  first folds of plan-less copies: interpret {read:.4f} s, then {read_again:.4f} s"
              f"  normalize {rows:.4f} s, then {rows_again:.4f} s")
        opening_costs(terms)
        class_costs(terms)
        return 0
    if argv == ["qudit"]:
        qudit_costs()
        return 0
    if argv == ["reconstruct"]:
        reconstruct_costs()
        return 0
    sizes = wide_roundtrip.parse_sizes(argv, "pillar_costs")
    if sizes is None:
        return 2
    for outputs, rows in sizes:
        wide_costs(outputs, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
