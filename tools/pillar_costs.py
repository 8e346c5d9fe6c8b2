"""CPU time of each pillar over the rule catalogue's sides, or over wide round trips.

    python3 tools/pillar_costs.py                  # the catalogue's sides
    python3 tools/pillar_costs.py 10/64 12/128     # wide round trips, outputs/rows

imports zwcalc from the ``src`` next to this file, so running it in two
checkouts compares them; alternate the two, run by run, and compare the
medians.

With no argument it collects the sides of the default Qi catalogue:
both sides of every axiom and derived instance and the damaged side of
its negative control (``rules.mutate``), 1125 terms.  It prints the CPU
seconds (``time.process_time``, best of 5) that one pass of
``interpret`` and one pass of ``normalize`` take over all of them, after
a warm-up pass that fills the generator-table caches.  A side that
raises counts as a pass over it.

With sizes it rebuilds the states of ``tools/wide_roundtrip.py`` and
prints the CPU seconds (best of 3) of each pillar on each, first with
the cyclic garbage collector on, then with it off, so the share the
collector takes shows.  Most of such a term is its crossing network.
A third line gives the front end of a round trip on the same diagram,
each step's CPU seconds (best of 3, collector on): ``nf_to_term``
building it, ``render`` printing it, ``parse`` reading the text back
and ``==`` comparing the two terms.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path
from time import process_time

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zwcalc import normalform, ring, rules, semantics, term  # noqa: E402

import wide_roundtrip  # noqa: E402  (next to this file)

REPEATS = 5


def sides() -> list:
    """Both sides of each default Qi instance, then its control's left side."""
    qi, out = rules.QI, []
    for inst in (rules.axiom_instances(rules.DEFAULT_BOUNDS, qi)
                 + rules.derived_instances(rules.DEFAULT_BOUNDS, qi)):
        out += [inst.lhs, inst.rhs, rules.mutate(inst, qi).lhs]
    return out


def best_time(pillar, terms) -> float:
    """The least CPU time of ``REPEATS`` passes of ``pillar`` over ``terms``."""
    times = []
    for _ in range(REPEATS + 1):  # the first pass warms the caches
        start = process_time()
        for t in terms:
            try:
                pillar(t, rules.QI)
            except Exception:  # an error is a verdict too
                pass
        times.append(process_time() - start)
    return min(times[1:])


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
        return 0
    sizes = wide_roundtrip.parse_sizes(argv, "pillar_costs")
    if sizes is None:
        return 2
    for outputs, rows in sizes:
        wide_costs(outputs, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
