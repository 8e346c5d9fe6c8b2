"""CPU time of each pillar over the rule catalogue's sides.

    python3 tools/pillar_costs.py

imports zwcalc from the ``src`` next to this file, so running it in two
checkouts compares them.  It collects the sides of the default Qi
catalogue: both sides of every axiom and derived instance and the
damaged side of its negative control (``rules.mutate``), 1125 terms.  It
prints the CPU seconds (``time.process_time``, best of 5) that one pass
of ``interpret`` and one pass of ``normalize`` take over all of them,
after a warm-up pass that fills the generator-table caches.  A side
that raises counts as a pass over it.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import process_time

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zwcalc import normalform, rules, semantics  # noqa: E402

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


def main() -> None:
    terms = sides()
    print(f"{len(terms)} sides: interpret {best_time(semantics.interpret, terms):.4f} s  "
          f"normalize {best_time(normalform.normalize, terms):.4f} s")


if __name__ == "__main__":
    main()
