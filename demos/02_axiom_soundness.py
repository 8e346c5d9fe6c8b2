"""Check every axiom and derived rule of the calculus against the
interpreter, over the integers and over the Gaussian rationals.

Each rule is a pair of closed terms; soundness means both sides evaluate
to the same matrix, exactly.  A deliberately damaged instance shows what
a failure report looks like.
"""

import time

from zwcalc import ring
from zwcalc.rules import (
    DEFAULT_BOUNDS,
    axiom_instances,
    check_all,
    check_rule,
    derived_instances,
    mutate,
)

for R in (ring.Z(), ring.Qi()):
    t0 = time.time()
    axioms = axiom_instances(DEFAULT_BOUNDS, R)
    derived = derived_instances(DEFAULT_BOUNDS, R)
    reports = check_all(axioms + derived, R)
    failed = [r for r in reports if not r.passed]
    print(f"{R}: {len(axioms)} axiom + {len(derived)} derived instances, "
          f"{len(failed)} failures, {time.time() - t0:.2f}s")

# A closer look at one family: the bialgebra square at a few shapes.
R = ring.Z()
for rep in check_all([i for i in axiom_instances(DEFAULT_BOUNDS, R)
                      if i.name == "ba_w"], R)[:6]:
    print(" ", rep)

# One rule, shown in the concrete grammar.
inst = next(i for i in axiom_instances(DEFAULT_BOUNDS, R) if i.name == "rng_+"
            and i.params == "r=2,s=-1")
print("\nrng_+ at (2,-1):")
print("  lhs:", inst.lhs_text)
print("  rhs:", inst.rhs_text)
print(" ", check_rule(inst, R))

# Negative control: break the left side and watch the witness appear.
print("\ndamaged instance:")
print(" ", check_rule(mutate(inst, R), R))
