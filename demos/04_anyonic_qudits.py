"""The d-level generalisation: q-deformed arithmetic, the anyonic
crossing, the split/merge pair, and the universal reconstruction of an
arbitrary state as a diagram.

q = exp(2 pi i / d) throughout; [d] = 0 truncates the ladder.
"""

import cmath
import random

from zwcalc import ring, term
from zwcalc.qudit import (
    QParams,
    antipode_term,
    check_antipode,
    check_bialgebra,
    check_commutation,
    check_q_vandermonde,
    law_terms,
    q_binom,
    q_factorial,
    q_int,
    qudit_universal_nf,
)
from zwcalc.semantics import interpret, make_map, map_equal

p3 = QParams(3)
print("q-integers at d=3:",
      [complex(round(q_int(n, p3).real, 6), round(q_int(n, p3).imag, 6))
       for n in range(4)])
print("[3]! =", q_factorial(3, p3), "(vanishes: the ladder stops)")
print("binom(2,1)_q =", q_binom(2, 1, p3), "= exp(i pi/3)",
      cmath.exp(1j * cmath.pi / 3))

# The split map on the two-particle level mixes a deformed coefficient in.
split = interpret(term.wspider(1, 2), p3.ring(), 3)
print("\nsplit of |2> at d=3:")
for (out_w, in_w), v in sorted(split.entries.items()):
    if in_w == "2":
        print(f"  |{out_w}> coefficient {complex(v.value):.6f}")

split4 = interpret(term.wspider(1, 2), QParams(4).ring(), 4)
print("\nsplit of |2> at d=4 has the quartic radical:",
      complex(split4.entries[("11", "2")].value), "= 2^(1/4) exp(i pi/8)")

# Antipode: diagonal phases (-1)^n q^(n(n-1)/2), realised by a crossing
# loop through the top level.
for d in (2, 3, 4):
    p = QParams(d)
    via_term = interpret(antipode_term(d), p.ring(), d)
    diag = [complex(via_term.entries[(str(n), str(n))].value) for n in range(d)]
    formula = [(-1) ** n * p.q ** (n * (n - 1) // 2) for n in range(d)]
    same = all(abs(a - b) < 1e-9 for a, b in zip(diag, formula))
    print(f"antipode d={d}: {[complex(round(v.real, 6), round(v.imag, 6)) for v in diag]}"
          f" (formula agrees: {same})")

# The bialgebra and Hopf laws are pairs of terms, checked by interpreting
# both sides; the commutation law compares interpreted ladder maps.
laws = law_terms(3)
for name in ("bialgebra", "antipode-hopf"):
    lhs, rhs = laws[name]
    print(f"\n{name} at d=3:\n  {term.render(lhs)}\n  = {term.render(rhs)}")
lowered, raised = laws["commutation"]
print(f"\ncommutation at d=3: a a+ = 1 + q a+ a, with\n  a a+ = {term.render(lowered)}"
      f"\n  a+ a = {term.render(raised)}")
for d in (2, 3, 4, 5, 7, 10):
    p = QParams(d)
    vander = all(check_q_vandermonde(p, n, j, k)
                 for n in range(d) for j in range(n + 1) for k in range(n + 1))
    print(f"d={d}:", check_bialgebra(p), "|", check_commutation(p),
          "|", check_antipode(p), "| vandermonde:", vander)

# Universality: rebuild a two-qutrit state as a diagram and re-evaluate.
rng = random.Random(42)
R = p3.ring()
entries = {}
for _ in range(3):
    w = "".join(str(rng.randint(0, 2)) for _ in range(2))
    entries[(w, "")] = ring.complex_value(
        R, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
state = make_map(R, 3, 0, 2, entries)
t, nf = qudit_universal_nf(state, p3)
print("\nstate rows:", [(f"{complex(c.value):.3f}", w) for c, w in nf.rows])
print("diagram:", term.render(t)[:100], "...")
print("round trip:", map_equal(interpret(t, R, 3), state))

# The crossing phases q^(jk) are visible directly in the sparse matrix.
x = interpret(term.X, p3.ring(), 3)
print("\ncrossing entry |21> -> |12>:", x.entries[("12", "21")])
