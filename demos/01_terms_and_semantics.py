"""Build diagrams as terms and evaluate them to sparse linear maps.

Terms compose sequentially with >> and in parallel with @; the same
diagrams can be written in the concrete grammar with ';' and '*'.
"""

from zwcalc import ring, term
from zwcalc.semantics import dagger, interpret, map_equal, parity_class, to_json_dict

Z = ring.Z()
QI = ring.Qi()

# The tripartite white spider is the unnormalised GHZ state,
# the black spider the W state.
ghz = term.zspider(0, 3, Z.one)
w3 = term.wspider(0, 3)

print("GHZ amplitudes:", to_json_dict(interpret(ghz, Z))["entries"])
print("W amplitudes:  ", to_json_dict(interpret(w3, Z))["entries"])

# The phased crossing differs from the swap on the |11> component only.
print("\ncrossing:", {k: str(v) for k, v in interpret(term.X, Z).entries.items()})

# Snake equations: bending a wire with cup and cap straightens out.
snake = term.parse("(id * cup) ; (cap * id)", Z)
print("snake == id:", map_equal(interpret(snake, Z), interpret(term.ID, Z)))

# Scalars are 0-wire maps; a closed loop evaluates to the dimension.
loop = term.parse("cup ; cap", Z)
print("closed loop:", interpret(loop, Z).scalar())

# Parity grading: black spiders are odd, the crossing even, GHZ mixed.
for name, t in [("w3", w3), ("x", term.X), ("ghz", ghz)]:
    print(f"parity of {name}:", parity_class(interpret(t, Z)))

# Over the Gaussian rationals, the adjoint is transpose plus conjugation.
zi = term.zspider(0, 2, ring.gaussian(QI, 0, 1))
print("\nz[i] state:    ", {k[0]: str(v) for k, v in interpret(zi, QI).entries.items()})
print("its adjoint:   ", {k[1]: str(v) for k, v in dagger(interpret(zi, QI)).entries.items()})

# Everything also parses from text, with labels read in the active ring.
t = term.parse("w(0,2) ; (z(1,1)[1-i] * id) ; x", QI)
print("\nparsed term:", term.render(t))
print("evaluates to:", {k: str(v) for k, v in interpret(t, QI).entries.items()})
