"""Shared test machinery: an independent dense evaluator and random terms.

The dense oracle re-derives every generator matrix from scratch with
numpy object arrays over plain Python ints, and composes with matmul and
kron.  It shares no code with the package's sparse interpreter, so
agreement between the two is meaningful.  Random terms are capped at 4
total wires (2^4 x 2^4 = 256 entries, comfortably below the 4096-entry
budget); the wiring runs of ``test_normalform`` reach 6 wires, whose
layers take 2^6 x 2^6 = 4096 entries, the whole budget.

For qudits it keeps the closed-form crossing, split and merge matrices
(basis index = big-endian digit word), built from q-integers without the
package's split/merge trees.
"""

from __future__ import annotations

import cmath
import math
import random
import re
from fractions import Fraction

import numpy as np

from zwcalc import normalform as znormalform
from zwcalc import ring as zring
from zwcalc import semantics as zsemantics
from zwcalc import term as zterm
from zwcalc.term import Generator, Par, Seq, Term, _Empty


# the pillars' generator tables and small-chain caches, taken before a test can patch a name
_TABLES = (zsemantics.generator_map, znormalform.generator_nf,
           zsemantics._chain_map, znormalform._chain_nf)


def clear_tables() -> None:
    """Empty both pillars' generator tables and small-chain caches, so that
    a table a test plants or swaps meets no value stored before it, and no
    value built from it outlives the test."""
    for cache in _TABLES:
        cache.cache_clear()


def ref_gaussian_str(g) -> str:
    """A Gaussian rational formatted from its two ``Fraction`` parts, as
    ``GaussianRational.__str__`` did before Gaussian integers formatted
    their ints; it must read the same for every canonical value."""
    re, im = Fraction(g.a, g.den), Fraction(g.b, g.den)
    if im == 0:
        return str(re)
    im_s = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    return im_s if re == 0 else f"{re}{'+' if im > 0 else ''}{im_s}"


def _kron(a, b):
    return np.kron(a, b)


def _gen_matrix(g, ring):
    one = ring.one
    zero = ring.zero

    def mat(rows, cols):
        m = np.empty((rows, cols), dtype=object)
        m[:] = zero
        return m

    if g.kind == "id":
        m = mat(2, 2)
        m[0, 0] = m[1, 1] = one
        return m
    if g.kind == "swap":
        m = mat(4, 4)
        for b1 in range(2):
            for b2 in range(2):
                m[b2 * 2 + b1, b1 * 2 + b2] = one
        return m
    if g.kind in ("x", "xinv"):
        m = mat(4, 4)
        for b1 in range(2):
            for b2 in range(2):
                m[b2 * 2 + b1, b1 * 2 + b2] = -one if b1 == b2 == 1 else one
        return m
    if g.kind == "cup":
        m = mat(4, 1)
        m[0b00, 0] = m[0b11, 0] = one
        return m
    if g.kind == "cap":
        m = mat(1, 4)
        m[0, 0b00] = m[0, 0b11] = one
        return m
    if g.kind == "w":
        k, n = g.n_in, g.n_out
        m = mat(2 ** n, 2 ** k)
        for u in range(2 ** k):
            for v in range(2 ** n):
                if bin(u).count("1") + bin(v).count("1") == 1:
                    m[v, u] = one
        return m
    if g.kind == "z":
        k, n = g.n_in, g.n_out
        m = mat(2 ** n, 2 ** k)
        m[0, 0] = m[0, 0] + one
        m[2 ** n - 1, 2 ** k - 1] = m[2 ** n - 1, 2 ** k - 1] + g.label
        return m
    if g.kind == "ket":
        m = mat(2, 1)
        m[g.level, 0] = one
        return m
    raise AssertionError(g.kind)


def dense_evaluate(t: Term, ring) -> np.ndarray:
    """Dense matrix of a d=2 term, 2^n_out x 2^n_in, object entries."""
    if isinstance(t, _Empty):
        m = np.empty((1, 1), dtype=object)
        m[0, 0] = ring.one
        return m
    if isinstance(t, Generator):
        return _gen_matrix(t, ring)
    if isinstance(t, Seq):
        return dense_evaluate(t.then, ring) @ dense_evaluate(t.first, ring)
    if isinstance(t, Par):
        return _kron(dense_evaluate(t.left, ring), dense_evaluate(t.right, ring))
    raise AssertionError(t)


def sparse_to_dense(m, ring) -> np.ndarray:
    out = np.empty((2 ** m.n_out, 2 ** m.n_in), dtype=object)
    out[:] = ring.zero
    for (w, u), v in m.entries.items():
        r = int(w, 2) if w else 0
        c = int(u, 2) if u else 0
        out[r, c] = v
    return out


def dense_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape:
        return False
    return all(
        zring.ring_equal(a[i, j], b[i, j])
        for i in range(a.shape[0]) for j in range(a.shape[1])
    )


# --- closed-form qudit generators ---------------------------------------------

def qudit_sqrt_binom(d: int, n: int, k: int) -> complex:
    """binom(n, k)_q from its q-integers, rooted on the symmetric branch:
    for n < d the binomial is q^(k(n-k)/2) times a positive real."""
    q = cmath.exp(2j * cmath.pi / d)
    b = 1
    for l in range(1, k + 1):
        b *= sum(q ** i for i in range(n - k + l)) / sum(q ** i for i in range(l))
    return q ** (k * (n - k) / 4) * math.sqrt(abs(b))


def qudit_x(d: int) -> np.ndarray:
    """x: |k>|j> -> q^(jk) |j>|k>."""
    q = cmath.exp(2j * cmath.pi / d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for j in range(d):
            out[j * d + k, k * d + j] = q ** (j * k)
    return out


def qudit_split(d: int) -> np.ndarray:
    """w(1,2): |n> -> sum_k binom(n, k)_q^(1/2) |k>|n-k>."""
    out = np.zeros((d * d, d), dtype=complex)
    for n in range(d):
        for k in range(n + 1):
            out[k * d + (n - k), n] = qudit_sqrt_binom(d, n, k)
    return out


def qudit_merge(d: int) -> np.ndarray:
    """w(2,1): |k>|j> -> binom(k+j, k)_q^(1/2) |k+j>, zero past the top level."""
    out = np.zeros((d, d * d), dtype=complex)
    for k in range(d):
        for j in range(d - k):
            out[k + j, k * d + j] = qudit_sqrt_binom(d, k + j, k)
    return out


def qudit_to_dense(m) -> np.ndarray:
    """A complex-ring sparse map as a d^n_out x d^n_in complex matrix."""
    d = m.d
    out = np.zeros((d ** m.n_out, d ** m.n_in), dtype=complex)
    for (w, u), v in m.entries.items():
        out[int(w or "0", d), int(u or "0", d)] = complex(v.value)
    return out


# --- random well-arity terms ------------------------------------------------

WIRE_POOL = ("id", "swap", "cup", "cap", "x")
EVEN_POOL = WIRE_POOL + ("delta2", "mu2", "delta0", "mu0")
PURE_POOL = WIRE_POOL + ("w12", "w21", "w11", "w02", "w20", "w03", "w10", "w01")
FULL_POOL = PURE_POOL + ("z11", "z12", "z21", "z02", "z10", "z13", "ket0", "ket1")


def _pick_gadget(name, rng, labels):
    if name == "id":
        return zterm.ID
    if name == "swap":
        return zterm.SWAP
    if name == "cup":
        return zterm.CUP
    if name == "cap":
        return zterm.CAP
    if name == "x":
        return zterm.X
    if name == "delta2":
        return zterm.w_comonoid(2)
    if name == "mu2":
        return zterm.w_monoid(2)
    if name == "delta0":
        return zterm.w_comonoid(0)
    if name == "mu0":
        return zterm.w_monoid(0)
    if name.startswith("ket"):
        return zterm.ket(int(name[3]))
    if name.startswith("w"):
        return zterm.wspider(int(name[1]), int(name[2]))
    if name.startswith("z"):
        return zterm.zspider(int(name[1]), int(name[2]), rng.choice(labels))
    raise AssertionError(name)


def random_term(rng: random.Random, labels, pool=FULL_POOL,
                max_generators: int = 8, max_wires: int = 4) -> Term:
    """A random well-aritied composite: layered circuit, every layer a
    parallel row of pool gadgets whose inputs tile the current width."""
    budget = rng.randint(1, max_generators)

    def layer(width):
        row, used, out_w = [], 0, 0
        while used < width:
            fits = [n for n in pool
                    if _arity(n)[0] >= 1 and _arity(n)[0] <= width - used
                    and out_w + _arity(n)[1] <= max_wires + 2]
            name = rng.choice(fits)
            row.append(name)
            used += _arity(name)[0]
            out_w += _arity(name)[1]
        return row

    def _arity(name):
        probe = _pick_gadget(name, random.Random(0), labels)
        return probe.n_in, probe.n_out

    starters = [n for n in pool if _arity(n)[0] == 0]
    width = rng.randint(0, max_wires)
    if width == 0:
        t = _pick_gadget(rng.choice(starters or ["cup"]), rng, labels)
    else:
        t = zterm.par_all([_pick_gadget(n, rng, labels) for n in layer(width)])
    count = 1
    while count < budget and t.n_out > 0 and rng.random() < 0.8:
        row = layer(t.n_out)
        t = t >> zterm.par_all([_pick_gadget(n, rng, labels) for n in row])
        count += len(row)
    return t


def wiring_run(rng: random.Random, n: int) -> list[Term]:
    """1 to 8 layers of id, x, xinv and swap on n wires, with runs that are
    not reduced: a layer twice over (x ; x), or a layer between two copies
    of one swap layer."""
    def layer(kinds):
        blocks, i = [], 0
        while i < n:
            if i + 1 < n and rng.random() < 0.6:
                blocks.append(rng.choice(kinds))
                i += 2
            else:
                blocks.append(zterm.ID)
                i += 1
        return zterm.par_all(blocks)

    kinds = (zterm.X, zterm.XINV, zterm.SWAP)
    out, target = [], rng.randint(1, 8)
    while len(out) < target:
        pick = rng.random()
        if pick < 0.25 and out:
            out.append(out[-1])
        elif pick < 0.4:
            swaps = layer((zterm.SWAP,))
            out += [swaps, layer(kinds), swaps]
        else:
            out.append(layer(kinds))
    return out[:8]


def layers(t: Term) -> list[list[Term]]:
    """The ``;`` chain of ``t`` as its ``*`` layers, each the list of its
    blocks left to right, walked without recursion."""
    out, chain = [], [t]
    while chain:
        u = chain.pop()
        if type(u) is Seq:
            chain += [u.then, u.first]
            continue
        blocks, row = [], [u]
        while row:
            b = row.pop()
            while type(b) is Par:  # down the left operands; the right ones wait
                row.append(b.right)
                b = b.left
            if type(b) is not _Empty:
                blocks.append(b)
        out.append(blocks)
    return out


# ---------------------------------------------------------------------------
# reference builders: the canonical diagram as the package built it before
# crossing_perm grew its chains as it scanned and the wires were placed by
# counting; the pinned-builder tests require the same terms and normal forms


def ref_crossing_perm(perm) -> Term:
    """Odd-even transposition rounds, each round's blocks collected in a
    row and joined by ``par_all``, the rounds by ``seq_all``."""
    n = len(perm)
    done = list(range(n))
    if sorted(perm) != done:
        raise zterm.ArityError(f"{perm!r} is not a permutation")
    cur = list(perm)
    layers = []
    for r in range(n):
        if cur == done:
            break
        row, i = [], 0
        while i < n:
            if i % 2 == r % 2 and i + 1 < n and cur[i] > cur[i + 1]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                row.append(zterm.X)
                i += 2
            else:
                row.append(zterm.ID)
                i += 1
        if len(row) < n:
            layers.append(zterm.par_all(row))
    return zterm.seq_all(layers) if layers else zterm.identity(n)


def ref_canonical_diagram(bottom, whites, words, merges) -> Term:
    """The wires sorted by (output, row) keys into their merges."""
    origin = []
    for i, word in enumerate(words):
        for j, c in enumerate(word):
            origin.extend([(i, j)] * int(c))
    target = sorted(range(len(origin)), key=lambda p: (origin[p][1], origin[p][0]))
    perm = [0] * len(origin)
    for pos, p in enumerate(target):
        perm[p] = pos
    layers = [bottom, zterm.par_all(whites), ref_crossing_perm(perm), zterm.par_all(merges)]
    return zterm.seq_all([f for f in layers if f is not zterm.EMPTY])


def ref_nf_to_term(a) -> Term:
    """The dimension-2 canonical diagram, each fan and fan-in summed on its own."""
    rows, n = a.rows, a.n
    if not rows:
        zero_scalar = zterm.wspider(0, 2) >> zterm.CAP
        return zterm.par_all([zero_scalar] + [zterm.w_monoid(0)] * n)
    whites = [zterm.zspider(1, sum(int(c) for c in word), coeff) for coeff, word in rows]
    merges = [zterm.w_monoid(sum(int(word[j]) for _, word in rows)) for j in range(n)]
    return ref_canonical_diagram(zterm.wspider(0, len(rows)), whites,
                                 [word for _, word in rows], merges)


# ---------------------------------------------------------------------------
# reference parser: the one-pass parser as it was first written, a match
# object per token read by group name and a Par node per ``*`` as it is
# read; the parser tests require the same terms and the same errors


_REF_TOKEN = re.compile(r"""\s*(?P<token>
    (?P<op>[;*()])
  | w\s*\(\s*(?P<wk>\d+)\s*,\s*(?P<wm>\d+)\s*\)
  | z\s*\(\s*(?P<zk>\d+)\s*,\s*(?P<zm>\d+)\s*\)\s*\[\s*(?P<label>[^\]]*)\]
  | ket\s*\(\s*(?P<level>\d+)\s*\)
  | (?P<word>[^\W\d_]*)
)""", re.VERBOSE)

_REF_SHAPES = {"w": "w(k,m)", "z": "z(k,m)[label]", "ket": "ket(level)"}


def _ref_generator(m: re.Match, ring, start: int) -> Term:
    try:
        if m["wk"] is not None:
            return zterm.wspider(int(m["wk"]), int(m["wm"]))
        if m["zk"] is not None:
            return zterm.zspider(int(m["zk"]), int(m["zm"]),
                                 zring.parse_literal(ring, m["label"]))
        if m["level"] is not None:
            return zterm.ket(int(m["level"]))
    except zterm.ArityError as exc:
        raise zterm.ParseError(str(exc), start) from None
    except zring.RingError as exc:
        raise zterm.ParseError(str(exc), m.start("label")) from None
    word = m["word"]
    if word in zterm._FIXED_ARITY:
        return zterm._WIRES[word]
    if word in _REF_SHAPES:
        raise zterm.ParseError(f"expected {_REF_SHAPES[word]}", start)
    raise zterm.ParseError(f"expected a generator, got {word!r}" if word else "expected a term",
                           start)


def ref_parse(text: str, ring) -> Term:
    """Per open bracket, the ``;`` chain so far and the ``*`` chain after it."""
    leaves: dict[str, Term] = {}
    frames = []
    chain = layer = None
    operand = True
    for m in _REF_TOKEN.finditer(text):
        tok = m["token"]
        if operand and tok == "(":
            frames.append((chain, layer))
            chain = layer = None
        elif operand:
            u = leaves.get(tok) or leaves.setdefault(tok, _ref_generator(m, ring, m.start("token")))
            layer = u if layer is None else Par(layer, u)
            operand = False
        elif tok == "*":
            operand = True
        else:
            start = m.start("token")
            if chain is not None:
                try:
                    layer = Seq(chain, layer)
                except zterm.ArityError as exc:
                    raise zterm.ParseError(str(exc), start) from None
            if tok == ";":
                chain, layer, operand = layer, None, True
            elif tok == ")" and frames:
                chain, outer = frames.pop()
                layer = layer if outer is None else Par(outer, layer)
            elif frames or start < len(text):
                raise zterm.ParseError("expected ')'" if frames else "trailing input", start)
            else:
                return layer


def ref_qudit_universal_nf(state, p):
    """The qudit canonical diagram, a tree coefficient per letter, and its
    normal form through ``canonicalize``."""
    from zwcalc import normalform, qudit

    ring = p.ring()
    n = state.n_out
    rows = [(complex(v.value), w) for (w, _), v in sorted(state.entries.items())
            if abs(complex(v.value)) > p.tolerance]
    if not rows:
        absorbing = zterm.ket(1) >> zterm.wspider(1, 0)
        return (zterm.par_all([absorbing] + [zterm.ket(0)] * n),
                normalform.NormalForm(p.d, n, ()))
    bottom = zterm.ket(1) >> zterm.wspider(1, len(rows))
    whites = []
    for amp, word in rows:
        adjusted = amp
        for ch in word:
            if int(ch):
                adjusted /= qudit._tree_coeff("1" * int(ch), p)
        fan = sum(int(ch) for ch in word)
        whites.append(zterm.zspider(1, fan, zring.complex_value(ring, adjusted)))
    merges = []
    for j in range(n):
        k_j = sum(int(word[j]) for _, word in rows)
        merges.append(zterm.wspider(k_j, 1) if k_j else zterm.ket(0))
    t = ref_canonical_diagram(bottom, whites, [w for _, w in rows], merges)
    nf = normalform.canonicalize(normalform.PreNormalForm(
        p.d, n, tuple((zring.complex_value(ring, a), w) for a, w in rows)))
    return t, nf
