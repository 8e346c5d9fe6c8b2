"""Wide round trips: seeded d = 2 states over Z rebuilt by ``nf_to_term``.

    python3 tools/wide_roundtrip.py            # 8/32, 10/64 and 12/64
    python3 tools/wide_roundtrip.py 10/64      # outputs/rows, any number

imports zwcalc from the ``src`` next to this file, so running it in two
checkouts compares them.  For each size it builds one state with that
many outputs and distinct rows (seed 1, coefficients in +-1..3), rebuilds
its canonical diagram with ``nf_to_term`` and prints the CPU seconds
(``time.process_time``, best of 3) that ``interpret`` and ``normalize``
take on it.  Most of such a diagram is the crossing network that routes
the white nodes' wires to their outputs.  It exits 1 unless both pillars
give back the input rows exactly, and 2 on a size it cannot read.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from time import process_time

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zwcalc import normalform, ring, semantics  # noqa: E402

SIZES = ("8/32", "10/64", "12/64")
REPEATS = 3


def state(outputs: int, rows: int, seed: int = 1) -> normalform.NormalForm:
    """A seeded state on ``outputs`` wires with ``rows`` distinct words."""
    rng = random.Random(seed)
    words = set()
    while len(words) < rows:
        words.add("".join(rng.choice("01") for _ in range(outputs)))
    z = ring.Z()
    entries = {(w, ""): ring.from_int(z, rng.choice((-3, -2, -1, 1, 2, 3)))
               for w in sorted(words)}
    return normalform.nf_of_state(semantics.make_map(z, 2, 0, outputs, entries))


def best_time(fn) -> tuple[float, object]:
    """The least CPU time of ``REPEATS`` calls, and the last result."""
    times = []
    for _ in range(REPEATS):
        start = process_time()
        out = fn()
        times.append(process_time() - start)
    return min(times), out


def parse_sizes(texts: list[str], tool: str) -> list[tuple[int, int]] | None:
    """Each ``outputs/rows`` text as a pair of ints, or None once ``tool``
    has reported one that it cannot read."""
    sizes = []
    for text in texts:
        outputs, _, rows = text.partition("/")
        if not (outputs.isdigit() and rows.isdigit()) or int(rows) > 2 ** int(outputs):
            print(f"{tool}: expected outputs/rows with rows <= 2^outputs, got {text!r}",
                  file=sys.stderr)
            return None
        sizes.append((int(outputs), int(rows)))
    return sizes


def main(argv: list[str]) -> int:
    sizes = parse_sizes(argv or SIZES, "wide_roundtrip")
    if sizes is None:
        return 2
    z, status = ring.Z(), 0
    for outputs, rows in sizes:
        nf = state(outputs, rows)
        t = normalform.nf_to_term(nf)
        t_int, m = best_time(lambda: semantics.interpret(t, z))
        t_nf, mnf = best_time(lambda: normalform.normalize(t, z))
        want = {w: c.value for c, w in nf.rows}
        ok = ({w: v.value for (w, _), v in m.entries.items()} == want
              and (mnf.n_in, mnf.n_out) == (0, outputs)
              and {w: c.value for c, w in mnf.nf.rows} == want)
        print(f"{outputs}/{rows}: interpret {t_int:.3f} s  normalize {t_nf:.3f} s  "
              f"{'rows given back' if ok else 'ROWS DIFFER'}")
        status = status or (0 if ok else 1)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
