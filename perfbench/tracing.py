"""Spans around zwcalc's public functions, and the per-layer metrics.

``Tracer.install`` replaces each function in ``LAYERS`` by a wrapper in
every zwcalc module that holds it (``rules.interpret`` as well as
``semantics.interpret``); ``uninstall`` puts the originals back, so the
untraced path runs no wrapper.  Each span records its name, start, end,
parent span and verdict id in flat arrays.  A span's self time is its
duration minus the time its child spans cover.

Functions that share a span name form one group (the two catalogue
builders, the four law checks).  A group's time counts only its
outermost spans, so recursion (``normalize``) and nesting
(``derived_instances`` calls ``axiom_instances``) are not counted twice.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

VERDICT = "verdict"

# (module, function) -> span name
LAYERS = {
    ("ring", "ring_arith"): "ring.arith",
    ("ring", "ring_equal"): "ring.equal",
    ("ring", "from_int"): "ring.from_int",
    ("normalform", "normalize"): "normalform.normalize",
    ("normalform", "canonicalize"): "normalform.canonicalize",
    ("normalform", "nf_permute"): "normalform.nf_permute",
    ("normalform", "nf_tensor"): "normalform.nf_tensor",
    ("normalform", "nf_to_term"): "normalform.nf_to_term",
    ("semantics", "interpret"): "semantics.interpret",
    ("semantics", "map_equal"): "semantics.map_equal",
    ("qudit", "generator_entries"): "qudit.generator_entries",
    ("qudit", "check_bialgebra"): "qudit.law_check",
    ("qudit", "check_commutation"): "qudit.law_check",
    ("qudit", "check_antipode"): "qudit.law_check",
    ("qudit", "check_q_vandermonde"): "qudit.law_check",
    ("qudit", "qudit_universal_nf"): "qudit.universal_nf",
    ("term", "parse"): "term.parse",
    ("term", "render"): "term.render",
    ("term", "crossing_perm"): "term.crossing_perm",
    ("rules", "axiom_instances"): "rules.build",
    ("rules", "derived_instances"): "rules.build",
    ("rules", "check_rule"): "rules.check_rule",
}


def _count_canonicalize(counts, args, out):
    rows_in, rows_out = len(args[0].rows), len(out.rows)
    counts["normalform.rows_in"] += rows_in
    counts["normalform.rows_out"] += rows_out
    counts["normalform.max_rows"] = max(counts["normalform.max_rows"], rows_out)


def _count_interpret(counts, args, out):
    counts["semantics.entries_out"] += len(out.entries)


def _count_parse(counts, args, out):
    text = args[0]
    counts["term.parse_chars"] += len(text)
    # a binary tree with one operator per ';' or '*' (labels hold neither)
    counts["term.nodes"] += 2 * (text.count(";") + text.count("*")) + 1


def _count_build(counts, args, out):
    counts["rules.instances"] += len(out)


# span name -> counter hook, run on every call (build: outermost calls only)
COUNTERS = {
    "normalform.canonicalize": _count_canonicalize,
    "semantics.interpret": _count_interpret,
    "term.parse": _count_parse,
    "rules.build": _count_build,
}
OUTERMOST_ONLY = {"rules.build"}

# which end-to-end metric, on which workload, each layer's metrics should move
RING = "verdicts_per_s on catalogue, not on reconstruct or qudit"
NORMALFORM = ("verdict_ms_p90 and peak_rss_mb on reconstruct, then catalogue; "
              "nothing on qudit")
SEMANTICS = "all three workloads; qudit and the catalogue mutants most"
QUDIT = "verdicts_per_s and peak_rss_mb on qudit only"
TERM = "setup_s on catalogue, verdict_ms_p50 on reconstruct"
RULES = "setup_s and verdicts_per_s on catalogue"
TRACE = "none: checks of the tracer itself"

# name -> (unit, better, what it should move)
LAYER_METRICS = {
    "ring.arith_calls": ("count", "lower", RING),
    "ring.arith_s": ("s", "lower", RING),
    "ring.equal_calls": ("count", "lower", RING),
    "ring.from_int_calls": ("count", "lower", RING),
    "normalform.normalize_s": ("s", "lower", NORMALFORM),
    "normalform.canonicalize_calls": ("count", "lower", NORMALFORM),
    "normalform.canonicalize_s": ("s", "lower", NORMALFORM),
    "normalform.rows_in": ("count", "lower", NORMALFORM),
    "normalform.rows_out": ("count", "lower", NORMALFORM),
    "normalform.rows_kept_ratio": ("ratio", "higher", NORMALFORM),
    "normalform.max_rows": ("count", "lower", NORMALFORM),
    "normalform.nf_permute_s": ("s", "lower", NORMALFORM),
    "normalform.nf_tensor_s": ("s", "lower", NORMALFORM),
    "normalform.nf_to_term_s": ("s", "lower", NORMALFORM),
    "normalform.normalize_over_interpret": ("ratio", "lower", NORMALFORM),
    "semantics.interpret_calls": ("count", "lower", SEMANTICS),
    "semantics.interpret_s": ("s", "lower", SEMANTICS),
    "semantics.entries_out": ("count", "lower", SEMANTICS),
    "semantics.map_equal_s": ("s", "lower", SEMANTICS),
    "qudit.generator_entries_calls": ("count", "lower", QUDIT),
    "qudit.generator_entries_s": ("s", "lower", QUDIT),
    "qudit.law_check_s": ("s", "lower", QUDIT),
    "qudit.universal_nf_s": ("s", "lower", QUDIT),
    "term.parse_s": ("s", "lower", TERM),
    "term.parse_chars": ("count", "lower", TERM),
    "term.render_s": ("s", "lower", TERM),
    "term.crossing_perm_s": ("s", "lower", TERM),
    "term.nodes": ("count", "lower", TERM),
    "rules.build_s": ("s", "lower", RULES),
    "rules.check_rule_s": ("s", "lower", RULES),
    "rules.instances": ("count", "higher", RULES),
    "trace.overhead_ratio": ("ratio", "lower", TRACE),
    "trace.self_sum_ratio": ("ratio", "higher", TRACE),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.verdict = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self._open: list[int] = []
        self._child_s: list[float] = []
        self._depth: list[int] = []
        self.calls: list[int] = []
        self.outer_s: list[float] = []  # outermost spans only, per name
        self.counts: Counter = Counter()
        self.current_verdict = -1
        self._patched: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
            self.calls.append(0)
            self.outer_s.append(0.0)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.verdict.append(self.current_verdict)
        self.end.append(0.0)
        self.self_s.append(0.0)
        self._open.append(idx)
        self._child_s.append(0.0)
        self._depth[nid] += 1
        self.calls[nid] += 1
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> bool:
        """End the innermost open span; True if it was outermost of its name."""
        t = perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.end[idx] = t
        dur = t - self.start[idx]
        self.self_s[idx] = dur - self._child_s.pop()
        if self._child_s:
            self._child_s[-1] += dur
        nid = self.name[idx]
        self._depth[nid] -= 1
        if self._depth[nid] == 0:
            self.outer_s[nid] += dur
            return True
        return False

    def run_verdict(self, vid: int, fn):
        """Call fn under a root span for verdict vid."""
        self.current_verdict = vid
        idx = self.open(self.name_id(VERDICT))
        try:
            return fn()
        finally:
            self.close(idx)
            self.current_verdict = -1

    def _wrap(self, fn, span: str):
        nid = self.name_id(span)
        hook = COUNTERS.get(span)
        outermost_only = span in OUTERMOST_ONLY

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                outermost = self.close(idx)
            if hook is not None and (outermost or not outermost_only):
                hook(self.counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Patch every zwcalc module's reference to each layer function;
        returns the layer functions this version of zwcalc lacks."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "zwcalc" or n.startswith("zwcalc.")]
        missing = []
        for (mod, fname), span in LAYERS.items():
            orig = getattr(sys.modules.get(f"zwcalc.{mod}"), fname, None)
            if orig is None:
                missing.append(f"{mod}.{fname}")
                continue
            wrapper = self._wrap(orig, span)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))
        return missing

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def verdict_self_sums(self) -> dict[int, tuple[float, float]]:
        """verdict id -> (sum of self times of its spans, root span duration)."""
        root = self._ids.get(VERDICT)
        out: dict[int, list] = {}
        for i in range(len(self.name)):
            v = self.verdict[i]
            if v < 0:
                continue
            acc = out.setdefault(v, [0.0, 0.0])
            acc[0] += self.self_s[i]
            if self.name[i] == root:
                acc[1] += self.end[i] - self.start[i]
        return {v: (s, d) for v, (s, d) in out.items()}

    def outer(self, span: str) -> float:
        nid = self._ids.get(span)
        return 0.0 if nid is None else self.outer_s[nid]

    def n_calls(self, span: str) -> int:
        nid = self._ids.get(span)
        return 0 if nid is None else self.calls[nid]

    def save(self, path):
        """Write every span out as numpy arrays."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, "i4"),
            parent=np.frombuffer(self.parent, "i4"),
            verdict=np.frombuffer(self.verdict, "i4"),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            self_s=np.frombuffer(self.self_s))


def layer_metrics(tr: Tracer, overhead_ratio: float, self_sum_ratio: float) -> dict:
    """The per-layer metrics, totals over every traced call."""
    c = tr.counts
    normalize_s = tr.outer("normalform.normalize")
    interpret_s = tr.outer("semantics.interpret")
    values = {
        "ring.arith_calls": tr.n_calls("ring.arith"),
        "ring.arith_s": tr.outer("ring.arith"),
        "ring.equal_calls": tr.n_calls("ring.equal"),
        "ring.from_int_calls": tr.n_calls("ring.from_int"),
        "normalform.normalize_s": normalize_s,
        "normalform.canonicalize_calls": tr.n_calls("normalform.canonicalize"),
        "normalform.canonicalize_s": tr.outer("normalform.canonicalize"),
        "normalform.rows_in": c["normalform.rows_in"],
        "normalform.rows_out": c["normalform.rows_out"],
        "normalform.rows_kept_ratio": (c["normalform.rows_out"] / c["normalform.rows_in"]
                                       if c["normalform.rows_in"] else 0.0),
        "normalform.max_rows": c["normalform.max_rows"],
        "normalform.nf_permute_s": tr.outer("normalform.nf_permute"),
        "normalform.nf_tensor_s": tr.outer("normalform.nf_tensor"),
        "normalform.nf_to_term_s": tr.outer("normalform.nf_to_term"),
        "normalform.normalize_over_interpret": (normalize_s / interpret_s
                                                if interpret_s else 0.0),
        "semantics.interpret_calls": tr.n_calls("semantics.interpret"),
        "semantics.interpret_s": interpret_s,
        "semantics.entries_out": c["semantics.entries_out"],
        "semantics.map_equal_s": tr.outer("semantics.map_equal"),
        "qudit.generator_entries_calls": tr.n_calls("qudit.generator_entries"),
        "qudit.generator_entries_s": tr.outer("qudit.generator_entries"),
        "qudit.law_check_s": tr.outer("qudit.law_check"),
        "qudit.universal_nf_s": tr.outer("qudit.universal_nf"),
        "term.parse_s": tr.outer("term.parse"),
        "term.parse_chars": c["term.parse_chars"],
        "term.render_s": tr.outer("term.render"),
        "term.crossing_perm_s": tr.outer("term.crossing_perm"),
        "term.nodes": c["term.nodes"],
        "rules.build_s": tr.outer("rules.build"),
        "rules.check_rule_s": tr.outer("rules.check_rule"),
        "rules.instances": c["rules.instances"],
        "trace.overhead_ratio": overhead_ratio,
        "trace.self_sum_ratio": self_sum_ratio,
    }
    return {name: {"value": values[name], "unit": LAYER_METRICS[name][0]}
            for name in LAYER_METRICS}
