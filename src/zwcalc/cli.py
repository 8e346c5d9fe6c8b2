"""Command-line surface: evaluate, normalize, run the rule and qudit checks.

JSON results go to stdout; human-readable report tables go to stderr,
once the JSON is written.  Exit status is 0 when every requested check
passes, 1 when a check fails, and 2 on bad input (parse errors, arity
errors, flags a verb does not take, an unwritable ``--output``, an input
too large for the process's memory), which prints ``error: ...`` as the
first line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import ring as _ring
from . import term as _term
from . import semantics as _sem
from . import normalform as _nf
from . import rules as _rules
from . import qudit as _qudit


class UsageError(Exception):
    pass


def _ring_from_flags(args) -> _ring.RingDescriptor:
    name = args.ring
    if args.mod is not None and name != "Zn":  # it would go unread
        raise UsageError("--mod N goes with --ring Zn only")
    if name == "Z":
        return _ring.Z()
    if name == "Qi":
        return _ring.Qi()
    if name == "Zn":
        if args.mod is None:
            raise UsageError("--ring Zn needs --mod N")
        return _ring.Zn(args.mod)
    return _ring.C(args.tol)


def _emit(data, args):
    text = json.dumps(data, indent=2)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {args.output!r}: {exc.strerror}") from None
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:  # the reader has gone: the rest goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_eval(args) -> int:
    ring = _ring_from_flags(args)
    t = _term.parse(args.term, ring)
    m = _sem.interpret(t, ring, args.d)
    _emit(_sem.to_json_dict(m), args)
    return 0


def _cmd_normalize(args) -> int:
    ring = _ring_from_flags(args)
    t = _term.parse(args.term, ring)
    m = _nf.normalize(t, ring)
    data = _nf.to_json_dict(m.nf)
    data["in"] = m.n_in
    data["out"] = m.n_out
    data["term"] = _term.render(_nf.nf_to_term(m.nf))
    _emit(data, args)
    return 0


def _cmd_roundtrip(args) -> int:
    ring = _ring_from_flags(args)
    t = _term.parse(args.term, ring)
    m = _nf.normalize(t, ring)
    rep = _rules.check_maps("roundtrip", "", m.to_sparse(ring), _sem.interpret(t, ring, 2))
    return _emit_verdict({"term": args.term, "agree": rep.passed}, rep, args)


def _emit_verdict(data: dict, rep: _rules.RuleReport, args) -> int:
    """Emit a round trip's result, with the witness entry [out, in, built
    value, expected value] when the two maps differ."""
    if not rep.passed:
        data["witness"] = list(rep.witness)
    _emit(data, args)
    return 0 if rep.passed else 1


def _bounds_from_flags(args, ring: _ring.RingDescriptor) -> _rules.RuleBounds:
    """The catalogue's bounds; each given label must be a literal of ``ring``."""
    if min(args.max_arity, args.max_nm) < 0:
        raise UsageError("--max-arity and --max-nm must be >= 0")
    if not args.labels:
        return _rules.RuleBounds(args.max_arity, args.max_nm)
    labels = tuple(args.labels.split(","))
    for text in labels:
        _ring.parse_literal(ring, text)  # RingError: exit 2
    return _rules.RuleBounds(args.max_arity, args.max_nm, labels)


def _cmd_check_rules(args) -> int:
    ring = _ring_from_flags(args)
    build = (_rules.axiom_instances if args.verb == "check-axioms"
             else _rules.derived_instances)
    reports = _rules.check_all(build(_bounds_from_flags(args, ring), ring), ring)
    failed = [r for r in reports if not r.passed]
    _emit({
        "ring": str(ring),
        "checked": len(reports),
        "failed": len(failed),
        "failures": [
            {"name": r.name, "params": r.params,
             "witness": list(r.witness)} for r in failed
        ],
    }, args)
    for rep in reports:
        print(rep, file=sys.stderr)
    return 1 if failed else 0


def _cmd_check_qudit(args) -> int:
    p = _qudit.QParams(args.d, tolerance=args.tol)
    reports = [check(p) for check in (_qudit.check_bialgebra, _qudit.check_commutation,
                                      _qudit.check_antipode, _qudit.check_vandermonde)]
    failed = [r for r in reports if not r.passed]
    _emit({
        "d": p.d,
        "checked": len(reports),
        "failed": len(failed),
        "reports": [
            {"name": r.name, "passed": r.passed, "max_error": r.max_error}
            for r in reports
        ],
    }, args)
    for rep in reports:
        print(rep, file=sys.stderr)
    return 1 if failed else 0


def _cmd_universal(args) -> int:
    p = _qudit.QParams(args.d, tolerance=args.tol)
    ring = p.ring()
    data = json.loads(args.state)
    state = _sem.from_json_dict(data, ring)
    term, nf = _qudit.qudit_universal_nf(state, p)
    rep = _rules.check_maps("universal", f"d={p.d}", _sem.interpret(term, ring, p.d), state)
    return _emit_verdict({
        "term": _term.render(term),
        "normal_form": _nf.to_json_dict(nf),
        "roundtrip": rep.passed,
    }, rep, args)


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as a :class:`UsageError`, which :func:`main`
    turns into exit status 2, instead of exiting itself."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="zwcalc",
                 description="evaluate, normalize and verify string-diagram terms")
    sub = ap.add_subparsers(dest="verb", required=True)

    def verb(name, func, text, rings=("Z", "Qi", "Zn"), tol=False, d=False, term=False):
        """A verb's parser, with only the flags its handler reads."""
        sp = sub.add_parser(name, help=text)
        if rings:
            sp.add_argument("--ring", default="Z", choices=rings)
            sp.add_argument("--mod", type=int, default=None, help="modulus for --ring Zn")
        if tol:
            sp.add_argument("--tol", type=float, default=1e-9)
        if d:
            sp.add_argument("--d", type=int, default=2)
        sp.add_argument("--output", default=None, help="write JSON here")
        if term:
            sp.add_argument("term", help="term in the concrete grammar")
        sp.set_defaults(func=func)
        return sp

    verb("eval", _cmd_eval, "interpret a term as a sparse map",
         rings=("Z", "Qi", "Zn", "C"), tol=True, d=True, term=True)
    verb("normalize", _cmd_normalize, "canonical normal form of a term", term=True)
    verb("roundtrip", _cmd_roundtrip, "check normalize against the interpreter", term=True)
    for name in ("check-axioms", "check-derived"):
        sp = verb(name, _cmd_check_rules, f"run the {name.split('-')[1]} catalogue")
        sp.add_argument("--max-arity", type=int,
                        default=_rules.DEFAULT_BOUNDS.max_spider_arity)
        sp.add_argument("--max-nm", type=int, default=_rules.DEFAULT_BOUNDS.max_nm)
        sp.add_argument("--labels", default=None,
                        help="comma-separated literals of --ring")
    verb("check-qudit", _cmd_check_qudit, "anyonic law checks at dimension d",
         rings=(), tol=True, d=True)
    sp = verb("universal", _cmd_universal, "rebuild a JSON state as a diagram and verify",
              rings=(), tol=True, d=True)
    sp.add_argument("state", help="sparse state as JSON")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, _term.ParseError, _term.ArityError, _ring.RingError,
            _qudit.QuditError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply to read", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large for the memory this process may use", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
