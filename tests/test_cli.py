import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zwcalc import normalform, qudit, rules, semantics
from zwcalc.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_emits_sparse_json(capsys):
    code, out, _ = run(capsys, "eval", "--ring", "Z", "z(0,3)[1]")
    assert code == 0
    data = json.loads(out)
    assert data == {"d": 2, "in": 0, "out": 3, "entries": [
        {"out": "000", "in": "", "v": "1"},
        {"out": "111", "in": "", "v": "1"}]}


def test_eval_is_deterministic(capsys):
    _, out1, _ = run(capsys, "eval", "--ring", "Qi", "z(0,2)[1+i] ; x")
    _, out2, _ = run(capsys, "eval", "--ring", "Qi", "z(0,2)[1+i] ; x")
    assert out1 == out2


def test_normalize_matches_eval(capsys):
    code, out, _ = run(capsys, "normalize", "--ring", "Z", "w(0,2) ; (w(1,1) * id)")
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == [{"v": "1", "w": "00"}, {"v": "1", "w": "11"}]
    code, out, _ = run(capsys, "eval", "--ring", "Z", data["term"])
    assert code == 0
    rebuilt = json.loads(out)
    assert {(e["out"], e["v"]) for e in rebuilt["entries"]} == {("00", "1"), ("11", "1")}


def test_roundtrip_verdict(capsys):
    code, out, _ = run(capsys, "roundtrip", "--ring", "Z",
                       "w(0,3) ; (cap * id)")
    assert code == 0 and json.loads(out) == {
        "term": "w(0,3) ; (cap * id)", "agree": True}


def test_roundtrip_reports_witness(capsys, monkeypatch, fresh_tables):
    # plant a mismatch: normalize sees x with every sign flipped
    real = normalform.generator_nf

    def flipped(g, r):
        m = real(g, r)
        if g.kind != "x":
            return m
        rows = tuple((-c, w) for c, w in m.nf.rows)
        return normalform.MapNormalForm(
            m.n_in, m.n_out, normalform.NormalForm(2, m.nf.n, rows))

    monkeypatch.setattr(normalform, "generator_nf", flipped)
    code, out, _ = run(capsys, "roundtrip", "--ring", "Z", "w(0,2) ; x")
    assert code == 1
    data = json.loads(out)
    assert data["agree"] is False
    assert data["witness"] == ["01", "", "-1", "1"]


def test_roundtrip_reports_interpreter_witness(capsys, monkeypatch, fresh_tables):
    # plant the mismatch on the other side: interpret sees x with every
    # sign flipped, through a patch of the cached generator lookup
    real = semantics.generator_map

    def flipped(g, r, d):
        m = real(g, r, d)
        if g.kind != "x":
            return m
        return semantics.SparseMap(m.ring, m.d, m.n_in, m.n_out,
                                   {k: -v for k, v in m.entries.items()})

    monkeypatch.setattr(semantics, "generator_map", flipped)
    code, out, _ = run(capsys, "roundtrip", "--ring", "Z", "w(0,2) ; x")
    assert code == 1
    data = json.loads(out)
    assert data["agree"] is False
    assert data["witness"] == ["01", "", "1", "-1"]


def _flip_x_ones(pillar, monkeypatch):
    """Plant +1 for the sign of x on |11> in one pillar's own table."""
    if pillar == "normalize":
        real = normalform.generator_nf

        def planted(g, r):
            m = real(g, r)
            if g.kind != "x":
                return m
            rows = tuple((-c if w == "1111" else c, w) for c, w in m.nf.rows)
            return normalform.MapNormalForm(m.n_in, m.n_out, normalform.NormalForm(2, 4, rows))

        monkeypatch.setattr(normalform, "generator_nf", planted)
    else:
        real = qudit.generator_entries

        def planted(g, r, d):
            entries = real(g, r, d)
            if g.kind == "x":
                entries[("11", "11")] = -entries[("11", "11")]
            return entries

        monkeypatch.setattr(qudit, "generator_entries", planted)


@pytest.mark.parametrize("pillar", ["normalize", "interpret"])
def test_planted_crossing_sign_fails_through_the_run(capsys, monkeypatch, fresh_tables, pillar):
    # the last two layers are a run, which each pillar joins as one signed
    # permutation with the sign read from its own table; fresh_tables keeps
    # the planted table from outliving the test
    joined = []
    for module, name in ((semantics, "_apply_run"), (normalform, "_plug_run")):
        real_run = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real_run=real_run:
                            joined.append(real_run(*args)) or joined[-1])
    _flip_x_ones(pillar, monkeypatch)
    code, out, _ = run(capsys, "roundtrip", "--ring", "Z", "id * x ; x * id ; id * x")
    assert code == 1
    data = json.loads(out)
    assert data["agree"] is False and len(data["witness"]) == 4
    assert len(joined) == 2 and None not in joined


def test_check_axioms_small_bounds(capsys):
    code, out, err = run(capsys, "check-axioms", "--ring", "Z",
                         "--max-arity", "2", "--max-nm", "1",
                         "--labels", "0,1,-1")
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0 and data["checked"] > 20
    assert "pass" in err  # human table on stderr


def test_check_derived_small_bounds(capsys):
    code, out, _ = run(capsys, "check-derived", "--ring", "Qi",
                       "--max-arity", "2", "--max-nm", "1",
                       "--labels", "0,1,i")
    assert code == 0
    assert json.loads(out)["failed"] == 0


@pytest.mark.parametrize("verb", ["check-axioms", "check-derived"])
def test_rule_checks_reject_complex_ring(capsys, verb):
    code, out, err = run(capsys, verb, "--ring", "C")
    assert code == 2 and out == "" and err.startswith("error:")
    assert "invalid choice: 'C'" in err


def test_check_qudit(capsys):
    code, out, _ = run(capsys, "check-qudit", "--d", "4")
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0 and data["d"] == 4


@pytest.mark.parametrize("d", range(2, 11))
def test_check_qudit_every_dimension(capsys, d):
    code, out, _ = run(capsys, "check-qudit", "--d", str(d))
    assert code == 0 and json.loads(out)["failed"] == 0


def test_tolerance_below_float_rounding_runs(capsys):
    # |q^d - 1| is float rounding and no longer bounds --tol from below
    code, out, _ = run(capsys, "eval", "--ring", "C", "--tol", "1e-16", "id")
    assert code == 0 and json.loads(out)["d"] == 2
    code, out, err = run(capsys, "check-qudit", "--d", "3", "--tol", "1e-300")
    assert code == 1 and json.loads(out)["failed"] >= 1 and " FAIL at " in err


@pytest.mark.parametrize("d", ["1", "11"])
def test_check_qudit_rejects_dimension(capsys, d):
    code, out, err = run(capsys, "check-qudit", "--d", d)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("state", [
    '{"d": 3}',
    '[{"d": 3}]',
    '{"d": 3, "in": 0, "out": 1, "entries": [{"out": 1, "in": "", "v": "1"}]}',
    '{"d": 3, "in": 0, "out": 1, "entries": [{"out": "7", "in": "", "v": "1"}]}',
    '{"d": "3", "in": 0, "out": 1, "entries": []}',
    '{"d": 3, "in": 0, "out": 1, "entries": [{"out": "1", "in": "", "v": "1e400"}]}',
    # two values for one entry: neither is dropped in silence
    '{"d": 3, "in": 0, "out": 1, "entries": [{"out": "1", "in": "", "v": "1"},'
    ' {"out": "1", "in": "", "v": "2"}]}',
])
def test_universal_rejects_malformed_json(capsys, state):
    code, out, err = run(capsys, "universal", "--d", "3", state)
    assert code == 2 and out == "" and err.startswith("error:")


def test_universal_rejects_a_repeated_entry_at_d2(capsys):
    # the map reader names the repeated key; summing or dropping would hide it
    state = json.dumps({"d": 2, "in": 0, "out": 2, "entries": [
        {"out": "01", "in": "", "v": "1"}, {"out": "01", "in": "", "v": "-1"}]})
    code, out, err = run(capsys, "universal", "--d", "2", state)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.splitlines()[0].startswith("error: ") and "two entries for ('01', '')" in err


@pytest.mark.parametrize("state, key", [
    ('{"d":3,"in":0,"out":1,"entries":[{"out":"1","in":"","v":"1"}],"entries":[]}', "entries"),
    ('{"d":3,"in":0,"out":1,"entries":[{"out":"1","in":"","v":"1","v":"2"}]}', "v"),
])
def test_universal_rejects_a_repeated_json_key(capsys, state, key):
    # json.loads would keep the last value: the zero state, or v = 2
    code, out, err = run(capsys, "universal", "--d", "3", state)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.splitlines()[0] == f"error: the JSON key {key!r} is given twice"


ZERO_STATE = '{"d": 2, "in": 0, "out": 3, "entries": [{"out": "000", "in": "", "v": "1"}]}'
WIDE = " * ".join(["w(0,1)"] * 3000)
DEEP = "(" * 2000 + "id" + ")" * 2000
OVERFLOW_STATE = json.dumps({"d": 3, "in": 0, "out": 1, "entries": [
    {"out": "1", "in": "", "v": "1e308"}, {"out": "2", "in": "", "v": "1e308"}]})
# edge inputs as (term text, JSON state)
EDGE_INPUTS = {
    "all-zero": ("ket(0) * ket(0) * ket(0)", ZERO_STATE),
    "wide": (WIDE, json.dumps({"d": 2, "in": 0, "out": 3000, "entries": [
        {"out": "1" * 3000, "in": "", "v": "1"}]})),
    "deep": (DEEP, "[" * 2000 + "]" * 2000),
    "empty": ("", ""),
    "ket2": ("ket(2)", '{"d": 2, "in": 0, "out": 1, "entries": [{"out": "2", "in": "", "v": "1"}]}'),
    "overflow": ("z(0,1)[1e200]", OVERFLOW_STATE),
}
EDGE_FLAGS = {"default": [], "zn-without-mod": ["--ring", "Zn"], "c-d3": ["--ring", "C", "--d", "3"]}


def test_states_without_letters(capsys):
    # |0>, |000> and scalars rebuild without an empty crossing layer
    for text in ("ket(0)", "ket(0) * ket(0) * ket(0)", "cup ; cap"):
        code, out, err = run(capsys, "normalize", text)
        assert code == 0 and err == ""
        code, _, _ = run(capsys, "roundtrip", json.loads(out)["term"])
        assert code == 0
    for d, state in ((2, ZERO_STATE), (3, ZERO_STATE.replace('"d": 2', '"d": 3')),
                     (3, '{"d": 3, "in": 0, "out": 0, "entries": [{"out": "", "in": "", "v": "2"}]}')):
        code, out, err = run(capsys, "universal", "--d", str(d), state)
        assert code == 0 and json.loads(out)["roundtrip"] is True


def test_deep_nesting_is_read(capsys):
    code, out, err = run(capsys, "eval", DEEP)
    assert code == 0 and err == ""
    assert json.loads(out) == {"d": 2, "in": 1, "out": 1, "entries": [
        {"out": "0", "in": "0", "v": "1"}, {"out": "1", "in": "1", "v": "1"}]}


# 3000 levels of a chain nested in a row nested in a chain
CHAIN_IN_ROW = functools.reduce(lambda t, _: f"(w(0,1) * ({t})) ; w(2,1)", range(3000), "ket(0)")


@pytest.mark.parametrize("verb", ["eval", "normalize", "roundtrip"])
def test_chains_nested_in_rows_are_evaluated(capsys, verb):
    code, out, err = run(capsys, verb, CHAIN_IN_ROW)
    assert code == 0 and err == ""
    data = json.loads(out)
    if verb == "eval":
        assert data["entries"] == [{"out": "0", "in": "", "v": "1"}]
    elif verb == "normalize":
        assert data["rows"] == [{"v": "1", "w": "0"}]
    else:
        assert data["agree"] is True


@pytest.mark.parametrize("argv", [
    # the anyonic z table overflows on a large finite label
    ["eval", "--ring", "C", "--d", "3", "z(0,1)[1e200]"],
    ["universal", "--d", "3", OVERFLOW_STATE],
    # and on one whose square comes out as nan
    ["eval", "--ring", "C", "--d", "3", "z(0,2)[1e155+1e155i]"],
    # an infinite entry has no literal to write
    ["eval", "--ring", "C", "z(0,1)[1e308] ; z(1,1)[1e308]"],
    # a spider arity no word of wires can index
    ["eval", "w(999999999999999999999,1)"],
], ids=["eval-z-table", "universal-z-table", "eval-z-table-nan", "eval-infinite-entry",
        "eval-w-arity"])
def test_overflowing_values_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["eval", "w(30000,0)"],
    ["normalize", "w(30000,0)"],
    ["roundtrip", "w(99999,0)"],
], ids=["eval", "normalize", "roundtrip"])
def test_inputs_past_the_memory_limit_exit_2(argv):
    # each spider's table outgrows 400 MB of address space, which binds the
    # child process only
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no address-space limit on this platform")
    limit = 400 << 20
    done = subprocess.run(
        [sys.executable, "-m", "zwcalc.cli", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


def _edge_cases():
    # the term verbs read the text, universal the state, and the rule
    # checks the text as their --labels list
    for name, (text, state) in EDGE_INPUTS.items():
        for verb in ("eval", "normalize", "roundtrip"):
            yield pytest.param([verb, text], id=f"{verb}-{name}")
        yield pytest.param(["universal", state], id=f"universal-{name}")
        for verb in ("check-axioms", "check-derived"):
            yield pytest.param([verb, "--max-arity", "1", "--max-nm", "1", "--labels", text],
                               id=f"{verb}-{name}")
    yield pytest.param(["check-qudit"], id="check-qudit")


@pytest.mark.parametrize("flags", EDGE_FLAGS.values(), ids=EDGE_FLAGS.keys())
@pytest.mark.parametrize("argv", _edge_cases())
def test_every_verb_exits_0_1_or_2(capsys, argv, flags):
    code, _, err = run(capsys, argv[0], *flags, *argv[1:])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error:")


def test_import_does_not_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c",
                    "import zwcalc, zwcalc.cli, sys; assert 'numpy' not in sys.modules"],
                   env=env, check=True)


UNIVERSAL_STATE = json.dumps({"d": 3, "in": 0, "out": 2, "entries": [
    {"out": "01", "in": "", "v": "1"},
    {"out": "22", "in": "", "v": "1"}]})


def test_universal_verb(capsys):
    code, out, _ = run(capsys, "universal", "--d", "3", UNIVERSAL_STATE)
    assert code == 0
    data = json.loads(out)
    assert data["roundtrip"] is True
    assert [r["w"] for r in data["normal_form"]["rows"]] == ["01", "22"]


def test_universal_reports_witness(capsys, monkeypatch, fresh_tables):
    # plant a mismatch: the rebuilt diagram sees every z table negated on
    # the levels above 0 (negating level 0 too would cancel in pairs, as
    # each row's white node meets the particle or the vacuum)
    real = semantics.generator_map

    def negated(g, r, d):
        m = real(g, r, d)
        if g.kind != "z":
            return m
        return semantics.SparseMap(m.ring, m.d, m.n_in, m.n_out, {
            k: -v if (k[0] + k[1]).strip("0") else v for k, v in m.entries.items()})

    monkeypatch.setattr(semantics, "generator_map", negated)
    code, out, _ = run(capsys, "universal", "--d", "3", UNIVERSAL_STATE)
    assert code == 1
    data = json.loads(out)
    assert data["roundtrip"] is False
    assert data["witness"] == ["01", "", "-1.0-0.0i", "1.0+0.0i"]


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--ring", "Z", "w(0,3) ; id")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "eval", "--ring", "Z", "z(1,1)[i]")
    assert code == 2
    code, out, err = run(capsys, "eval", "--ring", "C", "z(1,1)[1e400]")
    assert code == 2 and out == "" and err.startswith("error:")
    code, _, _ = run(capsys, "normalize", "--ring", "C", "id")
    assert code == 2


@pytest.mark.parametrize("argv", [["w(\u0663,1)"], ["--ring", "Z", "z(1,1)[\u0661]"],
                                  ["--ring", "Qi", "z(0,1)[\u0661/\u0662+\u0663i]"]])
def test_digits_of_other_scripts_exit_2(capsys, argv):
    code, out, err = run(capsys, "eval", *argv)
    assert code == 2 and out == "" and err.startswith("error:") and "position" in err


@pytest.mark.parametrize("argv", [["w ( 0 , 2 )\n;\tx"], ["--ring", "Z", "z(1,1)[1\t]"],
                                  ["--ring", "Z", "z(1,1)[1\n]"]])
def test_whitespace_in_a_term_exits_0(capsys, argv):
    code, _, _ = run(capsys, "eval", *argv)
    assert code == 0


def test_zn_ring_flag(capsys):
    code, out, _ = run(capsys, "eval", "--ring", "Zn", "--mod", "2", "x")
    assert code == 0
    data = json.loads(out)
    assert {(e["out"], e["in"], e["v"]) for e in data["entries"]} == {
        ("00", "00", "1"), ("01", "10", "1"), ("10", "01", "1"), ("11", "11", "1")}


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "eval", "--ring", "Z", "--output", str(target), "cup")
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["out"] == 2


@pytest.mark.parametrize("argv", [
    # these verbs run at d = 2 ...
    ["normalize", "--d", "3", "w(0,2)"],
    ["roundtrip", "--d", "3", "w(0,2)"],
    ["check-axioms", "--d", "3"],
    ["check-derived", "--d", "3"],
    # ... and these over C(--tol)
    ["check-qudit", "--ring", "Z"],
    ["check-qudit", "--mod", "6"],
    ["universal", "--ring", "Z", UNIVERSAL_STATE],
    ["universal", "--mod", "6", UNIVERSAL_STATE],
    # ... and the d = 2 verbs over exact rings only
    ["normalize", "--tol", "1e-9", "id"],
    ["check-axioms", "--ring", "C"],
    # ... and --mod only with --ring Zn
    ["eval", "--ring", "Qi", "--mod", "5", "z(1,1)[1/2]"],
])
def test_flags_a_verb_does_not_read_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    [], ["eval"], ["bogus"], ["eval", "--d", "x", "id"], ["eval", "id", "id"],
])
def test_argument_errors_return_2(capsys, argv):
    # argparse would print its usage and raise SystemExit
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("target", ["{tmp}", "{tmp}/missing/out.json"])
def test_unwritable_output_exits_2(tmp_path, capsys, target):
    # the report table follows the JSON, so the error is the first line
    code, out, err = run(capsys, "check-qudit", "--output", target.format(tmp=tmp_path))
    assert code == 2 and out == "" and err.startswith("error: cannot write")


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, on the descriptor of ``path``."""

    def __init__(self, path):
        super().__init__()
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT)

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("status", [0, 1])
def test_closed_stdout_keeps_the_exit_status(tmp_path, capsys, monkeypatch, status):
    if status:  # plant a failed rule
        failed = rules.RuleReport("adj_L", "", False, ("0", "0", "1", "2"))
        monkeypatch.setattr(rules, "check_all", lambda instances, r: [failed])
    stdout = _ClosedStdout(tmp_path / "out")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["check-axioms", "--max-arity", "1", "--max-nm", "1"]) == status
    os.write(stdout.fd, b"later output")  # the descriptor now leads to devnull
    os.close(stdout.fd)
    assert (tmp_path / "out").read_bytes() == b""
    assert "BrokenPipe" not in capsys.readouterr().err


def test_negative_arity_state_exits_2(capsys):
    state = '{"d": 3, "in": 0, "out": -1, "entries": []}'
    code, out, err = run(capsys, "universal", "--d", "3", state)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("flag", ["--max-arity", "--max-nm"])
def test_negative_rule_bound_exits_2(capsys, flag):
    # a negative bound would read as empty rule families and exit 0
    code, out, err = run(capsys, "check-axioms", "--max-arity", "1", "--max-nm", "1", flag, "-1")
    assert code == 2 and out == "" and err.startswith("error: --max-arity and --max-nm must be >= 0")


@pytest.mark.parametrize("argv", [["--labels", "x"], ["--ring", "Z", "--labels", "1,i"]])
def test_labels_must_be_literals_of_the_ring(capsys, argv):
    # a label outside --ring was dropped, and the rest checked with exit 0
    code, out, err = run(capsys, "check-axioms", *argv)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert "is not an integer literal" in err


# the flags each verb takes; the rule checks always get small bounds
VERB_FLAGS = {
    **dict.fromkeys(["eval"], ["--ring", "--mod", "--tol", "--d", "--output"]),
    **dict.fromkeys(["normalize", "roundtrip"], ["--ring", "--mod", "--output"]),
    **dict.fromkeys(["check-axioms", "check-derived"],
                    ["--ring", "--mod", "--output", "--labels"]),
    **dict.fromkeys(["check-qudit", "universal"], ["--tol", "--d", "--output"]),
}
# (good, bad) values of every flag; --d stays at most 5 and the rule
# bounds at most 2 and 1, so that an example takes milliseconds
FUZZ_FLAGS = {
    "--ring": (["Z", "Qi", "Zn", "C"], ["R"]),
    "--mod": (["6", "2"], ["1", "-3", "x"]),
    "--tol": (["1e-9", "1e-6", "1e-300"], ["0", "-1", "nan", "inf", "x"]),
    "--d": (["2", "3", "5"], ["-1", "0", "1", "x"]),
    "--output": (["{tmp}/out.json"], ["{tmp}", "{tmp}/missing/out.json"]),
    "--max-arity": (["0", "1", "2"], ["-1", "x"]),
    "--max-nm": (["0", "1"], ["-1", "x"]),
    "--labels": (["1,i", "i", "1+i,-2", "", ","], ["1e400", "x"]),
}
FUZZ_TERMS = ["id", "w(0,2) ; x", "z(0,2)[1+i] ; cap", "ket(0) * ket(1)", "cup ; cap",
              "w(1,2) ; (id * w(1,0))", "z(0,1)[2.5]", "x ; xinv", "ket(1) ; w(1,3)",
              "ket(2)", "w(0,3) ; id", "(id", "", "z(1,1)[1e400]", "bogus", "w(0,0)"]
FUZZ_STATES = [json.dumps({"d": d, "in": 0, "out": len(w), "entries": [
    {"out": w, "in": "", "v": v}]}) for d, w, v in [
        (2, "10", "1"), (3, "21", "-0.5+1i"), (5, "4", "2"), (2, "", "1"),
        (3, "1", "1e308"), (3, "7", "1"), (3, "1", "nan")]]
FUZZ_STATES += ['{"d": 3, "in": 0, "out": -1, "entries": []}', '{"d": 3}', "[]", "null"]


@st.composite
def fuzz_argv(draw):
    """A verb with some of its flags, now and then a flag it does not
    take, a bad value or a wrong number of operands, and an operand from
    the terms or the states, now and then with a character dropped."""
    def sometimes():
        return draw(st.integers(0, 3)) == 0

    verb = draw(st.sampled_from(list(VERB_FLAGS)))
    names = draw(st.lists(st.sampled_from(VERB_FLAGS[verb]), unique=True))
    if sometimes():
        names.append(draw(st.sampled_from(list(FUZZ_FLAGS))))
    if verb in ("check-axioms", "check-derived"):  # the default bounds take seconds
        names += ["--max-arity", "--max-nm"]
    argv = [verb]
    for name in names:
        good, bad = FUZZ_FLAGS[name]
        argv += [name, draw(st.sampled_from(bad if sometimes() else good))]
    wanted = 0 if verb.startswith("check-") else 1
    pool = FUZZ_STATES if verb == "universal" else FUZZ_TERMS
    for _ in range(draw(st.integers(0, 2)) if sometimes() else wanted):
        text = draw(st.sampled_from(FUZZ_TERMS + FUZZ_STATES if sometimes() else pool))
        if sometimes():
            cut = draw(st.integers(0, max(len(text) - 1, 0)))
            text = text[:cut] + text[cut + 1:]
        argv.append(text)
    return argv


@settings(max_examples=1000, deadline=None)
@given(argv=fuzz_argv())
def test_fuzzed_command_lines_exit_0_1_or_2(tmp_path_factory, argv):
    tmp = tmp_path_factory.getbasetemp()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("{tmp}", str(tmp)) for a in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:")
