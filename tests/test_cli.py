import argparse
import hashlib
import json
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys
import time
import traceback

import pytest

from seprat import __version__, cli, cnf, reduction, satcore, septest
from seprat.reduction import dataset_from_json
from tests.conftest import ALL_SIGN_PATTERNS, SINGLE_CLAUSE, SLOT_CONFLICT
from tests.test_satcore import PINNED_SOLVE, pinned_formula


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "single.cnf"
    path.write_text(SINGLE_CLAUSE)
    return str(path)


@pytest.fixture
def unsat_file(tmp_path):
    path = tmp_path / "allpat.cnf"
    path.write_text(ALL_SIGN_PATTERNS)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReduce:
    def test_writes_dataset_json(self, capsys, tmp_path, cnf_file):
        out = tmp_path / "ds.json"
        code, _, err = run(capsys, "reduce", cnf_file, "-o", str(out))
        assert code == 0
        ds = dataset_from_json(out.read_text())
        assert len(ds.observations) == 6
        assert len(ds.evaluation_points) == 3
        assert "L=1 I=3" in err and "epsilon=" in err

    def test_unsat_formula_reduces_to_48_rows(self, capsys, tmp_path, unsat_file):
        out = tmp_path / "ds.json"
        code, _, _ = run(capsys, "reduce", unsat_file, "-o", str(out))
        assert code == 0
        assert len(dataset_from_json(out.read_text()).observations) == 48

    def test_empty_file_is_an_input_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.cnf"
        empty.write_text("")
        code, _, err = run(capsys, "reduce", str(empty))
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "reduce", "/does/not/exist.cnf")
        assert code == 2

    def test_positive_prices_flag(self, capsys, tmp_path, cnf_file):
        out = tmp_path / "ds.json"
        code, _, _ = run(capsys, "reduce", cnf_file, "-o", str(out),
                         "--positive-prices", "1/1000000")
        assert code == 0
        ds = dataset_from_json(out.read_text())
        assert all(c > 0 for o in ds.observations for c in o.p)

    def test_oversized_positive_prices_is_an_input_error(self, capsys,
                                                         cnf_file):
        code, out, err = run(capsys, "reduce", cnf_file,
                             "--positive-prices", "1000")
        assert code == 2
        assert out == ""
        assert "error: --positive-prices 1000" in err
        assert "level 1 relation" in err and "lost the three chains" in err


class TestTest:
    def make_dataset(self, capsys, tmp_path, text):
        src = tmp_path / "f.cnf"
        src.write_text(text)
        out = tmp_path / "ds.json"
        assert run(capsys, "reduce", str(src), "-o", str(out))[0] == 0
        return str(out)

    def test_satisfiable_source_is_rationalizable(self, capsys, tmp_path):
        ds = self.make_dataset(capsys, tmp_path, SINGLE_CLAUSE)
        code, out, _ = run(capsys, "test", ds, "--tie-mode", "strict")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "rationalizable"
        assert sorted(doc["witness"]["u_order"]) == list(range(9))

    def test_exit_code_flag_signals_negative(self, capsys, tmp_path):
        ds = self.make_dataset(capsys, tmp_path, ALL_SIGN_PATTERNS)
        code, out, _ = run(capsys, "test", ds, "--tie-mode", "strict",
                           "--exit-code")
        assert code == 3
        assert json.loads(out)["status"] == "not-rationalizable"

    def test_malformed_dataset_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_z": 2}')
        code, _, err = run(capsys, "test", str(bad))
        assert code == 2 and "error" in err

    def test_budget_exhaustion_is_exit_4(self, capsys, tmp_path):
        ds = self.make_dataset(capsys, tmp_path, ALL_SIGN_PATTERNS)
        code, _, err = run(capsys, "test", ds, "--tie-mode", "strict",
                           "--budget", "0")
        assert code == 4 and "budget" in err


    def test_decision_digest(self, capsys, tmp_path):
        # pins the status, iteration count and witness of strict-tie
        # decisions on the benchmark's compiled corpus: the named formulas
        # and the L = 3..6 ladder drawn from Random(2014), both offset modes
        rng = random.Random(2014)
        formulas = [cnf.parse_dimacs(text) for text in
                    (SINGLE_CLAUSE, SLOT_CONFLICT, ALL_SIGN_PATTERNS)]
        formulas += [cnf.random_formula(rng, rng.randint(3, clauses + 2),
                                        clauses)
                     for clauses in (3, 3, 4, 4, 5, 5, 6, 6)]
        digest = hashlib.sha256()
        path = tmp_path / "ds.json"
        for f in formulas:
            for mode in reduction.OFFSET_MODES:
                path.write_text(reduction.dataset_to_json(
                    reduction.reduce_formula(f, mode)))
                code, out, _ = run(capsys, "test", str(path),
                                   "--tie-mode", "strict")
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == (
            "ad56992cf981b397762073fa24b25fb758f0a7493b029f4ee8376f310ec9b96f")

def test_negative_budget_is_a_usage_error(capsys, tmp_path, cnf_file):
    dataset = tmp_path / "ds.json"
    assert run(capsys, "reduce", cnf_file, "-o", str(dataset))[0] == 0
    # int() reads all but -1 as a budget; a sign, space, digit separator
    # or a non-ASCII digit (an Arabic-Indic 3) is not ASCII digits alone
    for command, path in (("test", str(dataset)), ("sat", cnf_file),
                          ("verify", cnf_file)):
        for budget in ("-1", "1_0", "\u0663", " 7", "+3", "7\n", ""):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, path, "--budget", budget])
            err = capsys.readouterr().err
            assert exc.value.code == 2, (command, budget)
            assert "--budget" in err and "Traceback" not in err


def test_json_commands_print_one_line(capsys, tmp_path, cnf_file):
    # every JSON document is one line: `reduce`'s dataset on stdout and in
    # the -o file, and the `test`, `sat` and `verify` documents
    def one_line(text, what):
        lines = text.splitlines()
        assert len(lines) == 1 and text == lines[0] + "\n", what
        assert isinstance(json.loads(lines[0]), dict), what

    dataset = tmp_path / "ds.json"
    assert run(capsys, "reduce", cnf_file, "-o", str(dataset))[0] == 0
    one_line(dataset.read_text(), "reduce -o")
    for command, path in (("reduce", cnf_file), ("test", str(dataset)),
                          ("sat", cnf_file), ("verify", cnf_file)):
        code, out, _ = run(capsys, command, path)
        assert code == 0, command
        one_line(out, command)


class TestSat:
    def test_model_emitted(self, capsys, cnf_file):
        code, out, _ = run(capsys, "sat", cnf_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "sat"
        assert set(doc["model"]) == {"1", "2", "3"}

    def test_unsat_with_exit_code(self, capsys, unsat_file):
        code, out, _ = run(capsys, "sat", unsat_file, "--exit-code")
        assert code == 3
        assert json.loads(out)["status"] == "unsat"

    def test_variable_count_past_the_sat_guard_exits_4(self, capsys,
                                                        monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "MAX_SAT_VARIABLES", 5)
        path = tmp_path / "wide.cnf"
        path.write_text("p cnf 5 1\n1 2 3 0\n")
        code, out, _ = run(capsys, "sat", str(path))
        assert code == 0 and json.loads(out)["status"] == "sat"
        path.write_text("p cnf 6 1\n1 2 3 0\n")
        code, out, err = run(capsys, "sat", str(path))
        assert code == 4 and out == ""
        assert err == "error: 6 variables exceeds the sat guard of 5\n"

    @pytest.mark.parametrize("count", [131073, 10 ** 9])
    def test_hostile_variable_count_stops_before_the_solver(
            self, capsys, monkeypatch, tmp_path, count):
        # the solver allocates per literal, so a header past the guard
        # must stop before any instance is built
        def forbidden(*args, **kwargs):
            raise AssertionError("a SAT instance was built")
        monkeypatch.setattr(satcore, "SatInstance", forbidden)
        monkeypatch.setattr(satcore, "Solver", forbidden)
        path = tmp_path / "wide.cnf"
        path.write_text(f"p cnf {count} 1\n1 2 3 0\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "sat", str(path))
        assert time.perf_counter() - start < 2
        assert code == 4 and out == "" and "sat guard" in err

    def test_wide_header_below_the_guard_is_solved(self, capsys, tmp_path):
        # decisions cost no scan over the variables, so 100,000 free
        # variables take one sort and one pass
        path = tmp_path / "wide.cnf"
        path.write_text("p cnf 100000 1\n1 2 3 0\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "sat", str(path))
        assert time.perf_counter() - start < 2
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "sat" and len(doc["model"]) == 100000
        assert doc["model"]["1"] or doc["model"]["2"] or doc["model"]["3"]


    @pytest.mark.parametrize("seed,status,digest",
                             [(s, st, d) for s, st, _, _, d in PINNED_SOLVE])
    def test_dimacs_front_end_keeps_the_pinned_search(self, capsys, tmp_path,
                                                      seed, status, digest):
        # a comment, a blank line and a clause split over two lines change
        # nothing the reader hands to the solver
        f, _ = pinned_formula(seed)
        lines = [" ".join(map(str, c.to_ints())) + " 0" for c in f.clauses]
        head, tail = lines[1].rsplit(" ", 2)[0], lines[1].split()[-2:]
        lines[1:2] = [head, " ".join(tail)]
        path = tmp_path / "pinned.cnf"
        path.write_text(f"c pinned formula {seed}\n"
                        f"p cnf {f.var_count} {len(f.clauses)}\n\n"
                        + "\n".join(lines) + "\n")
        code, out, _ = run(capsys, "sat", str(path))
        doc = json.loads(out)
        assert code == 0 and doc["status"] == status
        if status == "sat":
            model = [doc["model"][str(v)] for v in range(1, f.var_count + 1)]
            assert hashlib.sha256(bytes(model)).hexdigest()[:16] == digest


class TestVerify:
    def test_agree_on_satisfiable(self, capsys, cnf_file):
        code, out, err = run(capsys, "verify", cnf_file,
                             "--tie-mode", "strict")
        assert code == 0
        assert json.loads(out)["agree"] is True
        assert "AGREE" in err

    def test_agree_on_unsatisfiable(self, capsys, unsat_file):
        code, out, _ = run(capsys, "verify", unsat_file,
                           "--tie-mode", "strict")
        assert code == 0
        assert json.loads(out) == {"satisfiable": False,
                                   "rationalizable": False, "agree": True}

    def test_zero_clause_formula_agrees(self, capsys, tmp_path):
        # no clauses compile to data without bundles, which is rationalizable
        path = tmp_path / "empty.cnf"
        path.write_text("p cnf 3 0\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 0
        assert json.loads(out) == {"satisfiable": True,
                                   "rationalizable": True, "agree": True}
        assert "AGREE" in err

    def test_disagreement_reported_and_nonzero(self, capsys, monkeypatch,
                                               cnf_file):
        # a decider that rejects the satisfiable single clause
        def reject(*args, **kwargs):
            return septest.TestVerdict(None, None, "cegar", 0,
                                       "per-level-union")

        monkeypatch.setattr(septest, "decide", reject)
        code, out, err = run(capsys, "verify", cnf_file,
                             "--tie-mode", "strict")
        assert code != 0
        assert json.loads(out)["agree"] is False
        assert "DISAGREE" in err


@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_variable_count_past_the_compile_guard_exits_4(capsys, tmp_path,
                                                       command):
    # compile time grows with the declared variable count (2I exact base
    # points, and a level-separation check that grows with the variables in
    # use), so a hostile header must stop at the guard instead of hanging
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 100000 1\n1 2 3 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(path))
    assert time.perf_counter() - start < 1
    assert code == 4 and out == ""
    assert err == (f"error: 100000 variables exceeds the compile guard of "
                   f"{reduction.MAX_VARIABLES}\n")


def _leveled_dataset(obs_fields=None, eval_fields=None):
    """Dataset JSON with clause levels; the first row of each kind gets the
    given fields on top."""
    obs = [{"x": ["1", "2"], "p": ["1", "1"], "clause": 1},
           {"x": ["2", "1"], "p": ["1", "1"], "clause": 1}]
    evs = [{"x": ["1", "1"], "clause": 1}]
    obs[0].update(obs_fields or {})
    evs[0].update(eval_fields or {})
    return json.dumps({"n_z": 1, "n_o": 1, "observations": obs,
                       "evaluation_points": evs}).encode()


MALFORMED_DIMACS = {
    "empty": b"",
    "bad header": b"p cnf three 1\n1 2 3 0\n",
    "unknown token": b"p cnf 3 1\n1 2 x 0\n",
    "variable out of range": b"p cnf 2 1\n1 2 3 0\n",
    "repeated variable": b"p cnf 3 1\n1 1 2 0\n",
    "unterminated clause": b"p cnf 3 1\n1 2 3\n",
    "clause count mismatch": b"p cnf 3 2\n1 2 3 0\n",
    "not utf-8": b"p cnf 3 1\n\xff\xfe 0\n",
    "digit separator": b"p cnf 1_0 1\n1 2 3 0\n",
    "non-ascii digit": "p cnf 3 1\n\u0661 2 3 0\n".encode(),
    # a line break of str.splitlines() but no DIMACS line end
    "line separator": "p cnf 3 1\n1 2\u20283 0\n".encode(),
}

MALFORMED_DATASETS = {
    "not json": b"{not json",
    "top level list": b"[]",
    "missing n_o": b'{"n_z": 2}',
    "fractional n_z": b'{"n_z": 1.9, "n_o": 1, "observations": '
                      b'[{"x": ["1", "2"], "p": ["1", "1"]}]}',
    "boolean n_o": b'{"n_z": 1, "n_o": true, "observations": '
                   b'[{"x": ["1", "2"], "p": ["1", "1"]}]}',
    "string n_z": b'{"n_z": "2", "n_o": 1, "observations": '
                  b'[{"x": ["1", "2", "1"], "p": ["1", "1", "1"]}]}',
    "observations not a list": b'{"n_z": 1, "n_o": 1, "observations": 5}',
    "evaluation_points not a list":
        b'{"n_z": 1, "n_o": 1, "evaluation_points": 5}',
    "short bundle": b'{"n_z": 1, "n_o": 1, "observations": '
                    b'[{"x": ["1"], "p": ["1", "1"]}]}',
    "bad rational": b'{"n_z": 1, "n_o": 1, "observations": '
                    b'[{"x": ["1", "0.5"], "p": ["1", "1"]}]}',
    "list offset_mode": b'{"n_z": 1, "n_o": 1, "offset_mode": [1, 2], '
                        b'"observations": [{"x": ["1", "2"], "p": ["1", "1"]}]}',
    "string clause": _leveled_dataset({"clause": "2"}),
    "list clause": _leveled_dataset(eval_fields={"clause": [1]}),
    "fractional clause": _leveled_dataset({"clause": 1.5}),
    "boolean clause": _leveled_dataset(eval_fields={"clause": True}),
    "boolean slot": _leveled_dataset({"k": True}),
    "deeply nested": b"[" * 200_000,
}

HOSTILE_CASES = (
    [(cmd, name, text) for cmd in ("reduce", "sat", "verify")
     for name, text in MALFORMED_DIMACS.items()]
    + [(cmd, name, text) for cmd in ("test", "export-dot")
       for name, text in MALFORMED_DATASETS.items()])


@pytest.mark.parametrize("command,name,content", HOSTILE_CASES,
                         ids=[f"{c}-{n}" for c, n, _ in HOSTILE_CASES])
def test_hostile_input_files_exit_2_without_traceback(capsys, tmp_path,
                                                      command, name, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    try:
        code, out, err = run(capsys, command, str(path))
    except Exception:  # would reach the user as a traceback
        pytest.fail(f"{command} on {name}: {traceback.format_exc()}")
    assert code == 2, out + err
    assert any(line.startswith("error: ") for line in err.splitlines())
    assert "Traceback" not in out + err


class TestExportDot:
    def test_writes_dot(self, capsys, tmp_path, cnf_file):
        ds = tmp_path / "ds.json"
        assert run(capsys, "reduce", cnf_file, "-o", str(ds))[0] == 0
        dot = tmp_path / "graph.dot"
        code, _, _ = run(capsys, "export-dot", str(ds), "-o", str(dot))
        assert code == 0
        text = dot.read_text()
        assert text.startswith("digraph") and "l1_t2" in text

    def test_negative_labels_export_valid_ids(self, capsys, tmp_path):
        # an unquoted DOT ID is a name or a numeral and cannot hold "-"
        dot_id = (r'(?:[A-Za-z_][A-Za-z_0-9]*|-?(?:\.[0-9]+|[0-9]+'
                  r'(?:\.[0-9]*)?)|"(?:[^"\\]|\\.)*")')
        node = re.compile(rf"  {dot_id};")
        edge = re.compile(rf'  {dot_id} -> {dot_id} \[label="k[0-9]+"\];')
        path = tmp_path / "ds.json"
        path.write_bytes(_leveled_dataset({"clause": -1, "k": 2}))
        code, out, _ = run(capsys, "export-dot", str(path), "--tie-mode",
                           "weak")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "digraph revealed {" and lines[-1] == "}"
        assert '  "l-1_t2";' in lines and any("->" in s for s in lines)
        for line in lines[1:-1]:
            assert node.fullmatch(line) or edge.fullmatch(line), line


def test_log_env_var_controls_verbosity(capsys, monkeypatch, cnf_file):
    import logging
    monkeypatch.setenv("SEPRAT_LOG", "debug")
    pkg_logger = logging.getLogger("seprat")
    before = pkg_logger.level
    try:
        code, out, _ = run(capsys, "sat", cnf_file)
        assert code == 0
        assert json.loads(out)["status"] == "sat"
        assert pkg_logger.level == logging.DEBUG
    finally:
        pkg_logger.setLevel(before)


@pytest.mark.parametrize("value", ["basic_format", "bogus"])
def test_log_env_var_accepts_only_level_names(capsys, monkeypatch, cnf_file,
                                              value):
    # BASIC_FORMAT is an upper-case attribute of logging but no level
    import logging
    monkeypatch.setenv("SEPRAT_LOG", value)
    pkg_logger = logging.getLogger("seprat")
    before = pkg_logger.level
    try:
        code, out, _ = run(capsys, "sat", cnf_file)
        assert code == 0
        assert json.loads(out)["status"] == "sat"
        assert pkg_logger.level == logging.WARNING
    finally:
        pkg_logger.setLevel(before)


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_cli_examples_parse():
    # every documented command line must still parse; nothing is run
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [l for l in block.splitlines() if l.startswith("seprat ")]
    assert examples
    parser = cli._build_parser()
    for line in examples:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_help_lists_exactly_the_five_commands(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert "{reduce,test,sat,verify,export-dot}" in capsys.readouterr().out


def test_option_sets_are_pinned():
    # a new option fails here, so it is seen in review
    parser = cli._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = {name: {s for a in p._actions for s in a.option_strings}
               for name, p in commands.items()}
    help_ = {"-h", "--help"}
    assert options == {
        "reduce": help_ | {"-o", "--output", "--offset-mode",
                           "--positive-prices"},
        "test": help_ | {"--tie-mode", "--method", "--budget", "--exit-code"},
        "sat": help_ | {"--budget", "--exit-code"},
        "verify": help_ | {"--tie-mode", "--budget", "--offset-mode"},
        "export-dot": help_ | {"--tie-mode", "-o", "--output"},
    }
    method = next(a for a in commands["test"]._actions
                  if "--method" in a.option_strings)
    assert set(method.choices) == {"cegar"}


def test_one_parser_serves_every_call_without_leaking_defaults(
        capsys, tmp_path, cnf_file):
    # the parser is built once per process, so no command's defaults may
    # reach another: `test` keeps the documented weak default before and
    # after `verify`, whose own default is strict
    dataset = tmp_path / "ds.json"
    assert run(capsys, "reduce", cnf_file, "-o", str(dataset))[0] == 0
    assert cli._build_parser() is cli._build_parser()
    code, first, _ = run(capsys, "test", str(dataset))
    assert code == 0
    ds = dataset_from_json(dataset.read_text())
    assert json.loads(first) == cli._verdict_doc(septest.decide(ds, "weak"))
    assert json.loads(first) != cli._verdict_doc(septest.decide(ds, "strict"))
    code, out, _ = run(capsys, "verify", cnf_file)
    assert code == 0 and json.loads(out)["agree"]
    code, second, _ = run(capsys, "test", str(dataset))
    assert code == 0 and second == first


def run_module(*argv):
    """`python -m seprat` in a child process, with the package on the path."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "seprat", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_module_entry_point(tmp_path, cnf_file):
    proc = run_module("--version")
    assert proc.returncode == 0 and proc.stdout.strip() == __version__
    proc = run_module("sat", cnf_file)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "sat"
    proc = run_module("sat", str(tmp_path / "missing.cnf"))
    assert proc.returncode == 2
    assert "error" in proc.stderr and "Traceback" not in proc.stderr
