import argparse
import json
import os
import pathlib
import shlex
import subprocess
import sys
import traceback

import pytest

from seprat import __version__, cli, cnf, reduction, septest
from seprat.reduction import dataset_from_json
from tests.conftest import ALL_SIGN_PATTERNS, SINGLE_CLAUSE


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


def test_negative_budget_is_a_usage_error(capsys, tmp_path, cnf_file):
    dataset = tmp_path / "ds.json"
    assert run(capsys, "reduce", cnf_file, "-o", str(dataset))[0] == 0
    for command, path in (("test", str(dataset)), ("sat", cnf_file),
                          ("verify", cnf_file)):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, path, "--budget", "-1"])
        err = capsys.readouterr().err
        assert exc.value.code == 2, command
        assert "--budget" in err and "Traceback" not in err


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
            return septest.TestVerdict("not-rationalizable", None, {})

        monkeypatch.setattr(septest, "decide", reject)
        code, out, err = run(capsys, "verify", cnf_file,
                             "--tie-mode", "strict")
        assert code != 0
        assert json.loads(out)["agree"] is False
        assert "DISAGREE" in err


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
    "string clause": _leveled_dataset({"clause": "2"}),
    "list clause": _leveled_dataset(eval_fields={"clause": [1]}),
    "fractional clause": _leveled_dataset({"clause": 1.5}),
    "boolean clause": _leveled_dataset(eval_fields={"clause": True}),
    "boolean slot": _leveled_dataset({"k": True}),
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
    assert set(method.choices) == {"auto", "cegar"}


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
