"""Command-line surface: exit codes, JSON schema, pipelines, the REPL."""

import io
import json
import subprocess
import sys

import pytest

from mucheck.cli import main
from mucheck.kripke import generate_family, save_model


@pytest.fixture
def m1_path(tmp_path, m1):
    path = tmp_path / "m1.json"
    save_model(m1, path)
    return str(path)


@pytest.fixture
def star3_path(tmp_path):
    path = tmp_path / "star3.json"
    save_model(generate_family("starN", 3), path)
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_bounded_true(m1_path, capsys):
    code, out, _ = run(["eval", "--model", m1_path, "--formula",
                        "mu X. (p | []X)", "--state", "a",
                        "--semantics", "bounded:2"], capsys)
    assert code == 0 and out.strip() == "true"


def test_eval_bounded_false(m1_path, capsys):
    code, out, _ = run(["eval", "--model", m1_path, "--formula",
                        "mu X. (p | []X)", "--state", "a",
                        "--semantics", "bounded:1"], capsys)
    assert code == 1 and out.strip() == "false"


def test_eval_free_undetermined(m1_path, capsys):
    code, out, _ = run(["eval", "--model", m1_path, "--formula", "mu X. X",
                        "--state", "a", "--semantics", "free"], capsys)
    assert code == 2 and out.strip() == "undetermined"


def test_eval_omega_equals_standard(m1_path, capsys):
    for sem in ("omega", "standard"):
        code, out, _ = run(["eval", "--model", m1_path, "--formula",
                            "nu X. <>X", "--state", "b",
                            "--semantics", sem], capsys)
        assert code == 0 and out.strip() == "true"


def test_eval_check_flag(m1_path, capsys):
    code, _, _ = run(["eval", "--model", m1_path, "--formula",
                      "mu X. (p | []X)", "--state", "a",
                      "--semantics", "bounded:2", "--check"], capsys)
    assert code == 0


def test_eval_json_schema(m1_path, capsys):
    code, out, _ = run(["eval", "--model", m1_path, "--formula",
                        "mu X. (p | []X)", "--state", "a",
                        "--semantics", "bounded:2", "--json",
                        "--trace", "--strategy"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "true"
    assert data["semantics"] == "bounded:2"
    assert data["positions"] > 0
    assert "solve_s" in data["timings"] and "total_s" in data["timings"]
    assert data["trace"]["winner"] == "Eloise"
    assert data["strategy"]


def test_eval_errors(m1_path, tmp_path, capsys):
    code, _, err = run(["eval", "--model", m1_path, "--formula", "mu X. Y",
                        "--state", "a"], capsys)
    assert code == 10 and "Y" in err
    code, _, err = run(["eval", "--model", m1_path, "--formula", "p",
                        "--state", "zz"], capsys)
    assert code == 10
    code, _, err = run(["eval", "--model", str(tmp_path / "nope.json"),
                        "--formula", "p", "--state", "a"], capsys)
    assert code == 10
    code, _, err = run(["eval", "--model", m1_path, "--formula", "p",
                        "--state", "a", "--semantics", "bounded:junk"],
                       capsys)
    assert code == 10
    code, _, err = run(["eval", "--model", m1_path, "--formula", "p",
                        "--state", "a", "--semantics", "standard",
                        "--trace"], capsys)
    assert code == 10


def test_eval_deep_formula_is_internal_error(m1_path, tmp_path, capsys):
    """A crash (here the recursion limit on 500 nested diamonds) exits with
    the internal-error code, never with a verdict code."""
    from mucheck.cli import EXIT_INTERNAL
    path = tmp_path / "deep.mu"
    path.write_text("<>" * 500 + "p")
    code, out, err = run(["eval", "--model", m1_path, "--formula-file",
                          str(path), "--state", "a"], capsys)
    assert code == EXIT_INTERNAL
    assert code not in (0, 1, 2, 3, 10, 11, 12, 13)
    assert out == ""
    assert err.startswith("error: internal: RecursionError")
    assert len(err.splitlines()) == 1


def test_eval_position_cap(m1_path, capsys):
    code, _, err = run(["eval", "--model", m1_path, "--formula",
                        "nu X. [] mu Y. (<>Y | (p & X))", "--state", "a",
                        "--semantics", "bounded:3", "--max-positions", "5"],
                       capsys)
    assert code == 11


def test_play_as_abelard_machine_wins(star3_path, capsys, monkeypatch):
    # the human Abelard tries moves; machine Eloise still wins
    monkeypatch.setattr(sys, "stdin", io.StringIO("1\n1\n1\n1\n1\n1\n1\n1\n"
                                                  "1\n1\n1\n1\n1\n1\n"))
    code, out, err = run(["play", "--model", star3_path, "--formula",
                          "nu X. [] mu Y. (<>Y | (p & X))", "--state", "w_0",
                          "--gamma", "omega", "--as", "abelard"], capsys)
    assert code == 0
    assert "Eloise wins" in out


def test_play_eof_aborts(m1_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code, _, err = run(["play", "--model", m1_path, "--formula",
                        "mu X. (p | []X)", "--state", "a", "--gamma", "2",
                        "--as", "eloise"], capsys)
    assert code == 3


def test_play_invalid_index_reprompts(m1_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("9\nx\n1\n1\n1\n1\n1\n"))
    code, out, _ = run(["play", "--model", m1_path, "--formula",
                        "nu X. X", "--state", "a", "--gamma", "1",
                        "--as", "abelard"], capsys)
    assert code == 0
    assert "between 1 and" in out


def test_play_both_interactive_referee(m1_path, capsys, monkeypatch):
    # both sides human: Eloise sets the clock and walks into p at b
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO("1\n2\n1\n1\n1\n1\n1\n1\n"))
    code, out, _ = run(["play", "--model", m1_path, "--formula",
                        "mu X. (p | []X)", "--state", "a", "--gamma", "2",
                        "--as", "both"], capsys)
    assert code in (0, 1)
    assert "wins" in out


def test_reduce_pipeline(m1_path, tmp_path, capsys):
    out_path = str(tmp_path / "red.json")
    code, out, _ = run(["reduce", "--model", m1_path, "--formula",
                        "mu X. (p | []X)", "--state", "a", "--gamma", "2",
                        "--out", out_path], capsys)
    assert code == 0
    assert "root:" in out and "positions:" in out
    root = json.loads(open(out_path).read())["root"]
    code, out, _ = run(["eval", "--model", out_path, "--formula",
                        "mu X. (p_B | (q_B & <>X) | (!q_B & []X))",
                        "--state", root, "--semantics", "standard"], capsys)
    assert code == 0 and out.strip() == "true"


def test_reduce_gamma_auto_matches_card(m1_path, tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(["reduce", "--model", m1_path, "--formula", "mu X. (p | []X)",
         "--state", "a", "--gamma", "auto", "--out", a], capsys)
    run(["reduce", "--model", m1_path, "--formula", "mu X. (p | []X)",
         "--state", "a", "--gamma", "2", "--out", b], capsys)
    da, db = json.load(open(a)), json.load(open(b))
    assert da == db


def test_reduce_single_position(tmp_path, capsys):
    model_path = str(tmp_path / "one.json")
    from mucheck.kripke import KripkeModel
    save_model(KripkeModel(["w"], [], {"p": ["w"]}), model_path)
    out_path = str(tmp_path / "red.json")
    code, out, _ = run(["reduce", "--model", model_path, "--formula", "p",
                        "--state", "w", "--gamma", "1", "--out", out_path],
                       capsys)
    assert code == 0 and "positions: 1" in out


def test_reduce_cap_exit_code(m1_path, capsys):
    code, _, err = run(["reduce", "--model", m1_path, "--formula",
                        "nu X. [] mu Y. (<>Y | (p & X))", "--state", "a",
                        "--gamma", "3", "--max-positions", "5"], capsys)
    assert code == 11


def test_gen_families(tmp_path, capsys):
    out = str(tmp_path / "m.json")
    code, _, _ = run(["gen", "starN", "3", "--out", out], capsys)
    assert code == 0
    data = json.load(open(out))
    assert len(data["states"]) == 4
    code, _, _ = run(["gen", "daggerN", "2", "--out", out], capsys)
    assert code == 0
    assert json.load(open(out))["val"]["p"] == ["w_1"]
    code, _, _ = run(["gen", "chain", "1", "--out", out], capsys)
    assert code == 0
    assert len(json.load(open(out))["states"]) == 2


def test_compare_small_run(capsys):
    code, out, _ = run(["compare", "--max-states", "1", "--max-nodes", "3",
                        "--random-count", "6", "--gammas", "1,2,omega",
                        "--ar-max-states", "2", "--workers", "1",
                        "--seed", "7"], capsys)
    assert code == 0
    assert "game-vs-bounded" in out and "FAIL" not in out


def test_compare_seed_determinism(capsys):
    args = ["compare", "--max-states", "1", "--max-nodes", "2",
            "--random-count", "5", "--gammas", "1,2", "--ar-max-states", "1",
            "--workers", "1", "--seed", "9", "--json"]
    _, out1, _ = run(args, capsys)
    _, out2, _ = run(args, capsys)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_s"), d2.pop("elapsed_s")
    assert d1 == d2


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "mucheck.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "eval" in proc.stdout and "compare" in proc.stdout


def test_module_invocation(tmp_path):
    model = tmp_path / "m.json"
    save_model(generate_family("chain", 1), model)
    proc = subprocess.run(
        [sys.executable, "-m", "mucheck.cli", "eval", "--model", str(model),
         "--formula", "<> p", "--state", "w_0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "true"
