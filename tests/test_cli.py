"""Command-line surface: exit codes, JSON schema, pipelines, the REPL."""

import gc
import io
import itertools
import json
import subprocess
import sys
import time

import pytest

from mucheck.cli import main
from mucheck.kripke import KripkeModel, generate_family, save_model


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


@pytest.mark.parametrize("sem,module,name", [
    ("standard", "mucheck.semantics", "eval_standard"),
    ("free", "mucheck.variants", "solve_free"),
])
def test_eval_json_times_the_compositional_solve(m1_path, capsys,
                                                 monkeypatch, sem, module,
                                                 name):
    """``timings.solve_s`` is the time of the engine call, not null."""
    engine = getattr(sys.modules[module], name)

    def slow(*args):
        time.sleep(0.05)
        return engine(*args)

    monkeypatch.setattr(sys.modules[module], name, slow)
    code, out, _ = run(["eval", "--model", m1_path, "--formula",
                        "mu X. (p | []X)", "--state", "a", "--semantics",
                        sem, "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["verdict", "semantics", "model", "state",
                          "formula", "mode", "positions", "timings"]
    assert data["mode"] is None and data["positions"] is None
    timings = data["timings"]
    assert list(timings) == ["total_s", "solve_s"]
    assert 0.05 <= timings["solve_s"] <= timings["total_s"]


def test_timings_ignore_a_wall_clock_that_steps_back(m1_path, capsys,
                                                      monkeypatch):
    """Durations come from a monotonic clock: a wall clock that steps
    back a second at every read leaves every timing non-negative."""
    wall = itertools.count(2_000_000_000, -1)
    monkeypatch.setattr(time, "time", lambda: next(wall))
    code, out, _ = run(["eval", "--model", m1_path, "--formula",
                        "mu X. (p | []X)", "--state", "a", "--semantics",
                        "bounded:2", "--json"], capsys)
    timings = json.loads(out)["timings"]
    assert code == 0 and 0 <= timings["solve_s"] <= timings["total_s"]
    code, out, _ = run(["compare", "--max-states", "1", "--max-nodes", "2",
                        "--random-count", "0", "--gammas", "1",
                        "--ar-max-states", "1", "--workers", "1",
                        "--budget", "60", "--json"], capsys)
    data = json.loads(out)
    assert code == 0 and not data["partial"] and data["elapsed_s"] >= 0


PHI_STAR = "nu X. [] mu Y. (<>Y | (p & X))"
THREE_BINDERS = "mu Z. nu X. [] mu Y. ((<>Y & q) | (p & X) | <>Z)"


@pytest.mark.parametrize("family,n,formula,semantics,mode,expected", [
    ("starN", 3, PHI_STAR, "omega", "greedy", (0, 376, 155)),
    ("starN", 3, PHI_STAR, "omega", "exhaustive", (0, 401, 155)),
    ("daggerN", 3, "mu X. (p | []X)", "fbounded:1", "greedy", (0, 28, 14)),
    ("daggerN", 3, "mu X. (p | []X)", "fbounded:1", "exhaustive",
     (0, 82, 14)),
    ("clique", 2, THREE_BINDERS, "omega", "greedy", (1, 1833, 352)),
    ("clique", 2, THREE_BINDERS, "omega", "exhaustive", (1, 1851, 352)),
])
def test_eval_solver_output_is_pinned(tmp_path, capsys, family, n, formula,
                                      semantics, mode, expected):
    """Exit code, explored positions and strategy size of the solver: the
    observable fingerprint of exploration and strategy extraction."""
    model = generate_family(family, n)
    path = tmp_path / "model.json"
    save_model(model, path)
    code, out, _ = run(["eval", "--model", str(path), "--formula", formula,
                        "--state", model.states[0], "--semantics", semantics,
                        "--mode", mode, "--json", "--strategy"], capsys)
    data = json.loads(out)
    assert (code, data["positions"], len(data["strategy"])) == expected


# Full `eval --strategy --trace` output, text and JSON (timings removed),
# recorded before the solver became a lazy depth-first search: the
# strategy is the first winning move in move order, so any correct solver
# must print exactly these bytes.
GOLDEN_EVAL_CASES = {
    "star3_phistar_omega_greedy": ("starN", 3, PHI_STAR, "omega", "greedy"),
    "star3_phistar_omega_exhaustive": ("starN", 3, PHI_STAR, "omega",
                                       "exhaustive"),
    "clique2_three_omega_greedy": ("clique", 2, THREE_BINDERS, "omega",
                                   "greedy"),
    "clique2_three_omega_exhaustive": ("clique", 2, THREE_BINDERS, "omega",
                                       "exhaustive"),
    "dagger3_afp_fbounded1_greedy": ("daggerN", 3, "mu X. (p | []X)",
                                     "fbounded:1", "greedy"),
}


def eval_golden_output(case, json_form, tmp_path, monkeypatch, capsys):
    """The golden file name and the printed output of one eval case; the
    model file is named relative to the working directory, so the JSON
    form's ``model`` field does not depend on where the test runs."""
    import re
    family, n, formula, semantics, mode = GOLDEN_EVAL_CASES[case]
    model = generate_family(family, n)
    save_model(model, tmp_path / "model.json")
    monkeypatch.chdir(tmp_path)
    argv = ["eval", "--model", "model.json", "--formula", formula,
            "--state", model.states[0], "--semantics", semantics,
            "--mode", mode, "--strategy", "--trace"]
    code, out, _ = run(argv + ["--json"] if json_form else argv, capsys)
    out = re.sub(r'\n  "timings": \{[^}]*\},', "", out)
    return f"eval_{case}.{'json' if json_form else 'txt'}", f"{code}\n{out}"


@pytest.mark.parametrize("json_form", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", sorted(GOLDEN_EVAL_CASES))
def test_eval_strategy_and_trace_are_pinned(case, json_form, tmp_path,
                                            monkeypatch, capsys):
    import pathlib
    name, out = eval_golden_output(case, json_form, tmp_path, monkeypatch,
                                   capsys)
    golden = pathlib.Path(__file__).parent / "golden" / name
    assert out == golden.read_text()


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


def test_usage_errors_exit_with_the_error_code(m1_path, capsys):
    """argparse's own code 2 reads as "undetermined"; usage errors exit 10
    and --help still exits 0."""
    for argv in (["eval", "--model", m1_path, "--formula", "p"],
                 ["eval", "--model", m1_path, "--formula", "p", "--state",
                  "a", "--max-positions", "0"],
                 ["eval", "--model", m1_path, "--formula", "p", "--state",
                  "a", "--max-positions", "-3"],
                 ["eval", "--model", m1_path, "--formula", "p", "--state",
                  "a", "--max-positions", "many"],
                 ["eval", "--model", m1_path, "--formula", "p", "--state",
                  "a", "--bogus"],
                 ["nonsense"], []):
        code, out, err = run(argv, capsys)
        assert code == 10, argv
        assert out == "" and "error:" in err
    assert run(["--help"], capsys)[0] == 0
    assert run(["eval", "--help"], capsys)[0] == 0
    code, out, _ = run(["eval", "--model", m1_path, "--formula", "p",
                        "--state", "b", "--max-positions", "1"], capsys)
    assert code == 0 and out.strip() == "true"


def test_eval_deeply_nested_model_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run(["eval", "--model", str(path), "--formula", "p",
                          "--state", "a"], capsys)
    assert code == 10
    assert out == "" and err.startswith("error: invalid JSON")


def test_eval_deep_formula_is_internal_error(m1_path, tmp_path, capsys,
                                            monkeypatch):
    """500 nested diamonds and 400 nested parentheses get a verdict, in
    text and JSON alike.  A crash (here an injected recursion error in the
    parser) exits with the internal-error code, never with a verdict
    code."""
    from mucheck import formula as F
    from mucheck.cli import EXIT_INTERNAL
    path = tmp_path / "deep.mu"
    path.write_text("<>" * 500 + "p")
    argv = ["eval", "--model", m1_path, "--formula-file", str(path),
            "--state", "a"]
    code, out, err = run(argv, capsys)
    assert code in (0, 1) and out.strip() == ("true", "false")[code]
    assert err == ""
    code_json, out, err = run(argv + ["--json"], capsys)
    assert code_json == code and err == ""
    payload = json.loads(out)
    assert payload["verdict"] == ("true", "false")[code]
    assert payload["formula"] == "<> (" * 499 + "<> p" + ")" * 499
    path.write_text("(" * 400 + "p" + ")" * 400)
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (1, "false\n", "")

    def crash(self):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(F._Parser, "parse", crash)
    code, out, err = run(argv, capsys)
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


@pytest.mark.parametrize("argv, message", [
    (["play", "--gamma", "3", "--max-positions", "5"], "while exploring"),
    (["eval", "--semantics", "fbounded:1", "--max-positions", "5"],
     "while exploring"),
    # The DAG has 63 positions and the tree 3,213: only the unfolding
    # trips this cap.
    (["reduce", "--tree", "--gamma", "3", "--max-positions", "100"],
     "position cap 100 exceeded while unfolding"),
])
def test_position_cap_exits_with_the_cap_code(m1_path, capsys, monkeypatch,
                                              argv, message):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code, out, err = run(argv + ["--model", m1_path, "--formula",
                                 "nu X. [] mu Y. (<>Y | (p & X))",
                                 "--state", "a"], capsys)
    assert code == 11
    assert err.startswith("error: position cap") and message in err


def test_compare_budget_exits_with_the_partial_code(capsys):
    code, out, _ = run(["compare", "--max-states", "1", "--max-nodes", "1",
                        "--random-count", "1", "--ar-max-states", "1",
                        "--workers", "1", "--budget", "0"], capsys)
    assert code == 12
    assert "partial report" in out


@pytest.mark.parametrize("option, value", [
    ("--max-states", "0"), ("--max-states", "-1"), ("--max-nodes", "0"),
    ("--max-nodes", "-2"), ("--ar-max-states", "0"),
    ("--random-count", "-1"), ("--max-binders", "-1"),
    ("--max-binders", "two"), ("--workers", "0"), ("--workers", "-1")])
def test_compare_rejects_sizes_that_would_pass_vacuously(capsys, option,
                                                         value):
    """An empty model or sentence corpus would report 0 instances and
    pass; such sizes are usage errors.  So is a worker count below one,
    which would run the sweeps in this process unasked."""
    code, out, err = run(["compare", option, value], capsys)
    assert code == 10 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and option in errors[0]


@pytest.mark.parametrize("value", ["-1", "-0.5", "nan", "inf", "abc"])
def test_compare_budget_must_be_finite_and_non_negative(capsys, value):
    """A negative budget would stop every sweep at once, and nan or inf
    would never stop one; all are usage errors."""
    code, out, err = run(["compare", "--budget", value], capsys)
    assert code == 10 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--budget" in errors[0]


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_pauses_the_collector_and_restores_its_state(
        m1_path, capsys, monkeypatch, enabled):
    """The command body runs with the cyclic GC paused, and the state
    found is restored after a verdict, a usage error, a CliError, a cap
    hit and an internal error alike."""
    from mucheck import cli
    seen = []
    real = cli.generate_family

    def probe(family, n):
        seen.append(gc.isenabled())
        if family == "clique":
            raise RuntimeError("injected")
        return real(family, n)

    monkeypatch.setattr(cli, "generate_family", probe)
    formula = ["--formula", "nu X. [] mu Y. (<>Y | (p & X))"]
    cases = [
        (["gen", "chain", "1"], 0),
        (["eval", "--model", m1_path, "--state", "a", "--bogus"] + formula,
         10),
        (["eval", "--model", m1_path, "--state", "a", "--trace"] + formula,
         10),
        (["eval", "--model", m1_path, "--state", "a", "--semantics",
          "bounded:3", "--max-positions", "5"] + formula, 11),
        (["gen", "clique", "2"], 70),
    ]
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        for argv, code in cases:
            assert run(argv, capsys)[0] == code, argv
            assert gc.isenabled() is enabled, argv
    finally:
        gc.enable() if was else gc.disable()
    assert seen == [False, False]


def test_a_paused_command_leaves_no_game_in_reference_cycles(star3_path,
                                                              capsys):
    """What a command builds while the collector is paused must be freed
    by reference counting alone: the cycles a collection finds after it
    are argparse's, never a game, a strategy or a model."""
    from mucheck.game import GameCore, Strategy, _Graph
    from mucheck.kripke import KripkeModel
    common = ["--model", star3_path, "--state", "w_0", "--formula",
              "nu X. [] mu Y. (<>Y | (p & X))"]
    kept = (_Graph, GameCore, Strategy, KripkeModel)
    for argv in (["eval", "--semantics", "omega", "--strategy"] + common,
                 ["reduce", "--gamma", "2"] + common):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert run(argv, capsys)[0] == 0
            gc.collect()
            assert not [o for o in gc.garbage if isinstance(o, kept)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()


HUGE_BOUND = "100000000000000000000"


def test_a_huge_finite_bound_costs_greedy_play_nothing(tmp_path, capsys):
    """A greedy binder announces only the largest clock value, so bound
    10**20 is solved like bounded:7 on chain(3).  Exhaustive play and the
    export would need a binder row of 10**20 choices and stop at the
    position cap; compare reports its sweep partial."""
    path = tmp_path / "chain3.json"
    save_model(generate_family("chain", 3), path)
    argv = ["--model", str(path), "--state", "w_0", "--formula",
            "mu X. (p | <> X)"]
    for bound in ("7", HUGE_BOUND):
        code, out, _ = run(["eval", "--semantics", f"bounded:{bound}",
                            "--json"] + argv, capsys)
        payload = json.loads(out)
        assert (code, payload["verdict"], payload["positions"]) \
            == (0, "true", 16)
    code, out, _ = run(["eval", "--semantics", f"bounded:{HUGE_BOUND}",
                        "--strategy"] + argv, capsys)
    assert code == 0
    assert f"-> set-clock({int(HUGE_BOUND) - 1})" in out
    for cmd in (["eval", "--semantics", f"bounded:{HUGE_BOUND}", "--mode",
                 "exhaustive"], ["reduce", "--gamma", HUGE_BOUND]):
        code, out, err = run(cmd + argv, capsys)
        assert code == 11 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
    code, out, _ = run(["compare", "--gammas", HUGE_BOUND, "--max-states",
                        "1", "--max-nodes", "1", "--random-count", "0",
                        "--ar-max-states", "1", "--workers", "1"], capsys)
    assert code == 12 and "partial report" in out


def test_compare_names_the_cap_that_stopped_it(capsys):
    """A partial report says what cut it short, in the text after the
    partial-report line and in the one JSON key only partial reports
    carry."""
    argv = ["compare", "--gammas", HUGE_BOUND, "--max-states", "1",
            "--max-nodes", "1", "--random-count", "0", "--ar-max-states",
            "1", "--workers", "1"]
    code, out, _ = run(argv, capsys)
    lines = out.splitlines()
    assert code == 12 and "partial report" in lines[-2]
    assert lines[-1] == (f"stopped by: clock cap {HUGE_BOUND} is above "
                         f"the position cap 1000000")
    code, out, _ = run(argv + ["--json"], capsys)
    data = json.loads(out)
    assert code == 12 and data["partial"]
    assert data["stopped_by"] == lines[-1][len("stopped by: "):]


def test_two_counter_label_rows_check_the_cap_before_they_allocate(
        tmp_path):
    """At fbounded:40 on chain(3) an every-choice label row would list
    one move per counter value, up to 4**40 * 5 of them: the row compares
    that count with the position cap before it is built.  The child runs
    under a 1 GiB address-space limit, so a row built first runs out of
    memory rather than exhausting the machine, and exits 11 with an error
    line that does not name the position cap."""
    path = tmp_path / "chain3.json"
    save_model(generate_family("chain", 3), path)

    def limit_memory():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mucheck.cli", "eval", "--semantics",
         "fbounded:40", "--mode", "exhaustive", "--model", str(path),
         "--state", "w_0", "--formula", "mu X. (p | <> X)"],
        capture_output=True, text=True, preexec_fn=limit_memory,
        timeout=120)
    elapsed = time.perf_counter() - t0
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert proc.returncode == 11 and proc.stdout == ""
    assert len(errors) == 1 and "position cap" in errors[0]
    assert elapsed < 5  # about 0.2 s, most of it interpreter start-up


def test_a_huge_fbounded_exponent_is_refused_before_the_power(tmp_path):
    """At fbounded:10**20 on chain(3) the counter start 4**(10**20) * 5
    could not even be printed: it is refused by its bit length before
    the power is taken.  The child runs under a 1 GiB address-space
    limit, so a power taken first runs out of memory and exits 11, not
    10."""
    path = tmp_path / "chain3.json"
    save_model(generate_family("chain", 3), path)

    def limit_memory():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mucheck.cli", "eval", "--semantics",
         f"fbounded:{HUGE_BOUND}", "--model", str(path), "--state", "w_0",
         "--formula", "mu X. (p | <> X)"],
        capture_output=True, text=True, preexec_fn=limit_memory,
        timeout=120)
    elapsed = time.perf_counter() - t0
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert proc.returncode == 10 and proc.stdout == ""
    assert len(errors) == 1 and "decimal digits" in errors[0]
    assert elapsed < 5  # about 0.2 s, most of it interpreter start-up


def test_fbounded_limits_only_counter_starts_too_long_to_print(tmp_path,
                                                               capsys):
    """fbounded:40 on chain(3) still answers greedy; the counter start of
    a 1-state model is its sentence size for every k, so it has no
    limit; past 4,300 decimal digits the start is refused."""
    chain = tmp_path / "chain3.json"
    save_model(generate_family("chain", 3), chain)
    single = tmp_path / "one.json"
    save_model(KripkeModel(["a"], [("a", "a")], {"p": ["a"]}), single)
    formula = ["--formula", "mu X. (p | <> X)"]
    code, out, _ = run(["eval", "--semantics", "fbounded:40", "--model",
                        str(chain), "--state", "w_0"] + formula, capsys)
    assert (code, out) == (0, "true\n")
    code, out, _ = run(["eval", "--semantics", f"fbounded:{HUGE_BOUND}",
                        "--model", str(single), "--state", "a"] + formula,
                       capsys)
    assert (code, out) == (0, "true\n")
    # 4**7140 * 5 has 4,300 digits and 4**7141 * 5 has 4,301.
    for k, want in (("7140", 0), ("7141", 10)):
        code, out, err = run(["eval", "--semantics", f"fbounded:{k}",
                              "--model", str(chain), "--state", "w_0"]
                             + formula, capsys)
        assert code == want
        assert (err == "") == (want == 0)


@pytest.mark.parametrize("family, n", [("clique", "100000"),
                                       ("starN", "100000000000")])
def test_gen_checks_the_family_size_before_it_allocates(family, n):
    """clique(100000) has about 10**10 edges and starN(10**11) about
    3 * 10**11: gen compares the closed-form count of states plus edges
    with the family limit before it builds anything.  The child runs
    under a 1 GiB address-space limit, so a model built first runs out of
    memory rather than exhausting the machine, and exits 11, not 10."""

    def limit_memory():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mucheck.cli", "gen", family, n],
        capture_output=True, text=True, preexec_fn=limit_memory,
        timeout=120)
    elapsed = time.perf_counter() - t0
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert proc.returncode == 10 and proc.stdout == ""
    assert len(errors) == 1 and "states plus edges" in errors[0]
    assert elapsed < 5  # about 0.2 s, most of it interpreter start-up


@pytest.mark.parametrize("fault, message", [
    ("collapse", "standard and bounded:card semantics disagree"),
    ("bound-3", "game and compositional verdicts disagree")])
def test_eval_check_exits_13_on_an_engine_fault(m1_path, monkeypatch,
                                                capsys, fault, message):
    """``eval --check`` reruns the compositional engines: a bounded
    engine that drops a state at the collapse bound card(M) = 2, or that
    answers the complement at the requested bound 3, fails the check
    with exit 13, one error line and no verdict."""
    from mucheck import semantics
    real = semantics.eval_bounded

    def broken(model, sent, bound, *args):
        states = real(model, sent, bound, *args)
        if fault == "collapse" and bound == 2:
            return states - {sorted(states)[0]}
        if fault == "bound-3" and bound == 3:
            return frozenset(model.states) - states
        return states

    monkeypatch.setattr(semantics, "eval_bounded", broken)
    code, out, err = run(["eval", "--model", m1_path, "--formula",
                          "mu X. (p | []X)", "--state", "a", "--semantics",
                          "bounded:3", "--check"], capsys)
    errors = [line for line in err.splitlines() if "error:" in line]
    assert (code, out) == (13, "")
    assert errors == [f"error: self-check failed: {message}"]


def test_running_out_of_memory_is_a_resource_cap(tmp_path):
    """starN(150) at omega needs far more than 256 MiB of positions under
    the default position cap: the MemoryError exits 11, as a cap does,
    with one error line that suggests a lower --max-positions and does
    not claim that the position cap was hit."""
    path = tmp_path / "star150.json"
    save_model(generate_family("starN", 150), path)

    def limit_memory():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mucheck.cli", "eval", "--semantics",
         "omega", "--model", str(path), "--state", "w_0", "--formula",
         "nu X. [] mu Y. (<>Y | (p & X))"],
        capture_output=True, text=True, preexec_fn=limit_memory,
        timeout=120)
    elapsed = time.perf_counter() - t0
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert proc.returncode == 11 and proc.stdout == ""
    assert len(errors) == 1 and "memory ran out" in errors[0]
    assert "--max-positions" in errors[0]
    assert "position cap" not in errors[0]
    assert elapsed < 10  # about 1 s


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


# `mucheck play` sessions with scripted input, byte for byte: the exit
# code, then stdout (prompts, machine moves, the result), then stderr.
# "eloise" and "abelard" face a machine player that plays the solver's
# strategy; "eof" runs out of input at the first prompt.
GOLDEN_PLAY_CASES = {
    "eloise": ("star3", PHI_STAR, "w_0", "1", "eloise", "1\n" * 10),
    "abelard": ("star3", PHI_STAR, "w_0", "omega", "abelard", "1\n" * 14),
    "both": ("m1", "mu X. (p | []X)", "a", "2", "both",
             "1\n2\n1\n1\n1\n1\n1\n1\n"),
    "eof": ("m1", "mu X. (p | []X)", "a", "2", "eloise", ""),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_PLAY_CASES))
def test_play_output_is_pinned(case, m1_path, star3_path, monkeypatch,
                               capsys):
    model, formula, state, gamma, side, stdin = GOLDEN_PLAY_CASES[case]
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run(["play", "--model",
                          {"m1": m1_path, "star3": star3_path}[model],
                          "--formula", formula, "--state", state, "--gamma",
                          gamma, "--as", side], capsys)
    assert (f"exit: {code}\n--- stdout\n{out}--- stderr\n{err}"
            ).encode("utf-8") == golden_bytes(f"play_{case}.txt")


@pytest.mark.parametrize("moves", ["illegal", "absent"])
def test_a_faulty_machine_strategy_is_an_internal_error(
        moves, star3_path, monkeypatch, capsys):
    """The machine player's strategy names a move that is not legal, or
    none at all, at its first turn: play stops with one internal error,
    exit 70, never with a usage error or a verdict code."""
    from mucheck import cli
    from mucheck.game import EvalGame, Strategy

    class FaultyGame(EvalGame):
        def solve(self, mode="greedy"):
            winner, strategy = super().solve(mode)
            bad = {} if moves == "absent" else {
                pos: ("go-to-state", "nowhere") for pos in strategy.moves}
            return winner, Strategy(winner, bad)

    monkeypatch.setattr(cli, "EvalGame", FaultyGame)
    monkeypatch.setattr(sys, "stdin", io.StringIO("1\n" * 14))
    code, _, err = run(["play", "--model", star3_path, "--formula",
                        PHI_STAR, "--state", "w_0", "--gamma", "omega",
                        "--as", "abelard"], capsys)
    errors = [line for line in err.splitlines() if "error" in line]
    assert code == 70
    assert errors == [errors[0]] and errors[0].startswith(
        "error: internal: StrategyError: strategy ")


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


# `reduce --out -` and `gen` output, byte for byte: exit code, then stderr
# (the root: and positions: lines), then the exported JSON.  Recorded
# before model files were written without `json.dumps(..., indent=2)`;
# the files are compared as bytes because state names may hold control
# characters.
ODD_NAMES_MODEL = KripkeModel(
    ['a"b', "c\\d", "e\x01\x1f\tf\r\n", "\u00fc\u20ac\U0001f600", "x|y,z"],
    [('a"b', "c\\d"), ("c\\d", "e\x01\x1f\tf\r\n"),
     ("e\x01\x1f\tf\r\n", "\u00fc\u20ac\U0001f600"),
     ("\u00fc\u20ac\U0001f600", "x|y,z"), ("x|y,z", 'a"b')],
    {"p": ["x|y,z", "c\\d"], "q": ['a"b']})

GOLDEN_REDUCE_CASES = {
    "dagger3_numu_omega": (generate_family("daggerN", 3), "w_0",
                           "nu X. ([]X & mu Y. (p | <>Y))", "omega", False),
    "dagger2_eventually_auto": (generate_family("daggerN", 2), "w_0",
                                "mu X. (p | []X)", "auto", False),
    "chain2_eventually_2_tree": (generate_family("chain", 2), "w_0",
                                 "mu X. (p | []X)", "2", True),
    "one_state_p_1": (KripkeModel(["w"], [], {"p": ["w"]}), "w", "p", "1",
                      False),
    "odd_names_shadowed_binders_2": (
        ODD_NAMES_MODEL, 'a"b', "mu X. (q | <> nu X. (p & <>X) | []X)",
        "2", False),
}


def reduce_golden_output(case, tmp_path, capsys):
    model, state, formula, gamma, tree = GOLDEN_REDUCE_CASES[case]
    path = tmp_path / "model.json"
    save_model(model, path)
    argv = ["reduce", "--model", str(path), "--state", state, "--formula",
            formula, "--gamma", gamma, "--out", "-"]
    code, out, err = run(argv + ["--tree"] if tree else argv, capsys)
    return f"reduce_{case}.txt", f"{code}\n{err}{out}"


def gen_golden_output(capsys):
    code, out, err = run(["gen", "starN", "3"], capsys)
    return "gen_starN_3.txt", f"{code}\n{err}{out}"


def golden_bytes(name):
    import pathlib
    return (pathlib.Path(__file__).parent / "golden" / name).read_bytes()


@pytest.mark.parametrize("case", sorted(GOLDEN_REDUCE_CASES))
def test_reduce_output_is_pinned(case, tmp_path, capsys):
    name, out = reduce_golden_output(case, tmp_path, capsys)
    assert out.encode("utf-8") == golden_bytes(name)
    # --out FILE writes the same bytes and moves the info lines to stdout.
    model, state, formula, gamma, tree = GOLDEN_REDUCE_CASES[case]
    out_path = tmp_path / "reduced.json"
    argv = ["reduce", "--model", str(tmp_path / "model.json"), "--state",
            state, "--formula", formula, "--gamma", gamma, "--out",
            str(out_path)]
    code, info, err = run(argv + ["--tree"] if tree else argv, capsys)
    expected = golden_bytes(name).decode("utf-8")
    head, _, body = expected.partition("\n")
    assert (str(code), err) == (head, "")
    assert info + out_path.read_bytes().decode("utf-8") == body


def test_gen_output_is_pinned(tmp_path, capsys):
    name, out = gen_golden_output(capsys)
    assert out.encode("utf-8") == golden_bytes(name)
    out_path = tmp_path / "star3.json"
    code, info, _ = run(["gen", "starN", "3", "--out", str(out_path)],
                        capsys)
    assert code == 0 and info == f"wrote starN(3): 4 states -> {out_path}\n"
    assert out_path.read_bytes() == golden_bytes(name).partition(b"\n")[2]


# Help, usage and usage-error output of the parser, recorded while every
# call still built all five subparsers: a call that builds only its own
# command's parser must print exactly these bytes.
GOLDEN_CLI_CASES = {
    "help": ["--help"],
    "h_eval": ["-h", "eval"],
    **{f"{cmd}_help": [cmd, "--help"]
       for cmd in ("eval", "play", "reduce", "compare", "gen")},
    "no_args": [],
    "nonsense": ["nonsense"],
    "eval_no_state": ["eval", "--model", "m.json", "--formula", "p"],
    "eval_max_positions_0": ["eval", "--model", "m.json", "--formula", "p",
                             "--state", "a", "--max-positions", "0"],
    "eval_bogus": ["eval", "--model", "m.json", "--formula", "p", "--state",
                   "a", "--bogus"],
    "compare_workers_0": ["compare", "--workers", "0"],
}


def cli_golden_output(case, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(GOLDEN_CLI_CASES[case], capsys)
    return (f"cli_{case}.txt",
            f"exit: {code}\n--- stdout\n{out}--- stderr\n{err}")


@pytest.mark.parametrize("case", sorted(GOLDEN_CLI_CASES))
def test_cli_help_and_usage_output_is_pinned(case, monkeypatch, capsys):
    name, out = cli_golden_output(case, monkeypatch, capsys)
    assert out.encode("utf-8") == golden_bytes(name)


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


def test_cli_import_leaves_multiprocessing_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mucheck.cli; "
         "print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_module_invocation(tmp_path):
    model = tmp_path / "m.json"
    save_model(generate_family("chain", 1), model)
    proc = subprocess.run(
        [sys.executable, "-m", "mucheck.cli", "eval", "--model", str(model),
         "--formula", "<> p", "--state", "w_0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "true"
