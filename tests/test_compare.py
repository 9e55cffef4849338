"""The agreement harness itself: self-tests and counterexample machinery."""

from mucheck import compare, corpus, semantics
from mucheck.semantics import OMEGA


def small_sentences():
    return corpus.all_sentences(3, 1)[::4] + corpus.random_sentences(6, 1, 7, 2)


def test_main_sweep_all_pass():
    tallies = compare.run_main_sweep(small_sentences(), max_states=2,
                                     gammas=(1, 2, OMEGA), workers=1)
    for name, tally in tallies.items():
        assert tally.failures == 0, name
        assert tally.instances > 0, name


def test_broken_bounded_engine_is_caught(monkeypatch):
    """Harness self-test: a deliberately wrong engine must produce failures
    and a counterexample."""
    real = semantics.eval_bounded

    def broken(model, sent, bound, node=0, assignment=None):
        out = real(model, sent, bound, node, assignment)
        if bound == 2:  # flip one state's verdict
            first = model.states[0]
            return out ^ frozenset({first})
        return out

    monkeypatch.setattr(semantics, "eval_bounded", broken)
    tallies = compare.run_main_sweep(small_sentences()[:10], max_states=1,
                                     gammas=(2,), workers=1)
    tally = tallies["game-vs-bounded"]
    assert tally.failures > 0
    assert tally.cex is not None
    assert tally.cex["property"] == "game-vs-bounded"


def test_broken_game_rule_is_caught(monkeypatch):
    from mucheck.game import EvalGame, _WON_A, _WON_E
    from mucheck import formula as F
    real = EvalGame._status

    def broken(self, ipos):
        st = real(self, ipos)
        if self._kind[ipos[1]] == F.NEGPROP:  # negated literals lie
            return _WON_E if st == _WON_A else _WON_A if st == _WON_E else st
        return st

    monkeypatch.setattr(EvalGame, "_status", broken)
    tallies = compare.run_main_sweep(small_sentences()[:12], max_states=1,
                                     gammas=(1, 2), workers=1)
    assert tallies["game-vs-bounded"].failures > 0


def test_minimizer_shrinks_counterexample(monkeypatch):
    real = semantics.eval_bounded

    def broken(model, sent, bound, node=0, assignment=None):
        out = real(model, sent, bound, node, assignment)
        if bound == 2:
            return out ^ frozenset({model.states[0]})
        return out

    monkeypatch.setattr(semantics, "eval_bounded", broken)
    tallies = compare.run_main_sweep(small_sentences()[:10], max_states=2,
                                     gammas=(2,), workers=1)
    cex = tallies["game-vs-bounded"].cex
    assert cex is not None
    smaller = compare.minimize_counterexample(cex)
    assert len(smaller["model"]["edges"]) <= len(cex["model"]["edges"])
    # the minimized instance still reproduces the disagreement
    assert not compare._recheck(smaller)


def test_ar_sweep_small():
    tallies = compare.run_ar_sweep(max_states=2, workers=1)
    for name in ("ar-chi", "fbounded-chi", "fbounded-decrements"):
        assert tallies[name].failures == 0
        assert tallies[name].instances > 0


def test_mode_sweep_small():
    sents = corpus.all_sentences(2, 1)
    tallies = compare.run_mode_sweep(sents, max_states=2, gammas=(1, 2),
                                     workers=1)
    assert tallies["greedy-exhaustive"].failures == 0
    assert tallies["canonical-fullmap"].failures == 0


def test_fullmap_winner_matches_solver(m1, afp):
    from mucheck.game import EvalGame
    for gamma in (1, 2, 3):
        for w in m1.states:
            assert compare.fullmap_winner(m1, w, afp, gamma) \
                == EvalGame(m1, w, afp, gamma).solve("exhaustive")[0]


def test_normalize_checks_pass():
    sents = corpus.random_sentences(6, 2, 8, 2)
    models = [corpus.random_model(__import__("random").Random(4), 2)]
    tallies = compare.run_normalize_checks(sents, models)
    assert tallies["normalize-soundness"].failures == 0


def test_sampled_larger_models_deterministic():
    sents = small_sentences()[:6]
    a = compare.run_main_sweep(sents, max_states=4, gammas=(1, 2),
                               workers=1, seed=7, samples_per_size=5)
    b = compare.run_main_sweep(sents, max_states=4, gammas=(1, 2),
                               workers=1, seed=7, samples_per_size=5)
    for name in a:
        assert (a[name].instances, a[name].failures) \
            == (b[name].instances, b[name].failures)
        assert a[name].failures == 0


def test_broken_engine_fails_compare_cli(monkeypatch, capsys):
    from mucheck.cli import main
    real = semantics.eval_bounded

    def broken(model, sent, bound, node=0, assignment=None):
        out = real(model, sent, bound, node, assignment)
        if bound == 2:
            return out ^ frozenset({model.states[0]})
        return out

    monkeypatch.setattr(semantics, "eval_bounded", broken)
    code = main(["compare", "--max-states", "1", "--max-nodes", "2",
                 "--random-count", "2", "--gammas", "2",
                 "--ar-max-states", "1", "--workers", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "counterexample" in out


def test_run_compare_report_and_budget():
    report = compare.run_compare(max_states=1, max_nodes=2, random_count=4,
                                 gammas=(1, 2), ar_max_states=1,
                                 mode_max_nodes=1, mode_random=2,
                                 mode_extra_models=1, workers=1)
    assert report.all_passed()
    text = report.format_text()
    assert "game-vs-bounded" in text
    data = report.to_json_dict()
    assert data["all_passed"] is True
    # an exhausted budget yields a partial report
    partial = compare.run_compare(max_states=1, max_nodes=2, random_count=4,
                                  gammas=(1, 2), ar_max_states=1,
                                  mode_max_nodes=1, mode_random=2,
                                  mode_extra_models=1, workers=1,
                                  budget=0.0)
    assert partial.caps_hit


# ---------------------------------------------------------------------------
# The sweep kernel: one tagged graph, every clock bound at once.

def _kernel_instances():
    from mucheck import formula as F
    from mucheck.kripke import generate_family
    out = [(generate_family("starN", 3),
            F.parse("nu X. [] mu Y. (<>Y | (p & X))")),
           (generate_family("chain", 2),
            F.parse("nu X. ([]X & mu Y. (p | <>Y))")),
           (generate_family("daggerN", 2), F.parse("mu X. (p | []X)"))]
    models = list(corpus.all_models(2))[::53]
    for sent in (corpus.all_sentences(4, 1)[::41]
                 + corpus.random_sentences(3, 5, 9, 2)):
        out.extend((m, sent) for m in models)
    return out


def _kernel(model, sent, gammas):
    """The sweep's tagged graph and its bit layout: bit b < len(gammas) is
    gammas[b], the last bit the collapse bound max(1, card)."""
    from mucheck import reduction
    from mucheck.game import EvalGame
    bounds = list(gammas) + [max(1, model.card)]
    caps = [compare._cap_for(g, model) for g in bounds]
    game = EvalGame(model, model.states[0], sent, OMEGA)
    graph = game._explore(model.states,
                          binder_choices=tuple(range(max(caps) - 1, -1, -1)))
    p_flags, q_flags = reduction._position_valuation(game, graph)
    inits = [graph.pos_id[(si, 0, ())] for si in range(model.card)]
    return bounds, caps, graph, p_flags, q_flags, inits


def test_kernel_agrees_with_per_bound_solving():
    from mucheck import reduction
    from mucheck.game import ELOISE, EvalGame, _E
    gammas = (1, 2, 3, OMEGA)
    checked = 0
    for model, sent in _kernel_instances():
        bounds, caps, graph, p_flags, q_flags, inits = _kernel(
            model, sent, gammas)
        win, ar, diff = compare._replay(graph, caps, p_flags, q_flags)
        bad = compare._playouts(graph, caps, win, inits)
        assert diff == 0 and bad == 0
        for b, bound in enumerate(bounds):
            for si, init in enumerate(inits):
                w = model.states[si]
                game = EvalGame(model, w, sent, bound)
                alone = game._explore([w])
                eloise = alone.winners()[alone.pos_id[(si, 0, ())]] == _E
                assert bool(win[init] >> b & 1) == eloise
                reduced = reduction.build_position_model(model, w, sent,
                                                         bound)
                assert bool(ar[init] >> b & 1) == reduction.solve_ar(
                    reduced.model, reduced.root)
                winner, strategy = game.solve("exhaustive")
                assert (winner == ELOISE) == eloise
                game.validate_strategy(winner, strategy)
                checked += 1
    assert checked > 100


def test_playout_pass_catches_a_wrong_winner():
    """A winner mask naming the loser at one start must fail exactly that
    playout; a pass that never fails would otherwise go unnoticed."""
    flipped = 0
    for model, sent in _kernel_instances()[:8]:
        _, caps, graph, p_flags, q_flags, inits = _kernel(
            model, sent, (1, 2, OMEGA))
        win, _, _ = compare._replay(graph, caps, p_flags, q_flags)
        nb = len(caps)
        for si, init in enumerate(inits):
            for b in range(nb):
                wrong = list(win)
                wrong[init] ^= 1 << b
                bad = compare._playouts(graph, caps, wrong, inits)
                assert bad >> (si * nb + b) & 1
                flipped += 1
    assert flipped > 0


def test_replay_consistency_bit_catches_ar_mismatch():
    """Marking a position p_B where Abelard wins makes AR differ from the
    winners there, under exactly the caps where Abelard wins."""
    hits = 0
    for model, sent in _kernel_instances()[:8]:
        _, caps, graph, p_flags, q_flags, _ = _kernel(
            model, sent, (1, 2, OMEGA))
        win, _, diff = compare._replay(graph, caps, p_flags, q_flags)
        assert diff == 0
        full = (1 << len(caps)) - 1
        for i in range(len(graph)):
            if win[i] != full and not p_flags[i]:
                wrong = list(p_flags)
                wrong[i] = True
                _, _, diff = compare._replay(graph, caps, wrong, q_flags)
                assert diff & ~win[i] & full == ~win[i] & full
                hits += 1
                break
    assert hits > 0


def test_fbounded_shared_graph_matches_per_state_solves():
    from mucheck import reduction, variants
    from mucheck.game import ELOISE, _E
    chi = reduction.chi()
    codes = (list(corpus.all_model_codes(2, corpus.AR_PROPS))[::37]
             + list(corpus.all_model_codes(3, corpus.AR_PROPS))[::4099])
    models = [corpus.model_from_code(*code, corpus.AR_PROPS)
              for code in codes]
    assert len(models) > 5
    for model in models:
        game = variants.FBoundedGame(model, model.states[0], chi, 1)
        unit = game._explore(model.states, True, True)
        full = game._explore(model.states)
        unit_win, full_win = unit.winners(), full.winners()
        for si, w in enumerate(model.states):
            start = (si, 0, game.f, game.f)
            for graph, win, mode in ((unit, unit_win, "greedy"),
                                     (full, full_win, "exhaustive")):
                verdict, _ = variants.solve_fbounded(model, w, chi, 1,
                                                     mode=mode)
                assert (win[graph.pos_id[start]] == _E) \
                    == (verdict == ELOISE)


# ---------------------------------------------------------------------------
# Rechecks: a crash is not the property failing.

def _flip_bound_two(monkeypatch):
    real = semantics.eval_bounded

    def broken(model, sent, bound, node=0, assignment=None):
        out = real(model, sent, bound, node, assignment)
        if bound == 2:
            return out ^ frozenset({model.states[0]})
        return out

    monkeypatch.setattr(semantics, "eval_bounded", broken)
    return broken


def test_recheck_propagates_crashes_and_minimizer_rejects_them(m1,
                                                              monkeypatch):
    import pytest
    broken = _flip_bound_two(monkeypatch)

    def crashing(model, sent, bound, node=0, assignment=None):
        if len(model.relation) < len(m1.relation):
            raise RuntimeError("engine crash on a smaller model")
        return broken(model, sent, bound, node, assignment)

    monkeypatch.setattr(semantics, "eval_bounded", crashing)
    cex = {"property": "game-vs-bounded", "model": m1.to_json_dict(),
           "formula": "mu X. (p | [] X)", "gamma": "2", "state": "a"}
    assert compare._recheck(cex) is False
    trial = dict(cex, model=dict(cex["model"],
                                 edges=cex["model"]["edges"][1:]))
    with pytest.raises(RuntimeError):
        compare._recheck(trial)
    smaller = compare.minimize_counterexample(cex)
    # no edge could go without crashing the engine, so none went
    assert len(smaller["model"]["edges"]) == len(m1.relation)
    assert compare._recheck(smaller) is False


def test_recheck_reads_a_losing_strategy_as_failure(m1, monkeypatch):
    from mucheck.game import EvalGame, StrategyError

    def losing(self, winner, strategy):
        raise StrategyError("strategy reached a position lost")

    monkeypatch.setattr(EvalGame, "validate_strategy", losing)
    cex = {"property": "strategy-playouts", "model": m1.to_json_dict(),
           "formula": "mu X. (p | [] X)", "gamma": "2", "state": "a"}
    assert compare._recheck(cex) is False
