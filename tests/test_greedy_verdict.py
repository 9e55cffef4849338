"""A greedy verdict is one solve; the strategy's re-solve runs on read.

Greedy ``solve()`` answers from one depth-first search of the game where
both players make only the largest clock or counter choice.  The
one-sided re-solve, its agreement check and the two-counter game's
position bound run the first time the strategy is read.  These tests
count the searches, inject faults into the deferred half, hold the
verdicts of the one search to the compositional bounded semantics, and
validate both modes' strategies on random instances.
"""

import io
import json
import random
import sys

import pytest

from mucheck import formula as F
from mucheck.cli import main
from mucheck.compare import _sentence_vocab
from mucheck.corpus import (all_models, all_sentences, random_model,
                            random_sentence, random_sentences)
from mucheck.game import ELOISE, EvalGame, GameCore, _Graph, first_move_player
from mucheck.kripke import generate_family, save_model
from mucheck.semantics import OMEGA, eval_bounded
from mucheck.variants import FBoundedGame

PHI_STAR = "nu X. [] mu Y. (<>Y | (p & X))"
NU_MU = "nu X. ([]X & mu Y. (p | <>Y))"


@pytest.fixture
def searches(monkeypatch):
    """The winner lists of the ``_Graph.solve`` calls run in the test."""
    calls = []
    real = _Graph.solve

    def spy(self, roots, *explorer):
        win, pick = real(self, roots, *explorer)
        calls.append(win)
        return win, pick
    monkeypatch.setattr(_Graph, "solve", spy)
    return calls


@pytest.mark.parametrize("semantics", ["bounded:2", "fbounded:1"])
@pytest.mark.parametrize("mode, flags, expected", [
    ("greedy", [], 1), ("greedy", ["--strategy"], 2),
    ("greedy", ["--trace"], 2), ("greedy", ["--strategy", "--trace"], 2),
    ("exhaustive", [], 1), ("exhaustive", ["--strategy", "--trace"], 1)])
def test_eval_solves_twice_only_when_the_strategy_is_read(
        searches, tmp_path, capsys, m1, semantics, mode, flags, expected):
    path = tmp_path / "m1.json"
    save_model(m1, path)
    code = main(["eval", "--model", str(path), "--state", "a",
                 "--formula", PHI_STAR, "--semantics", semantics,
                 "--mode", mode, "--json"] + flags)
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["verdict"] == "true"
    assert len(searches) == expected


def test_play_solves_twice(searches, tmp_path, capsys, monkeypatch, m1,
                           phi_star):
    game = EvalGame(m1, "a", phi_star, 2)
    _, strategy = game.solve()
    assert len(searches) == 1
    assert game.play(strategy, first_move_player).winner == ELOISE
    assert len(searches) == 2
    # The play command reads the strategy before its first prompt.
    del searches[:]
    path = tmp_path / "m1.json"
    save_model(m1, path)
    monkeypatch.setattr(sys, "stdin", io.StringIO("1\n" * 10))
    code = main(["play", "--model", str(path), "--formula", PHI_STAR,
                 "--state", "a", "--gamma", "2", "--as", "abelard"])
    assert "Eloise wins" in capsys.readouterr().out
    assert code == 0 and len(searches) == 2


def test_a_disagreeing_refinement_fails_on_the_first_read(monkeypatch, m1,
                                                          phi_star):
    """The one-sided re-solve is made to report the other winner."""
    real = _Graph.solve
    count = []

    def flip_second(self, roots, *explorer):
        win, pick = real(self, roots, *explorer)
        count.append(1)
        if len(count) == 2:
            win[0] = 1 - win[0]
        return win, pick
    monkeypatch.setattr(_Graph, "solve", flip_second)
    game = EvalGame(m1, "a", phi_star, 2)
    winner, strategy = game.solve()
    assert winner == ELOISE and len(count) == 1
    with pytest.raises(RuntimeError, match="greedy policy disagreed"):
        len(strategy)


def test_the_fbounded_bound_is_checked_after_the_refinement():
    """chain(3) at fbounded:1: the greedy search numbers 52 positions and
    the one-sided re-solve 1,149.  A bound tightened to the first count
    passes the solve and fails when the strategy is read."""
    model = generate_family("chain", 3)
    game = FBoundedGame(model, "w_0", F.parse(NU_MU), 1)
    game.solve()
    first = game.last_explored
    game = FBoundedGame(model, "w_0", F.parse(NU_MU), 1)
    game._position_limit = first
    winner, strategy = game.solve()
    assert winner == ELOISE and game.last_explored == first == 52
    with pytest.raises(RuntimeError, match="bound 52"):
        len(strategy)
    assert game.last_explored == 1149
    # One position fewer fails the solve itself.
    game = FBoundedGame(model, "w_0", F.parse(NU_MU), 1)
    game._position_limit = first - 1
    with pytest.raises(RuntimeError, match="bound 51"):
        game.solve()


def test_greedy_verdicts_equal_the_bounded_semantics(monkeypatch):
    """Every sentence of up to 3 nodes and 1 binder, on every 1-2 state
    model over the propositions it mentions, from every state, at clock
    bounds 1-3 and omega: the greedy solve's winner, with no strategy
    read, is the bounded compositional verdict."""

    def no_refinement(self, graph, win_code):
        raise AssertionError("a verdict ran the one-sided re-solve")
    monkeypatch.setattr(GameCore, "_refined_search", no_refinement)
    instances = 0
    for sent in all_sentences(3, 1):
        for model in all_models(2, tuple(sorted(_sentence_vocab(sent)))):
            for bound in (1, 2, 3, OMEGA):
                truth = eval_bounded(model, sent, bound)
                for state in model.states:
                    winner, _ = EvalGame(model, state, sent, bound).solve()
                    assert (winner == ELOISE) == (state in truth), \
                        (F.render(sent), model.to_json_dict(), state, bound)
                    instances += 1
    assert instances == 78_992


THREE_BINDERS = "mu X. nu Y. mu Z. (Y & (<>Z | q | X))"


def test_verdicts_at_three_binders_equal_the_bounded_semantics():
    """Alternation depth three, where a greedy label must reset the clocks
    of the binders inside its own: the sentence above on every 1-2 state
    model over {q}, and six seeded random sentences with three binders
    and three labels on a seeded random 2- and 3-state model each, from
    every state, at bounds 2, 3 and omega.  Greedy and exhaustive winners
    are the bounded compositional verdict."""
    cases = [(F.parse(THREE_BINDERS), model)
             for model in all_models(2, ("q",))]
    rng = random.Random(3)
    sents = []
    while len(sents) < 6:
        sent = random_sentence(rng, 12, 3)
        if (sum(kind in F.BINDER_KINDS for kind in sent.kind) == 3
                and sent.kind.count(F.LABEL) >= 3):
            sents.append(sent)
    cases += [(sent, random_model(rng, n)) for sent in sents for n in (2, 3)]
    instances = 0
    for sent, model in cases:
        for bound in (2, 3, OMEGA):
            truth = eval_bounded(model, sent, bound)
            for state in model.states:
                for mode in ("greedy", "exhaustive"):
                    winner, _ = EvalGame(model, state, sent,
                                         bound).solve(mode)
                    assert (winner == ELOISE) == (state in truth), (
                        F.render(sent), model.to_json_dict(), state,
                        bound, mode)
                    instances += 1
    assert instances == 792 + 6 * (2 + 3) * 3 * 2


def test_printed_strategies_validate_on_random_instances():
    """What ``eval --strategy`` prints, on 150 seeded random sentences with
    up to three binders and four seeded random 2-4 state models: at bounds
    2, 3 and omega each mode's winner is the bounded compositional verdict
    and its strategy wins every opponent playout; at ``fbounded:1`` greedy
    and exhaustive name the same winner and both strategies validate.  A
    greedy strategy is the one-sided re-solve's, so a fault that only
    breaks the moves greedy play makes shows here even where every
    verdict stays right."""
    rng = random.Random(1)
    models = [random_model(rng, rng.randint(2, 4)) for _ in range(4)]
    games = 0
    for sent in random_sentences(150, 1, 9, 3):
        for model in models:
            start = model.states[0]
            case = (F.render(sent), model.to_json_dict())
            for bound in (2, 3, OMEGA):
                truth = start in eval_bounded(model, sent, bound)
                for mode in ("greedy", "exhaustive"):
                    game = EvalGame(model, start, sent, bound)
                    winner, strategy = game.solve(mode)
                    assert (winner == ELOISE) == truth, case + (bound, mode)
                    game.validate_strategy(winner, strategy)
                    games += 1
            winners = set()
            for mode in ("greedy", "exhaustive"):
                game = FBoundedGame(model, start, sent, 1)
                winner, strategy = game.solve(mode)
                game.validate_strategy(winner, strategy)
                winners.add(winner)
                games += 1
            assert len(winners) == 1, case
    assert games == 150 * 4 * (3 + 1) * 2
