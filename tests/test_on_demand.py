"""The solver explores on demand.

``GameCore._solve`` builds a position's row the first time its
depth-first search enters that position, and in greedy mode, when the
strategy is first read, reopens the loser's decision rows and solves
again on the same graph.  These tests hold it to the whole-graph
reference: explore everything (under the one-sided policy in greedy
mode), solve every position, and read the first winning moves.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_refinement import _first_winning_moves

from mucheck import formula as F
from mucheck.cli import main
from mucheck.corpus import random_ar_model, random_model, random_sentence
from mucheck.game import (EvalGame, GameLimitError, _A, _E, _Graph,
                          _UNSET)
from mucheck.kripke import save_model
from mucheck.reduction import chi, solve_ar
from mucheck.semantics import OMEGA
from mucheck.variants import FBoundedGame

BOUNDS = (1, 2, 3, 4, OMEGA)


def _spy_solve(monkeypatch):
    """Record the graph and winners of every ``_Graph.solve`` call."""
    calls = []
    real = _Graph.solve

    def spy(self, roots, *explorer):
        win, pick = real(self, roots, *explorer)
        calls.append((self, win))
        return win, pick
    monkeypatch.setattr(_Graph, "solve", spy)
    return calls


def _whole_graph(game, mode):
    """The whole one-sided (greedy) or exhaustive graph and its winners.
    The one-sided graph is explored afresh under the policy that keeps
    the winner greedy, which ``tests/test_refinement.py`` holds equal to
    the greedy graph with the loser's decisions reopened and expanded
    (``_reopen`` plus ``_build_rows``), so no reopen code is shared with
    the solver."""
    greedy = mode == "greedy"
    graph = game._explore([game.start], greedy, greedy)
    if greedy:
        win = graph.winners()[0]
        graph = game._explore([game.start], win == _E, win == _A)
    return graph, graph.winners()


def _assert_matches_whole_graph(game, mode, monkeypatch):
    graph, winners = _whole_graph(game, mode)
    expected = _first_winning_moves(game, graph, winners[0])
    calls = _spy_solve(monkeypatch)
    winner, strategy = game.solve(mode)
    len(strategy)  # greedy mode's one-sided re-solve runs on first read
    monkeypatch.undo()
    assert winner == ("Eloise", "Abelard")[winners[0]]
    assert list(strategy.moves.items()) == list(expected.items())
    lazy, win = calls[-1]
    assert game.last_explored == len(lazy) == len(win) <= len(graph)
    ref_id = graph.pos_id
    for i, p in enumerate(lazy.pos_list):
        r = ref_id[p]
        assert lazy.status[i] == graph.status[r]
        row = lazy.succs[i]
        if row is not None:
            assert [lazy.pos_list[j] for j in row] == \
                [graph.pos_list[j] for j in graph.succs[r]]
        if win[i] != _UNSET:
            assert win[i] == winners[r]


@settings(max_examples=200)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.sampled_from(BOUNDS),
       st.sampled_from(["greedy", "exhaustive"]))
def test_on_demand_solve_matches_the_whole_graph(seed, card, bound, mode):
    rng = random.Random(seed)
    model = random_model(rng, card)
    sent = F.normalize(random_sentence(rng, 12, 3))
    start = model.states[0]
    games = [EvalGame(model, start, sent, bound)]
    fb = FBoundedGame(model, start, sent, 1)
    if fb.f <= 27:  # keep the two-counter graphs small
        games.append(fb)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for game in games:
            _assert_matches_whole_graph(game, mode, monkeypatch)


@pytest.mark.parametrize("mode", ["greedy", "exhaustive"])
def test_on_demand_search_raises_on_a_cycle(monkeypatch, m1, mode):
    """A label row that leads back to the root closes a cycle, which the
    search meets on its first label position: under every choice the
    decision row's extra first move, and in greedy mode the jump table's
    one move."""
    sent = F.parse("mu X. []X")
    game = EvalGame(m1, "a", sent, 2)
    root = game._root(0)
    real = EvalGame._decision_row

    def looping(self, p, node):
        return [root - p] + list(real(self, p, node))

    def jump_to_root(self, node):
        return 1, root  # the one successor p % 1 + root
    monkeypatch.setattr(EvalGame, "_decision_row", looping)
    monkeypatch.setattr(EvalGame, "_label_jump", jump_to_root)
    with pytest.raises(RuntimeError, match="cycle"):
        game.solve(mode)


def test_strategy_walk_never_expands(monkeypatch, m1, phi_star):
    """The walk reads only rows the search built; an unset row on it is an
    error, not a place to explore, when the strategy is read."""
    real = _Graph.solve

    def forgetful(self, roots, *explorer):
        result = real(self, roots, *explorer)
        for i in range(1, len(self.succs)):
            if self.succs[i]:
                self.succs[i] = None
        return result
    monkeypatch.setattr(_Graph, "solve", forgetful)
    _, strategy = EvalGame(m1, "a", phi_star, 2).solve("exhaustive")
    with pytest.raises(RuntimeError, match="unexplored"):
        len(strategy)


def _chi_model():
    """A seed-picked 12-state AR model on which the on-demand greedy solve
    of chi at fbounded:1 explores more than a few positions, yet fewer
    than half of those the whole greedy graph holds."""
    rng = random.Random("on-demand cap")
    for _ in range(10):  # the second draw qualifies
        model = random_ar_model(rng, 12)
        game = FBoundedGame(model, model.states[0], chi(), 1)
        game.solve()
        lazy = game.last_explored
        whole = len(game._explore([game.start], True, True))
        if 100 < lazy and 2 * lazy < whole:
            return model, lazy, whole
    pytest.fail("the solve explored half the whole graph or more on "
                "every drawn model")


def test_cap_counts_the_positions_explored_on_demand(tmp_path, capsys):
    model, lazy, whole = _chi_model()
    cap = (lazy + whole) // 2
    start = model.states[0]
    # Whole-graph exploration trips this cap; the on-demand solve does not.
    with pytest.raises(GameLimitError):
        FBoundedGame(model, start, chi(), 1, max_positions=cap)._explore(
            [start], True, True)
    path = tmp_path / "ar12.json"
    save_model(model, path)
    code = main(["eval", "--model", str(path), "--state", start,
                 "--formula", F.render(chi()), "--semantics", "fbounded:1",
                 "--max-positions", str(cap), "--json"])
    capsys.readouterr()
    assert code == (0 if solve_ar(model, start) else 1)
    # One position fewer than the search needs still trips it.
    with pytest.raises(GameLimitError):
        FBoundedGame(model, start, chi(), 1, max_positions=lazy - 1).solve()

