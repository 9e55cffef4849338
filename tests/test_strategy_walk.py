"""The solver's strategy is walked only when it is read.

``GameCore._solve`` returns a ``Strategy`` that keeps the finished
search (positions, statuses, rows, picks and the winner code) and runs
``game._strategy_walk`` over it the first time the strategy is read.
These tests count the walks with a spy, hold the lazily walked strategy
to the whole-graph reference of ``tests/test_refinement.py``, and check
that the strategy lets go of the graph once it has walked it.
"""

import gc
import json

import pytest

from test_refinement import _first_winning_moves, _games

from mucheck import game as G
from mucheck.cli import main
from mucheck.game import (EvalGame, Strategy, StrategyError, _Graph,
                          first_move_player)
from mucheck.kripke import save_model
from mucheck.variants import FBoundedGame

MODES = ("greedy", "exhaustive")


@pytest.fixture
def walks(monkeypatch):
    """The list of strategy walks run while the test runs."""
    calls = []
    real = G._strategy_walk

    def spy(*search):
        walk = real(*search)
        calls.append(walk)
        return walk
    monkeypatch.setattr(G, "_strategy_walk", spy)
    return calls


@pytest.mark.parametrize("mode", MODES)
def test_solve_does_not_walk(walks, m1, phi_star, mode):
    winner, strategy = EvalGame(m1, "a", phi_star, 2).solve(mode)
    assert winner == strategy.player
    assert FBoundedGame(m1, "a", phi_star, 1).solve(mode)[0] == winner
    assert walks == []


@pytest.mark.parametrize("flags, expected", [
    ([], 0), (["--strategy"], 1), (["--trace"], 1),
    (["--strategy", "--trace"], 1)])
def test_eval_walks_only_for_strategy_or_trace(walks, tmp_path, capsys, m1,
                                               flags, expected):
    path = tmp_path / "m1.json"
    save_model(m1, path)
    for semantics in ("bounded:2", "fbounded:1"):
        del walks[:]
        code = main(["eval", "--model", str(path), "--state", "a",
                     "--formula", "nu X. [] mu Y. (<>Y | (p & X))",
                     "--semantics", semantics, "--json"] + flags)
        data = json.loads(capsys.readouterr().out)
        assert code == 0 and data["positions"] > 0
        assert len(walks) == expected


def _lookup(strategy, pos):
    try:
        return strategy[pos]
    except StrategyError:  # the start is the loser's move
        return None


def _reads(game, strategy):
    """One read of the strategy per accessor and game method."""
    start = game.initial_position()
    return {
        "len": lambda: len(strategy),
        "repr": lambda: repr(strategy),
        "moves": lambda: strategy.moves,
        "getitem": lambda: _lookup(strategy, start),
        "contains": lambda: start in strategy,
        "play": lambda: game.play(strategy, first_move_player),
        "validate_strategy": lambda: game.validate_strategy(
            strategy.player, strategy),
    }


@pytest.mark.parametrize("read", ["len", "repr", "moves", "getitem",
                                  "contains", "play", "validate_strategy"])
def test_each_read_walks_exactly_once(walks, m1, afp, read):
    """``mu X. (p | []X)`` at ``a``: Eloise wins, and ``a`` is her move."""
    game = EvalGame(m1, "a", afp, 2)
    _, strategy = game.solve()
    reads = _reads(game, strategy)
    reads[read]()
    assert len(walks) == 1
    for again in reads.values():
        again()
    assert len(walks) == 1


@pytest.mark.parametrize("mode", MODES)
def test_lazy_walk_is_the_first_winning_move_of_the_whole_graph(walks, mode):
    """Whichever read comes first, the strategy is the reference one."""
    for n, game in enumerate(_games()):
        greedy = mode == "greedy"
        graph = game._explore([game.start], greedy, greedy)
        win = graph.winners()[0]
        if greedy:
            game._refine(graph, win)
        expected = _first_winning_moves(game, graph, win)
        del walks[:]
        _, strategy = game.solve(mode)
        reads = _reads(game, strategy)
        first = list(reads)[n % len(reads)]
        reads[first]()
        assert len(walks) == 1
        assert len(strategy) == len(expected)
        assert list(strategy.moves.items()) == list(expected.items())


def test_strategy_drops_the_graph_after_the_walk(monkeypatch, m1, phi_star):
    searches = []
    real = _Graph.solve

    def spy(self, roots, expand=None):
        win, pick = real(self, roots, expand)
        searches.append((self, pick))
        return win, pick
    monkeypatch.setattr(_Graph, "solve", spy)
    _, strategy = EvalGame(m1, "a", phi_star, 2).solve()
    graph, pick = searches[-1]
    held = [graph.pos_list, graph.status, graph.succs, pick]

    def refers(obj):
        return [any(r is h for r in gc.get_referents(obj)) for h in held]

    assert strategy._search is not None
    assert refers(strategy._search) == [True] * 4
    assert not any(r is graph.pos_id for r in gc.get_referents(
        strategy._search))
    len(strategy)
    assert strategy._search is None
    assert refers(strategy) == [False] * 4


def test_a_given_moves_dict_is_never_walked(walks, m1, afp):
    game = EvalGame(m1, "a", afp, 2)
    _, solved = game.solve()
    given = Strategy(solved.player, dict(solved.moves))
    del walks[:]
    assert len(given) == len(solved)
    assert game.validate_strategy(given.player, given) > 0
    assert walks == []


def test_fault_in_the_search_surfaces_on_read(monkeypatch, m1, afp):
    """A pick cleared after the search makes the walk fail when read."""
    real = _Graph.solve

    def no_picks(self, roots, expand=None):
        win, pick = real(self, roots, expand)
        pick[:] = [-1] * len(pick)
        return win, pick
    monkeypatch.setattr(_Graph, "solve", no_picks)
    _, strategy = EvalGame(m1, "a", afp, 2).solve()
    with pytest.raises(RuntimeError, match="no winning move"):
        repr(strategy)
