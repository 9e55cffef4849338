"""Greedy solving refines its greedy graph in place.

A greedy solve explores the game where both players make only the
largest clock or counter choice; when its strategy is read, it extends
that graph so that every choice stays open to the loser.  The extended
graph must be the graph a fresh exploration under the same one-sided
policy finds.
"""

import random

import pytest

from mucheck import formula as F
from mucheck.cli import EXIT_CAP, main
from mucheck.corpus import random_ar_model
from mucheck.game import (EvalGame, GameLimitError, _A, _E, _TURN_A,
                          _TURN_E, _WON_A, _WON_E)
from mucheck.kripke import generate_family, save_model
from mucheck.reduction import chi, solve_ar
from mucheck.semantics import OMEGA
from mucheck.variants import FBoundedGame

PHI_STAR = "nu X. [] mu Y. (<>Y | (p & X))"
NU_MU = "nu X. ([]X & mu Y. (p | <>Y))"
THREE = "mu Z. nu X. [] mu Y. ((<>Y & q) | (p & X) | <>Z)"


def _shape(graph):
    """Per position: its successor positions in row order, and its winner."""
    pos = graph.pos_list
    winners = graph.winners()
    return {pos[i]: (tuple(pos[j] for j in row), winners[i])
            for i, row in enumerate(graph.succs)}


def _ar_models():
    """One 12-state AR model on which chi holds at the first state, and one
    on which it fails."""
    rng = random.Random("refine")
    picked = {}
    while len(picked) < 2:
        model = random_ar_model(rng, 12)
        picked.setdefault(solve_ar(model, model.states[0]), model)
    return [picked[True], picked[False]]


def _games():
    for family, n, formula, bound in (
            ("starN", 4, PHI_STAR, OMEGA),
            ("clique", 2, THREE, OMEGA),
            ("chain", 5, NU_MU, OMEGA),
            ("daggerN", 3, THREE, 3)):
        model = generate_family(family, n)
        yield EvalGame(model, "w_0", F.parse(formula), bound)
    yield FBoundedGame(generate_family("chain", 5), "w_0", F.parse(NU_MU), 1)
    for model in _ar_models():
        yield FBoundedGame(model, model.states[0], chi(), 1)


def test_refined_graph_is_a_fresh_one_sided_exploration():
    grew = 0
    for game in _games():
        graph = game._explore([game.start], True, True)
        greedy_size = len(graph)
        win = graph.winners()[0]
        policy = (win == _E, win == _A)
        game._build_rows(graph, game._reopen(graph, *policy), *policy)
        fresh = game._explore([game.start], win == _E, win == _A)
        assert len(graph) == len(fresh)
        assert graph.pos_list[0] == fresh.pos_list[0]
        assert _shape(graph) == _shape(fresh)
        grew += len(graph) > greedy_size
    # chain(5) under both games: the loser's choices add positions.
    assert grew >= 2


def _first_winning_moves(game, graph, win_code):
    """The strategy built from the whole graph's winners: a walk from the
    start that takes the first move into a position the winner wins and
    every opponent move, in the solver's walk order."""
    winners = graph.winners()
    mover = _TURN_E if win_code == _E else _TURN_A
    moves = {}
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        st = graph.status[i]
        if st in (_WON_E, _WON_A):
            continue
        row = graph.succs[i]
        if st == mover:
            k = next(k for k, j in enumerate(row) if winners[j] == win_code)
            ipos = graph.pos_list[i]
            moves[game._public(ipos)] = game._move_label(
                ipos, graph.pos_list[row[k]], k)
            row = row[k:k + 1]
        for j in row:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return moves


@pytest.mark.parametrize("mode", ["greedy", "exhaustive"])
def test_strategy_is_the_first_winning_move_of_the_whole_graph(mode):
    for game in _games():
        greedy = mode == "greedy"
        graph = game._explore([game.start], greedy, greedy)
        win = graph.winners()[0]
        if greedy:
            policy = (win == _E, win == _A)
            game._build_rows(graph, game._reopen(graph, *policy), *policy)
        expected = _first_winning_moves(game, graph, win)
        winner, strategy = game.solve(mode)
        assert winner == strategy.player == ("Eloise", "Abelard")[win]
        # Size and repr come from the walk; the dict is built on demand.
        assert repr(strategy) == \
            f"Strategy({winner}, {len(expected)} positions)"
        assert strategy._moves is None
        assert list(strategy.moves.items()) == list(expected.items())
        assert len(strategy) == len(strategy.moves)


def test_refinement_keeps_the_position_cap(tmp_path, capsys):
    """chain(35) has a greedy graph of 2,772 positions and a one-sided
    refinement of 69,593.  A verdict is capped on the positions of its
    one greedy search, so it passes a cap of 10,000; the refinement runs
    when the strategy is read, and the cap trips there."""
    model = generate_family("chain", 35)
    sent = F.parse(NU_MU)
    game = EvalGame(model, "w_0", sent, OMEGA, max_positions=10_000)
    assert len(game._explore(["w_0"], True, True)) == 2772
    winner, strategy = game.solve()
    assert winner == "Eloise" and game.last_explored == 2772
    with pytest.raises(GameLimitError):
        len(strategy)
    path = tmp_path / "chain35.json"
    save_model(model, path)
    argv = ["eval", "--model", str(path), "--state", "w_0",
            "--formula", NU_MU, "--semantics", "omega",
            "--max-positions", "10000"]
    code = main(argv + ["--strategy"])
    assert "position cap 10000 exceeded" in capsys.readouterr().err
    assert code == EXIT_CAP == 11
    code = main(argv)
    assert capsys.readouterr().out == "true\n"
    assert code == 0
