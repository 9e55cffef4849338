"""A solver's strategy is read as its int pick table.

``game._strategy_walk`` gives ``{internal position: (move index,
successor)}``, and the ``Strategy`` keeps it.  ``play`` and
``validate_strategy`` on the game that solved the strategy read that
table and never build the public ``moves`` dict.  They give what the
same strategy gives as a ``moves`` dict, and a table entry whose
successor is not the successor at its move index is an illegal move.
"""

import random

from mucheck import game as G
from mucheck.corpus import random_model, random_sentences
from mucheck.game import (ELOISE, EvalGame, Strategy, StrategyError,
                          first_move_player)
from mucheck.semantics import OMEGA
from mucheck.variants import FBoundedGame

MODES = ("greedy", "exhaustive")


def last_move_player(game, pos, moves):
    return len(moves) - 1


def _games():
    """Seeded random clock-bounded games at bounds 2, 3 and omega, and
    two-counter games at k=1."""
    rng = random.Random("pick table")
    models = [random_model(rng, rng.randint(2, 4)) for _ in range(3)]
    for sent in random_sentences(30, 32, 9, 3):
        for model in models:
            start = model.states[0]
            for bound in (2, 3, OMEGA):
                yield EvalGame(model, start, sent, bound)
            yield FBoundedGame(model, start, sent, 1)


def _plays(game, strategy):
    """Play the strategy on its winner's side against the first and the
    last legal move: the traces' (steps, winner)."""
    traces = []
    for opponent in (first_move_player, last_move_player):
        sides = (strategy, opponent) if strategy.player == ELOISE \
            else (opponent, strategy)
        trace = game.play(*sides)
        traces.append((trace.steps, trace.winner))
    return traces


def test_play_and_validation_read_the_table_only():
    games = 0
    winners = set()
    for game in _games():
        for mode in MODES:
            winner, strategy = game.solve(mode)
            traces = _plays(game, strategy)
            visited = game.validate_strategy(winner, strategy)
            assert strategy._moves is None
            given = Strategy(winner, dict(strategy.moves))
            assert _plays(game, given) == traces
            assert game.validate_strategy(winner, given) == visited
            assert len(given) == len(strategy)
            winners.add(winner)
            games += 1
    assert games == 30 * 3 * 4 * 2 and len(winners) == 2


def test_a_changed_successor_is_an_illegal_move(monkeypatch):
    """One table entry is given another successor, a sibling where the
    row has one: validation fails at exactly that position."""
    rng = random.Random("changed successor")
    real = G._strategy_walk
    changed = {}

    def faulty(*search):
        table = real(*search)
        if table:
            p = rng.choice(list(table))
            k, dst = table[p]
            others = [q for q in changed["game"]._successors(p) if q != dst]
            table[p] = k, rng.choice(others) if others else dst + 1
            changed["at"] = p
            changed["sibling"] = bool(others)
        return table
    monkeypatch.setattr(G, "_strategy_walk", faulty)
    faults = siblings = 0
    for game in _games():
        for mode in MODES:
            changed.clear()
            changed["game"] = game
            winner, strategy = game.solve(mode)
            if not len(strategy):
                continue
            try:
                game.validate_strategy(winner, strategy)
            except StrategyError as exc:
                message = str(exc)
            else:
                message = "validated"
            assert message.startswith("strategy move ")
            assert message.endswith(
                f" is illegal at {game._public(changed['at'])}")
            assert strategy._moves is None
            faults += 1
            siblings += changed["sibling"]
    assert faults > 300 and siblings > 100
