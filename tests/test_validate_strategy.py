"""``validate_strategy`` walks internal positions; the walk over public
positions in ``tests/naive_oracles.py`` is its reference.

On seeded random clock-bounded and two-counter games, in both modes,
the two walks visit as many positions for the solver's strategy, and
give the same result, a count or the same StrategyError, for strategies
with one move swapped to each other legal move, one move made illegal,
one entry deleted, or no entry at all.
"""

import random

from naive_oracles import reference_validate_strategy

from mucheck.corpus import random_model, random_sentences
from mucheck.game import EvalGame, Strategy, StrategyError
from mucheck.semantics import OMEGA
from mucheck.variants import FBoundedGame


# The three errors of a strategy that does not win.
ERRORS = ("reached a position lost", "has no move", "is illegal")


def _outcome(validate, game, winner, strategy):
    try:
        return validate(game, winner, strategy)
    except StrategyError as exc:
        return str(exc)


def _mutants(game, strategy, rng):
    """Strategies that differ from the solver's at one position of it, and
    the empty strategy."""
    moves = strategy.moves
    if moves:
        pos = rng.choice(list(moves))
        for move, _ in game.legal_moves(pos):
            if move != moves[pos]:
                yield {**moves, pos: move}
        yield {**moves, pos: ("go-to-state", "nowhere")}
        yield {p: m for p, m in moves.items() if p != pos}
    yield {}


def test_int_walk_matches_the_public_reference():
    rng = random.Random(5)
    models = [random_model(rng, rng.randint(2, 3)) for _ in range(3)]
    games = mutants = 0
    errors = set()
    for sent in random_sentences(30, 5, 9, 3):
        for model in models:
            start = model.states[0]
            for game in [EvalGame(model, start, sent, bound)
                         for bound in (2, 3, OMEGA)] + [
                             FBoundedGame(model, start, sent, 1)]:
                for mode in ("greedy", "exhaustive"):
                    winner, strategy = game.solve(mode)
                    visited = game.validate_strategy(winner, strategy)
                    assert visited == reference_validate_strategy(
                        game, winner, strategy)
                    games += 1
                    for moves in _mutants(game, strategy, rng):
                        mutant = Strategy(winner, moves)
                        got = _outcome(type(game).validate_strategy, game,
                                       winner, mutant)
                        assert got == _outcome(reference_validate_strategy,
                                               game, winner, mutant)
                        if isinstance(got, str):
                            errors.update(e for e in ERRORS if e in got)
                        mutants += 1
    assert games == 30 * 3 * 4 * 2 and mutants > 3 * games
    assert errors == set(ERRORS)
