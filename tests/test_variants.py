"""Two-counter and free semantics against brute-force oracles."""

import itertools
import random

import pytest

from naive_oracles import naive_fbounded_winner, naive_free_verdict

from mucheck.corpus import all_sentences, random_ar_model, random_model, \
    random_sentences
from mucheck.formula import parse
from mucheck.game import ABELARD, ELOISE, first_move_player
from mucheck.kripke import KripkeModel
from mucheck.reduction import chi, solve_ar
from mucheck.variants import (UNDETERMINED, FBoundedGame, FPosition,
                              FreePosition, f_value, free_regions,
                              solve_fbounded, solve_free)


def test_f_value_examples(m1, afp):
    assert f_value(m1, afp, 1) == 10
    assert f_value(m1, afp, 2) == 20
    one = KripkeModel(["w"], [], {})
    assert f_value(one, parse("p"), 1) == 1
    with pytest.raises(ValueError):
        f_value(m1, afp, 0)


def test_fbounded_examples(m1, afp):
    assert solve_fbounded(m1, "a", afp, 1)[0] == ELOISE
    assert solve_fbounded(m1, "a", parse("mu X. X"), 1)[0] == ABELARD
    assert solve_fbounded(m1, "a", parse("nu X. X"), 1)[0] == ELOISE


def test_fbounded_never_undetermined():
    rng = random.Random(23)
    corpus = random_sentences(15, 3, 7, 2)
    for _ in range(10):
        m = random_model(rng, rng.randint(1, 3))
        for s in corpus[:5]:
            for w in m.states:
                verdict, _ = solve_fbounded(m, w, s, 1)
                assert verdict in (ELOISE, ABELARD)


def test_fbounded_matches_naive_oracle():
    rng = random.Random(31)
    corpus = [s for s in all_sentences(3, 1)][::7]
    corpus += random_sentences(6, 8, 6, 2)
    for _ in range(6):
        m = random_model(rng, rng.randint(1, 2))
        for s in corpus:
            f = f_value(m, s, 1)
            if f > 12:
                continue  # keep the exponential oracle tractable
            for w in m.states:
                expect = naive_fbounded_winner(m, s, w, f)
                for mode in ("greedy", "exhaustive"):
                    got, _ = solve_fbounded(m, w, s, 1, mode=mode)
                    assert got == expect


def test_fbounded_chi_matches_ar():
    rng = random.Random(41)
    for _ in range(25):
        m = random_ar_model(rng, rng.randint(1, 3))
        for w in m.states:
            verdict, _ = solve_fbounded(m, w, chi(), 1)
            assert (verdict == ELOISE) == solve_ar(m, w)


def test_fbounded_state_space_bound(m1, afp):
    game = FBoundedGame(m1, "a", afp, 1)
    game.solve()
    assert 0 < game.last_explored \
        <= m1.card * game.sentence.size * (game.f + 1) ** 2


def test_fbounded_strategy_playouts(m1, afp):
    game = FBoundedGame(m1, "a", afp, 1)
    winner, strategy = game.solve("exhaustive")
    assert winner == ELOISE
    assert game.validate_strategy(winner, strategy) > 0
    trace = game.play(strategy, first_move_player)
    assert trace.winner == ELOISE
    assert trace.steps[0][0] == FPosition("a", 0, 10, 10)


def test_fbounded_initial_counters(m1, afp):
    game = FBoundedGame(m1, "b", afp, 2)
    assert game.initial_position() == FPosition("b", 0, 20, 20)


def test_free_examples(m1, afp):
    assert solve_free(m1, "a", parse("mu X. X")) == UNDETERMINED
    assert solve_free(m1, "b", parse("p")) == ELOISE
    assert solve_free(m1, "a", afp) == ELOISE


def test_free_matches_naive_oracle():
    rng = random.Random(51)
    corpus = [s for s in all_sentences(3, 1)][::5]
    corpus += random_sentences(8, 77, 6, 2)
    for _ in range(8):
        m = random_model(rng, rng.randint(1, 2))
        for s in corpus:
            for w in m.states:
                assert solve_free(m, w, s) == naive_free_verdict(m, s, w)


def test_free_partition_properties():
    rng = random.Random(61)
    for _ in range(12):
        m = random_model(rng, rng.randint(1, 3))
        s = random_sentences(1, rng.randint(0, 10**6), 8, 2)[0]
        eloise, abelard, neither = free_regions(m, s)
        total = m.card * s.size
        assert len(eloise) + len(abelard) + len(neither) == total
        assert not (eloise & abelard)
        assert not (eloise & neither)
        assert not (abelard & neither)
        assert all(isinstance(p, FreePosition)
                   for p in eloise | abelard | neither)


def test_free_graph_numbers_every_state_node_pair():
    """Every (state, node) pair is a root, at id si * size + node, so
    exploring discovers nothing and the position cap never applies."""
    from mucheck.variants import _FreeGame
    rng = random.Random(71)
    m = random_model(rng, 3)
    s = random_sentences(1, 5, 9, 2)[0]
    game = _FreeGame(m, m.states[0], s, 1)
    pairs = [(w, node) for w in m.states for node in range(s.size)]
    roots = [game._root(m.state_index(w)) + m.card * node
             for w, node in pairs]
    graph = game._explore_roots(roots)
    assert [game._public(p) for p in graph.pos_list] == pairs
    assert graph.pos_id == {p: i for i, p in enumerate(roots)}


def test_free_undetermined_region_contains_mu_self_loop(m1):
    eloise, abelard, neither = free_regions(m1, parse("mu X. X"))
    assert FreePosition("a", 0) in neither
    assert FreePosition("a", 1) in neither


def _two_counter_game(state="a",
                      formula="nu Y. mu X. ((p & []X) | <>Y)"):
    """Both counters in play: a mu-label inside a nu-binder, or the
    reverse."""
    model = KripkeModel(["a", "b", "c"],
                        [("a", "c"), ("a", "b"), ("b", "b"), ("c", "a")],
                        {"p": ["b"]})
    # 0 nu Y, 1 mu X, 2 or, 3 and, 4 p, 5 []X, 6 X, 7 <>Y, 8 Y
    return FBoundedGame(model, state, parse(formula))


def test_fbounded_legal_moves_are_pinned():
    game = _two_counter_game()

    def names(pos, mode="exhaustive"):
        return [(move, (dst.state, dst.node, dst.gamma_e, dst.gamma_a))
                for move, dst in game.legal_moves(pos, mode)]

    assert names(FPosition("a", 0, 3, 2)) == [(("enter",), ("a", 1, 3, 2))]
    assert names(FPosition("a", 1, 3, 2)) == [(("enter",), ("a", 2, 3, 2))]
    assert names(FPosition("a", 2, 3, 2)) == [
        (("pick-left",), ("a", 3, 3, 2)), (("pick-right",), ("a", 7, 3, 2))]
    # Successor states in model order, not in edge-list order.
    assert names(FPosition("a", 5, 3, 2)) == [
        (("go-to-state", "b"), ("b", 6, 3, 2)),
        (("go-to-state", "c"), ("c", 6, 3, 2))]
    # A mu-label lowers Eloise's counter, a nu-label Abelard's, largest
    # value first; greedy mode keeps only g-1.
    assert names(FPosition("a", 6, 3, 2)) == [
        (("set-counter", 2), ("a", 2, 2, 2)),
        (("set-counter", 1), ("a", 2, 1, 2)),
        (("set-counter", 0), ("a", 2, 0, 2))]
    assert names(FPosition("a", 6, 3, 2), "greedy") == [
        (("set-counter", 2), ("a", 2, 2, 2))]
    assert names(FPosition("a", 8, 3, 2)) == [
        (("set-counter", 1), ("a", 1, 3, 1)),
        (("set-counter", 0), ("a", 1, 3, 0))]
    assert names(FPosition("a", 8, 3, 2), "greedy") == [
        (("set-counter", 1), ("a", 1, 3, 1))]
    assert names(FPosition("a", 6, 0, 2)) == []  # exhausted: Abelard won
    assert names(FPosition("b", 4, 3, 2)) == []  # a literal


@pytest.mark.parametrize("mode", ["greedy", "exhaustive"])
def test_fbounded_two_counter_strategy_validates_and_plays(mode):
    winners = set()
    for formula, state in itertools.product(
            ("nu Y. mu X. ((p & []X) | <>Y)",
             "mu Y. nu X. ((!p | <>X) & []Y)"), ("a", "b", "c")):
        game = _two_counter_game(state, formula)
        winner, strategy = game.solve(mode)
        winners.add(winner)
        assert game.validate_strategy(winner, strategy) > 0
        if winner == ELOISE:
            trace = game.play(strategy, first_move_player)
        else:
            trace = game.play(first_move_player, strategy)
        assert trace.winner == winner
    assert winners == {ELOISE, ABELARD}


def test_free_verdict_agrees_with_free_regions():
    """The verdict explores only what the start reaches; the regions
    explore every (state, node) pair.  On the free tests' corpora both
    give the same verdict at every start."""
    rng = random.Random(51)
    sents = all_sentences(3, 1)[::5] + random_sentences(8, 77, 6, 2)
    cases = []
    for _ in range(8):
        m = random_model(rng, rng.randint(1, 2))
        cases.extend((m, s) for s in sents)
    rng = random.Random(61)
    for _ in range(12):
        m = random_model(rng, rng.randint(1, 3))
        cases.append((m, random_sentences(1, rng.randint(0, 10**6), 8,
                                          2)[0]))
    for m, s in cases:
        eloise, abelard, _ = free_regions(m, s)
        for w in m.states:
            start = FreePosition(w, 0)
            expected = (ELOISE if start in eloise
                        else ABELARD if start in abelard else UNDETERMINED)
            assert solve_free(m, w, s) == expected
