"""Evaluation games: statuses, moves, solving, strategies, traces.

The solver is checked against a brute-force recursion that replays the
game rules with explicit full clock dictionaries and no sharing.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naive_oracles import naive_bounded_winner

from mucheck import formula as F
from mucheck.corpus import all_sentences, random_model, random_sentences
from mucheck.formula import parse
from mucheck.game import (ABELARD, ELOISE, EvalGame, GameLimitError,
                          GameStatus, Position, Strategy, StrategyError,
                          _Graph, _TURN_E, _UNSET, _WON_A,
                          first_move_player, solve)
from mucheck.kripke import KripkeModel, generate_family
from mucheck.semantics import OMEGA, eval_bounded, eval_standard


def test_initial_position(m1, afp):
    g = EvalGame(m1, "a", afp, 2)
    assert g.initial_position() == Position("a", 0, ())
    star2 = generate_family("starN", 2)
    phis = parse("nu X. [] mu Y. (<>Y | (p & X))")
    g2 = EvalGame(star2, "w_0", phis, OMEGA)
    assert g2.initial_position() == Position("w_0", 0, ())


def test_initial_position_rejects_unknown_state(m1, afp):
    from mucheck.kripke import ModelError
    with pytest.raises(ModelError):
        EvalGame(m1, "zz", afp, 2)


def test_status_literals(m1, afp):
    g = EvalGame(m1, "a", afp, 2)
    p_node = 2  # mu X. (p | []X): 0=mu 1=or 2=p 3=box 4=X
    # an empty clock map leaves every binder at the untouched bound
    assert g.status(g.make_position("b", p_node)) == GameStatus("won", ELOISE)
    assert g.status(g.make_position("a", p_node)) == GameStatus("won", ABELARD)
    assert g.make_position("a", p_node, {"X": 1}) == Position("a", 2, (1,))
    with pytest.raises(ValueError):
        g.make_position("a", p_node, {"Z": 1})


def test_status_label_zero(m1, afp):
    g = EvalGame(m1, "a", afp, 2)
    label_node = 4
    assert g.status(Position("a", label_node, (0,))) \
        == GameStatus("won", ABELARD)
    assert g.status(Position("a", label_node, (1,))) \
        == GameStatus("turn", ELOISE)
    nu_game = EvalGame(m1, "a", parse("nu X. X"), 2)
    assert nu_game.status(Position("a", 1, (0,))) == GameStatus("won", ELOISE)


def test_status_modal_dead_ends():
    m = KripkeModel(["a"], [], {})
    g = EvalGame(m, "a", parse("<> p"), 1)
    assert g.status(Position("a", 0, ())) == GameStatus("won", ABELARD)
    g = EvalGame(m, "a", parse("[] p"), 1)
    assert g.status(Position("a", 0, ())) == GameStatus("won", ELOISE)


def test_legal_moves_or(m1, afp):
    g = EvalGame(m1, "a", afp, 2)
    moves = g.legal_moves(Position("a", 1, (1,)))
    assert [m for m, _ in moves] == [("pick-left",), ("pick-right",)]
    assert [p.node for _, p in moves] == [2, 3]


def test_legal_moves_binder_clock_order(m1, afp):
    g = EvalGame(m1, "a", afp, 2)
    moves = g.legal_moves(Position("a", 0, ()))
    assert [m for m, _ in moves] == [("set-clock", 1), ("set-clock", 0)]
    assert {p.clocks for _, p in moves} == {(0,), (1,)}
    greedy = g.legal_moves(Position("a", 0, ()), mode="greedy")
    assert [m for m, _ in greedy] == [("set-clock", 1)]


def test_legal_moves_label_descends(m1, afp):
    g = EvalGame(m1, "a", afp, 2)
    moves = g.legal_moves(Position("w_1" if False else "b", 4, (1,)))
    assert [m for m, _ in moves] == [("set-clock", 0)]
    (_, dst), = moves
    assert dst == Position("b", 1, (0,))  # binder's body with lowered clock


def test_legal_moves_modal_in_model_order():
    m = KripkeModel(["a", "b", "c"],
                    [("a", "c"), ("a", "b")], {})
    g = EvalGame(m, "a", parse("<> p"), 1)
    moves = g.legal_moves(Position("a", 0, ()))
    assert [mv for mv, _ in moves] == [("go-to-state", "b"),
                                       ("go-to-state", "c")]


def test_omega_clock_choices_capped_at_card(m1, afp):
    g = EvalGame(m1, "a", afp, OMEGA)
    moves = g.legal_moves(Position("a", 0, ()))
    assert [m[1] for m, _ in moves] == [2, 1, 0]


def test_position_validation(m1, afp):
    g = EvalGame(m1, "a", afp, 2)
    with pytest.raises(ValueError):
        g.status(Position("a", 99, ()))
    with pytest.raises(ValueError):
        g.status(Position("a", 1, ()))  # missing clock entry
    with pytest.raises(ValueError):
        g.status(Position("a", 0, (1,)))  # clock for a strict-ancestor only
    with pytest.raises(ValueError):
        g.status(Position("a", 1, (-3,)))
    # an untouched clock at a label is never zero, so play continues
    assert g.status(Position("a", 4, (None,))).kind == "turn"
    assert [m for m, _ in g.legal_moves(Position("a", 4, (None,)))] \
        == [("set-clock", 1), ("set-clock", 0)]


def test_solve_afp_examples(m1, afp):
    assert EvalGame(m1, "a", afp, 1).solve()[0] == ABELARD
    assert EvalGame(m1, "a", afp, 2).solve()[0] == ELOISE
    assert EvalGame(m1, "b", afp, 1).solve()[0] == ELOISE


def test_solve_mu_x_x_and_nu_x_x(m1):
    for gamma in (1, 2, 3, OMEGA):
        for state in m1.states:
            assert EvalGame(m1, state, parse("mu X. X"),
                            gamma).solve()[0] == ABELARD
            assert EvalGame(m1, state, parse("nu X. X"),
                            gamma).solve()[0] == ELOISE


def test_solve_star5_phi_star(phi_star):
    star5 = generate_family("starN", 5)
    for mode in ("greedy", "exhaustive"):
        game = EvalGame(star5, "w_0", phi_star, OMEGA)
        assert game.solve(mode)[0] == ELOISE
    assert "w_0" in eval_standard(star5, phi_star)


def test_solver_matches_naive_oracle():
    rng = random.Random(17)
    corpus = [s for s in all_sentences(4, 1)][::11]
    corpus += random_sentences(12, 13, 7, 2)
    models = [random_model(rng, rng.randint(1, 2)) for _ in range(6)]
    checked = 0
    for m in models:
        for s in corpus:
            for gamma in (1, 2, OMEGA):
                cap = m.card + 1 if gamma is OMEGA else gamma
                for w in m.states:
                    expect = naive_bounded_winner(m, s, w, cap)
                    got = EvalGame(m, w, s, gamma).solve("exhaustive")[0]
                    assert got == expect, (w, F.render(s), gamma)
                    checked += 1
    assert checked > 300


def test_solve_agrees_with_bounded_semantics_spot():
    # exhaustive two-state coverage lives in the acceptance sweep; this
    # samples up to four states
    rng = random.Random(5)
    for _ in range(60):
        m = random_model(rng, rng.randint(1, 4))
        s = random_sentences(1, rng.randint(0, 10**6), 8, 2)[0]
        gamma = rng.choice([1, 2, 3, 4, OMEGA])
        bset = eval_bounded(m, s, gamma)
        for w in m.states:
            winner, _ = EvalGame(m, w, s, gamma).solve()
            assert (winner == ELOISE) == (w in bset)


def test_strategy_wins_all_playouts(m1, afp, phi_star):
    cases = [
        (m1, "a", afp, 2),
        (m1, "a", afp, 1),
        (m1, "b", parse("nu X. <>X"), OMEGA),
        (generate_family("starN", 3), "w_0", phi_star, OMEGA),
        (generate_family("daggerN", 3), "w_0", afp, OMEGA),
    ]
    for model, w, s, gamma in cases:
        for mode in ("greedy", "exhaustive"):
            game = EvalGame(model, w, s, gamma)
            winner, strategy = game.solve(mode)
            visited = game.validate_strategy(winner, strategy)
            assert visited >= 1


def test_validator_rejects_a_move_swapped_to_a_losing_one(m1, afp):
    """Eloise wins ``mu X. (p | []X)`` at a, where p is false: a strategy
    with her right disjunct swapped for the left one, p at a, reaches a
    terminal she has lost."""
    game = EvalGame(m1, "a", afp, 2)
    winner, solved = game.solve("exhaustive")
    moves = dict(solved.moves)
    pos = Position("a", 1, (1,))
    assert winner == ELOISE and moves[pos] == ("pick-right",)
    assert ("pick-left",) in [m for m, _ in game.legal_moves(pos)]
    game.validate_strategy(winner, Strategy(winner, moves))
    moves[pos] = ("pick-left",)
    with pytest.raises(StrategyError, match="reached a position lost"):
        game.validate_strategy(winner, Strategy(winner, moves))


def test_validator_rejects_an_illegal_move(m1, afp):
    """At the label X with clock 1 the only legal move sets the clock to
    0; a strategy that sets it to 1 names a move that is not there."""
    game = EvalGame(m1, "a", afp, 2)
    winner, solved = game.solve("exhaustive")
    moves = dict(solved.moves)
    pos = Position("b", 4, (1,))
    assert [m for m, _ in game.legal_moves(pos)] == [("set-clock", 0)]
    moves[pos] = ("set-clock", 1)
    with pytest.raises(StrategyError, match="is illegal"):
        game.validate_strategy(winner, Strategy(winner, moves))


def test_trace_round_trip(m1, afp):
    game = EvalGame(m1, "a", afp, 2)
    winner, strategy = game.solve("exhaustive")
    assert winner == ELOISE
    trace = game.play(strategy, first_move_player)
    assert trace.winner == ELOISE
    assert len(trace) - 1 <= 8
    text = trace.format_text(game)
    assert "won: Eloise" in text
    data = trace.to_json_dict(game)
    assert data["winner"] == ELOISE
    assert data["rounds"][0]["state"] == "a"
    assert data["rounds"][-1]["won"] == ELOISE


def test_play_undefined_strategy_errors(m1, afp):
    game = EvalGame(m1, "a", afp, 2)
    from mucheck.game import Strategy
    empty = Strategy(ELOISE, {})
    with pytest.raises(StrategyError):
        game.play(empty, first_move_player)


def test_normalizes_on_entry(m1):
    s = parse("nu X. mu X. (p | <>X)")
    game = EvalGame(m1, "a", s, 2)
    assert F.is_normal(game.sentence)
    assert game.solve()[0] in (ELOISE, ABELARD)


def test_position_cap(m1, phi_star):
    with pytest.raises(GameLimitError):
        EvalGame(m1, "a", phi_star, 3, max_positions=5).solve()


def test_acyclicity_checked_on_solved_instances(m1, afp):
    game = EvalGame(m1, "a", afp, 3)
    graph = game._explore(["a"])
    order = graph.topo_order()
    assert len(order) == len(graph)
    ranks = {i: r for r, i in enumerate(order)}
    for i, row in enumerate(graph.succs):
        for j in row:
            assert ranks[i] < ranks[j]


def test_solve_wrapper(m1, afp):
    game, winner, strategy = solve(m1, "a", afp, 2)
    assert winner == ELOISE
    assert strategy.player == ELOISE
    assert len(strategy) > 0


# -- the solving kernel on random graphs ------------------------------------

def _reference_solve(status, succs, roots):
    """Plain memoized recursion with the solver's move order: the winner
    of each position it visits, and each won turn's first winning move.
    Raises RuntimeError on meeting a position on its own path."""
    win, pick, path = {}, {}, set()

    def visit(i):
        if i in win:
            return win[i]
        if i in path:
            raise RuntimeError("cycle")
        st = status[i]
        if st < _TURN_E:
            win[i] = st
            return st
        mover = st - _TURN_E
        path.add(i)
        win_i = 1 - mover
        for k, j in enumerate(succs[i]):
            if visit(j) == mover:
                pick[i] = k
                win_i = mover
                break
        path.discard(i)
        win[i] = win_i
        return win_i

    for r in roots:
        visit(r)
    return win, pick


def _graph(status, succs):
    n = len(status)
    return _Graph(list(range(n)), {}, list(status), list(succs))


@st.composite
def _dags(draw, max_size=30):
    """A random acyclic graph of status codes and successor rows: edges
    only go up a random ranking, turns outweigh terminals, and rows may be
    empty or repeat a successor."""
    n = draw(st.integers(1, max_size))
    rank = draw(st.permutations(range(n)))
    status = draw(st.lists(st.sampled_from((0, 1, 2, 3, 2, 3)),
                           min_size=n, max_size=n))
    succs = []
    for i in range(n):
        above = [j for j in range(n) if rank[j] > rank[i]]
        if status[i] < _TURN_E or not above:
            succs.append(())
        else:
            succs.append(tuple(draw(st.lists(st.sampled_from(above),
                                             max_size=4))))
    roots = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    return status, succs, roots


def _reachable(succs, roots):
    seen, stack = set(roots), list(roots)
    while stack:
        for j in succs[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def _assert_solves_as_reference(status, succs, roots):
    """solve(roots) fills exactly the positions the reference visits, with
    its winners and first winning moves; returns solve's result."""
    win, pick = _graph(status, succs).solve(roots)
    ref_win, ref_pick = _reference_solve(status, succs, roots)
    for i in range(len(status)):
        assert win[i] == ref_win.get(i, _UNSET)
        assert pick[i] == ref_pick.get(i, -1)
    assert set(ref_win) <= _reachable(succs, roots)
    return win, pick


@settings(max_examples=300)
@given(_dags())
def test_solve_matches_the_recursive_reference(graph):
    status, succs, roots = graph
    win, pick = _assert_solves_as_reference(status, succs, roots)
    # Every won turn's pick is its first successor won by the mover.
    for i, k in enumerate(pick):
        if k >= 0:
            mover = status[i] - _TURN_E
            row = succs[i]
            assert win[row[k]] == mover
            assert all(win[j] != mover for j in row[:k])


@settings(max_examples=200)
@given(_dags())
def test_whole_graph_winners_solve_every_position(graph):
    status, succs, _ = graph
    g = _graph(status, succs)
    every = range(len(status))
    ref_win, ref_pick = _reference_solve(status, succs, every)
    assert g.winners() == [ref_win[i] for i in every]
    assert g.winners() == g.solve(every)[0]


@st.composite
def _cyclic(draw):
    """A random acyclic graph with one back edge added: some turn position
    b reachable from a turn position a gets a in its row."""
    status, succs, roots = draw(_dags())
    turns = [i for i in range(len(status)) if status[i] >= _TURN_E]
    if not turns:
        status[0] = _TURN_E
        turns = [0]
    a = draw(st.sampled_from(turns))
    below = sorted(i for i in _reachable(succs, [a])
                   if status[i] >= _TURN_E)
    b = draw(st.sampled_from(below))
    row = list(succs[b])
    row.insert(draw(st.integers(0, len(row))), a)
    succs[b] = tuple(row)
    return status, succs, roots, a


@settings(max_examples=200)
@given(_cyclic())
def test_solve_raises_on_the_cycles_it_meets(graph):
    status, succs, roots, a = graph
    g = _graph(status, succs)
    # winners() checks every edge of the graph, so it meets the cycle.
    with pytest.raises(RuntimeError):
        g.winners()
    # From roots, the search meets the cycle exactly when the reference
    # recursion does, and otherwise solves what the reference solves.
    try:
        _reference_solve(status, succs, roots)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            g.solve(roots)
    else:
        _assert_solves_as_reference(status, succs, roots)
    # When every turn is Eloise's and every terminal Abelard's, no mover
    # ever short-circuits, so any cycle reachable from a root is met.
    lost = [_TURN_E if st >= _TURN_E else _WON_A for st in status]
    g = _graph(lost, succs)
    if a in _reachable(succs, roots):
        with pytest.raises(RuntimeError):
            g.solve(roots)
    else:
        g.solve(roots)
    with pytest.raises(RuntimeError):
        g.solve(roots + [a])


def test_greedy_label_moves_are_the_first_every_choice_move():
    """At a label whose owner plays greedy, ``legal_moves(pos, "greedy")``
    takes the jump table's one move: the binder's clock one lower, or the
    largest clock where the binder holds the untouched bound, with every
    clock of an inner binder dropped.  It is the first move of
    ``legal_moves(pos)`` at every label position that is not won, as an
    internal position too, where a kept inner clock would show."""
    g = EvalGame(generate_family("starN", 3), "w_0",
                 parse("mu X. nu Y. (<>X | (p & []Y))"), OMEGA)
    labels = [n for n in range(g.sentence.size) if g._kind[n] == F.LABEL]
    x_label, y_label = labels
    assert g.index.active_ancestors[x_label] == (0, 1)
    # Both clocks set: X's jump to its body drops Y's clock.
    pos = g.make_position("w_1", x_label, {"X": 2, "Y": 3})
    assert g.legal_moves(pos, "greedy") == [
        (("set-clock", 1), Position("w_1", 1, (1,)))]
    # X untouched (None): the largest clock, below the cap of card + 1.
    pos = g.make_position("w_1", x_label, {"Y": 1})
    assert pos.clocks == (None, 1)
    assert g.legal_moves(pos, "greedy") == [
        (("set-clock", 4), Position("w_1", 1, (4,)))]
    # A clock map keyed by binder node id names the same position.
    assert g.make_position("w_2", y_label, {1: 2}) \
        == g.make_position("w_2", y_label, {"Y": 2}) \
        == Position("w_2", y_label, (None, 2))
    checked = 0
    values = list(range(g.clock_cap)) + [None]
    for node in labels:
        for state in g.model.states:
            for x in values:
                for y in values:
                    pos = Position(state, node, (x, y))
                    every = g.legal_moves(pos)
                    assert g.legal_moves(pos, "greedy") == every[:1]
                    if every:
                        p = g._internal(pos)
                        assert g._successors(p, True, True) \
                            == g._successors(p)[:1]
                        checked += 1
    assert checked == 2 * 4 * 5 * 6
