"""The one position explorer over integer positions.

Every game's positions are ints ``si + S * (node + N * rest)``, and the
explorer reads statuses and rows from per-node tables.  These tests hold
it to the tuple codecs in ``naive_oracles`` position by position, check
that the codecs invert, that the codec is called only where a position's
``rest`` matters, and that a position-cap hit says where the positions
went.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naive_oracles import (EvalTuples, FBoundedTuples, FreeTuples,
                           FullMapTuples, reference_explore,
                           reference_refine)

from mucheck import formula as F
from mucheck.compare import _FullMapGame
from mucheck.corpus import random_model, random_sentence, random_sentences
from mucheck.formula import parse
from mucheck.game import (EvalGame, GameLimitError, Position, _A, _E,
                          _TURN_E)
from mucheck.kripke import KripkeModel, generate_family
from mucheck.semantics import OMEGA, clock_cap
from mucheck.variants import FBoundedGame, FPosition, _FreeGame, _free_game

BOUNDS = (1, 2, 3, 4, OMEGA)


def _games(model, sent, bound):
    """One game of each codec with its tuple reference."""
    start = model.states[0]
    cap = clock_cap(bound, model)
    games = [EvalGame(model, start, sent, bound),
             FBoundedGame(model, start, sent, 1),
             _FreeGame(model, start, sent, 10 ** 6),
             _FullMapGame(model, start, sent, cap, 10 ** 6)]
    refs = (EvalTuples, FBoundedTuples, FreeTuples, FullMapTuples)
    return [(game, ref(game)) for game, ref in zip(games, refs)]


def _decoded(game, graph):
    """The graph's positions as the tuple codecs write them."""
    out = []
    for p in graph.pos_list:
        pos = game._public(p)
        out.append((game.model.state_index(pos[0]),) + tuple(pos[1:]))
    return out


def _assert_same(game, graph, ref):
    assert _decoded(game, graph) == ref.pos_list
    assert graph.status == ref.status
    assert graph.succs == ref.succs


@settings(max_examples=200)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.sampled_from(BOUNDS))
def test_int_explorer_matches_the_tuple_explorer(seed, card, bound):
    rng = random.Random(seed)
    model = random_model(rng, card)
    sent = F.normalize(random_sentence(rng, 9, 2))
    for game, codec in _games(model, sent, bound):
        if isinstance(game, FBoundedGame) and game.f > 27:
            continue  # keep the two-counter graphs small
        roots = [codec.root(si) for si in range(card)]
        for greedy in (True, False):
            graph = game._explore(model.states, greedy, greedy)
            _assert_same(game, graph,
                         reference_explore(codec, roots, greedy, greedy))
        if isinstance(game, _FreeGame):
            continue  # no decisions to refine
        graph = game._explore(model.states, True, True)
        ref = reference_explore(codec, roots, True, True)
        win = graph.solve((0,))[0][0]
        policy = (win == _E, win == _A)
        game._build_rows(graph, game._reopen(graph, *policy), *policy)
        reference_refine(ref, win, game._decision_kinds)
        _assert_same(game, graph, ref)


def _forward(graph):
    """Whether every edge of the graph goes to a higher id."""
    return all(j > i for i, row in enumerate(graph.succs) for j in row)


def _assert_topological(graph, order):
    assert sorted(order) == list(range(len(graph)))
    rank = {i: r for r, i in enumerate(order)}
    for i, row in enumerate(graph.succs):
        for j in row:
            assert rank[i] < rank[j]


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.sampled_from(BOUNDS))
def test_explored_order_is_the_numbering_exactly_when_edges_point_forward(
        seed, card, bound):
    """Under both clock policies of the clock, counter and full-map games,
    ``topo_order`` is a topological order, and it is the numbering itself
    (a ``range``, which equals no list) exactly when every edge goes to a
    higher id."""
    rng = random.Random(seed)
    model = random_model(rng, card)
    sent = F.normalize(random_sentence(rng, 9, 2))
    for game, _ in _games(model, sent, bound):
        if isinstance(game, _FreeGame):
            continue  # may be cyclic; see the test below
        for greedy in (True, False):
            if not greedy and isinstance(game, FBoundedGame) \
                    and game.f > 27:
                continue  # keep the two-counter graphs small
            graph = game._explore(model.states, greedy, greedy)
            order = graph.topo_order()
            _assert_topological(graph, order)
            assert (order == range(len(graph))) == _forward(graph)


def test_a_cycle_through_the_explorer_still_raises():
    """The free game of ``mu X. <>X`` on a 1-state self-loop returns to
    its start; no numbering can hide that edge."""
    model = KripkeModel(["a"], [("a", "a")], {})
    graph = _free_game(model, "a", parse("mu X. <>X"))._explore(["a"])
    assert not _forward(graph)
    with pytest.raises(RuntimeError):
        graph.topo_order()
    with pytest.raises(RuntimeError):
        graph.winners(1)


def test_rebuilt_rows_drop_the_numbering_as_order():
    """chain(3) at bound 3: the greedy graph's edges all point forward,
    so its order is the numbering; the one-sided refinement then adds a
    row that points back, and the order is recomputed."""
    game = EvalGame(generate_family("chain", 3), "w_0",
                    parse("mu X. (p | <> X)"), 3)
    graph = game._explore(["w_0"], True, True)
    assert graph.topo_order() == range(len(graph))
    win = graph.solve((0,))[0][0]
    policy = (win == _E, win == _A)
    game._build_rows(graph, game._reopen(graph, *policy), *policy)
    assert not _forward(graph)
    _assert_topological(graph, graph.topo_order())


def test_explored_clock_prefixes_are_canonical():
    """Every position an EvalGame explores, under each of the four clock
    policies, holds one clock digit per active ancestor of its node and
    none beyond: ``rest < R ** len(active_ancestors[node])``.  A codec
    fault that writes a digit past the binder's slot (a label jump that
    keeps too much of the prefix, say) builds positions outside that
    range while most verdicts stay right."""
    rng = random.Random(9)
    sentences = random_sentences(30, 11, 9, 3)
    models = [random_model(rng, rng.randint(2, 4)) for _ in range(4)]
    graphs = 0
    for sent in sentences:
        for model in models:
            for bound in (2, 3, OMEGA):
                game = EvalGame(model, model.states[0], sent, bound)
                S, N, R = game._S, game._N, game._R
                limit = [R ** len(anc)
                         for anc in game.index.active_ancestors]
                for policy in ((False, False), (True, True), (True, False),
                               (False, True)):
                    graph = game._explore(model.states, *policy)
                    bad = [p for p in graph.pos_list
                           if p // (S * N) >= limit[p // S % N]]
                    assert not bad, (F.render(sent), bound, policy, bad[0])
                    graphs += 1
    assert graphs == 30 * 4 * 3 * 4


def test_every_codec_explores_in_range_and_within_its_bound():
    """The other codecs' positions, on the sentences and models of the
    test above and under the same four clock policies: every position
    ``p`` of the two-counter game at k=1 has ``0 <= p // (S*N) <
    (f + 1)**2``, every full-map position ``0 <= p // (S*N) <
    R**binders``, and every free position ``p // (S*N) == 0``.  Each
    graph, the canonical game's too, holds at most its closed-form count
    of positions.  That count is also the game's position cap, so a fault
    that builds positions without end stops there."""
    rng = random.Random(9)
    sentences = random_sentences(30, 11, 9, 3)
    models = [random_model(rng, rng.randint(2, 4)) for _ in range(4)]
    graphs = 0
    for sent in sentences:
        for model in models:
            start = model.states[0]
            # (game, the bound on p // (S*N) or None, positions per state)
            games = []
            for bound in (2, 3, OMEGA):
                game = EvalGame(model, start, sent, bound)
                R = game._R
                games.append((game, None, sum(
                    R ** len(anc) for anc in game.index.active_ancestors)))
                game = _FullMapGame(model, start, sent, game.clock_cap,
                                    10 ** 6)
                hi = R ** len(game.index.mu_nu_nodes)
                games.append((game, hi, game._N * hi))
            game = FBoundedGame(model, start, sent, 1)
            hi = (game.f + 1) ** 2
            games.append((game, hi, game._N * hi))
            game = _free_game(model, start, sent)
            games.append((game, 1, game._N))
            for game, hi, per_state in games:
                game.max_positions = limit = model.card * per_state
                SN = game._SN
                for policy in ((False, False), (True, True), (True, False),
                               (False, True)):
                    graph = game._explore(model.states, *policy)
                    assert len(graph) <= limit
                    bad = [p for p in graph.pos_list
                           if hi is not None and not 0 <= p // SN < hi]
                    assert not bad, (type(game).__name__, F.render(sent),
                                     policy, bad[0])
                    graphs += 1
    assert graphs == 30 * 4 * (3 * 2 + 2) * 4


@settings(max_examples=100)
@given(st.integers(0, 2 ** 32), st.sampled_from(BOUNDS))
def test_codecs_invert(seed, bound):
    rng = random.Random(seed)
    model = random_model(rng, rng.randint(1, 3))
    sent = F.normalize(random_sentence(rng, 9, 3))
    game = EvalGame(model, model.states[0], sent, bound)
    cap = game.clock_cap
    anc = game.index.active_ancestors
    for _ in range(20):
        node = rng.randrange(sent.size)
        clocks = tuple(rng.choice([None] + list(range(cap)))
                       for _ in anc[node])
        pos = Position(rng.choice(model.states), node, clocks)
        assert game._public(game._internal(pos)) == pos
        if clocks:
            k = rng.randrange(len(clocks))
            for bad in (cap, -1):
                wrong = clocks[:k] + (bad,) + clocks[k + 1:]
                with pytest.raises(ValueError):
                    game._internal(pos._replace(clocks=wrong))
    fb = FBoundedGame(model, model.states[0], sent, 1)
    for _ in range(20):
        pos = FPosition(rng.choice(model.states), rng.randrange(sent.size),
                        rng.randint(0, fb.f), rng.randint(0, fb.f))
        assert fb._public(fb._internal(pos)) == pos
        for wrong in (pos._replace(gamma_e=fb.f + 1),
                      pos._replace(gamma_a=-1)):
            with pytest.raises(ValueError):
                fb._internal(wrong)


PHI_STAR = "nu X. [] mu Y. (<>Y | (p & X))"


def _count_calls(monkeypatch, calls, hook_kinds, names):
    """Count the calls of each ``(name, node_arg)`` method of EvalGame,
    and record the node kinds of the calls where ``node_arg`` is the
    index of the node among the arguments (None for no node)."""
    for name, node_arg in names:
        real = getattr(EvalGame, name)

        def wrapper(self, *args, name=name, node_arg=node_arg, real=real):
            calls[name] += 1
            if node_arg is not None:
                hook_kinds.add(self._kind[args[node_arg]])
            return real(self, *args)
        monkeypatch.setattr(EvalGame, name, wrapper)


CODEC_LABEL_HOOKS = (("_label_rule", 0), ("_label_jump", 0),
                     ("_decision_row", 1))


def test_explorer_calls_the_codec_only_at_labels(monkeypatch):
    """Statuses and rows come from the tables: exploring starN(3) at omega
    calls the codec's hooks only at labels.  The label table is built
    once per label node and the jump table once per label node and
    policy under which the label's owner plays greedy; the decision row
    is called once per row built at a label whose owner chooses freely,
    and nothing is called per position for a status or a row."""
    game = EvalGame(generate_family("starN", 3), "w_0", parse(PHI_STAR),
                    OMEGA)
    calls = Counter()
    hook_kinds = set()
    _count_calls(monkeypatch, calls, hook_kinds,
                 (("_status", None), ("_successors", None))
                 + CODEC_LABEL_HOOKS)
    S, N = game._S, game._N
    label_nodes = [n for n in range(N) if game._kind[n] == F.LABEL]
    policies = set()
    free_rows = 0
    for greedy in (True, False):
        graph = game._explore(["w_0"], greedy, greedy)
        policy = (greedy, greedy)
        policies.add(policy)
        if greedy:
            win = graph.solve((0,))[0][0]
            policy = (win == _E, win == _A)
            policies.add(policy)
            game._build_rows(graph, game._reopen(graph, *policy), *policy)
        # Every label row of the graph was last built under ``policy``.
        free_rows += sum(game._kind[p // S % N] == F.LABEL
                         and not policy[st - _TURN_E]
                         for p, st in zip(graph.pos_list, graph.status)
                         if st >= _TURN_E)
    assert calls["_status"] == 2  # the two roots
    assert calls["_successors"] == 0
    assert hook_kinds == {F.LABEL}
    assert calls["_label_rule"] == len(label_nodes) == 2
    assert calls["_label_jump"] == sum(
        policy[game._kind[game.index.rf[n]] != F.MU]
        for policy in policies for n in label_nodes) > 0
    assert calls["_decision_row"] == free_rows > 0


def test_greedy_solve_calls_no_label_hook_per_position(monkeypatch):
    """A greedy verdict reads every label status and label row from the
    per-node tables: the codec's label hooks run once per label node to
    build them, and no label hook, decision row or status runs per
    explored position."""
    game = EvalGame(generate_family("starN", 3), "w_0", parse(PHI_STAR),
                    OMEGA)
    calls = Counter()
    _count_calls(monkeypatch, calls, set(),
                 (("_status", None), ("_successors", None),
                  ("_missing_row", None)) + CODEC_LABEL_HOOKS)
    winner, _ = game.solve("greedy")
    labels = sum(kind == F.LABEL for kind in game._kind)
    modal_cells = game._S * sum(kind in (F.DIAMOND, F.BOX)
                                for kind in game._kind)
    assert winner == "Eloise" and game.last_explored > 10 * modal_cells
    assert calls.pop("_missing_row") <= modal_cells  # modal rows, kept
    assert calls == {"_status": 1, "_label_rule": labels,
                     "_label_jump": labels}


def test_cap_hit_names_the_busiest_node(m1, phi_star):
    game = EvalGame(m1, "a", phi_star, 3)
    first = game._explore(["a"]).pos_list[:5]
    counts = Counter(game._public(p).node for p in first)
    node = max(counts, key=counts.get)
    with pytest.raises(GameLimitError) as err:
        EvalGame(m1, "a", phi_star, 3, max_positions=5).solve("exhaustive")
    message = str(err.value)
    assert message.startswith("position cap 5 exceeded while exploring")
    assert (f"the busiest node is {game.index.node_path[node]} "
            f"({F.render(phi_star, node)}) with {counts[node]} positions"
            in message)
