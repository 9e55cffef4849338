"""The full-map oracle is a plain position codec.

``compare._FullMapGame`` keeps one clock slot per Mu/Nu node, and an
untouched slot holds the clock cap.  It gives the shared explorer only
its codec; ``_public`` decodes a position's slots for the tests, and no
public-position API of the canonical game is left to misread them.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from mucheck import formula as F
from mucheck.compare import _FullMapGame
from mucheck.corpus import random_model, random_sentence
from mucheck.game import _TURN_E, EvalGame, Position


def test_initial_position_is_the_root(m1, afp):
    """``_root`` holds every slot at the cap, the explorer numbers the
    roots first, and their winners are the canonical game's."""
    game = _FullMapGame(m1, "a", afp, 2, 10 ** 6)
    assert game._public(game._root(0)) == Position("a", 0, (2,))
    graph = game._explore(m1.states)
    assert graph.pos_list[:m1.card] == [game._root(si)
                                        for si in range(m1.card)]
    canonical = EvalGame(m1, "a", afp, 2)._explore(m1.states)
    assert graph.winners(m1.card) == canonical.winners(m1.card)


@settings(max_examples=100)
@given(st.integers(0, 2 ** 32), st.integers(1, 4))
def test_fullmap_codec_inverts(seed, cap):
    """Slot k of binder k sits at weight ``R**k`` above ``S * N``, with
    ``R = cap + 1``, and the root holds every slot at the cap."""
    rng = random.Random(seed)
    model = random_model(rng, rng.randint(1, 3))
    sent = F.normalize(random_sentence(rng, 9, 3))
    game = _FullMapGame(model, model.states[0], sent, cap, 10 ** 6)
    S, N, R = model.card, sent.size, cap + 1
    slots = len(game.index.mu_nu_nodes)
    for si in range(S):
        assert game._public(game._root(si)) == Position(
            model.states[si], 0, (cap,) * slots)
    for _ in range(20):
        si, node = rng.randrange(S), rng.randrange(N)
        clocks = tuple(rng.randint(0, cap) for _ in range(slots))
        p = si + S * (node + N * sum(v * R ** k
                                     for k, v in enumerate(clocks)))
        assert game._public(p) == Position(model.states[si], node, clocks)


def test_fullmap_game_has_no_public_position_api(m1, afp):
    """The oracle is no EvalGame, so no method that reads canonical clock
    tuples can decode its slots; its winners still come from the
    explorer."""
    game = _FullMapGame(m1, "a", afp, 2, 10 ** 6)
    assert not isinstance(game, EvalGame)
    for name in ("initial_position", "make_position", "describe_position",
                 "position_json", "solve", "_internal"):
        assert not hasattr(game, name), name
    assert len(game._explore(m1.states).winners(m1.card)) == m1.card


def test_fullmap_strategies_validate():
    """The first winning moves that solving the oracle's explored graph
    picks form winning strategies: a mover who wins picks a successor it
    wins, a mover who loses loses at every successor, and a terminal's
    winner is its status.  The graph is acyclic, so play ends and these
    local checks make every winner right; the start winners are also the
    canonical game's at the same cap."""
    rng = random.Random("full-map strategies")
    for _ in range(12):
        model = random_model(rng, rng.randint(1, 3))
        sent = F.normalize(random_sentence(rng, 9, 3))
        cap = rng.randint(1, 3)
        game = _FullMapGame(model, model.states[0], sent, cap, 10 ** 6)
        graph = game._explore(model.states)
        graph.topo_order()
        win, pick = graph.solve(range(len(graph)))
        assert len(win) == len(graph)
        for i, (status, row) in enumerate(zip(graph.status, graph.succs)):
            if status < _TURN_E:
                assert win[i] == status and row == ()
                continue
            mover = status - _TURN_E
            if win[i] == mover:
                assert win[row[pick[i]]] == mover
            else:
                assert pick[i] == -1
                assert all(win[j] != mover for j in row)
        canonical = EvalGame(model, model.states[0], sent, cap)
        assert win[:model.card] == canonical._explore(
            model.states).winners(model.card)


def _edges_by_node(game, graph):
    """(node, slots of p, slots of q) for every explored edge p -> q."""
    for i, row in enumerate(graph.succs):
        p = game._public(graph.pos_list[i])
        for j in row:
            yield p.node, p.clocks, game._public(graph.pos_list[j]).clocks


def test_descriptions_name_each_slots_binder(m1):
    """Sibling binders: a move at the second binder or at its label
    writes the second binder's slot, below its old value, and leaves the
    first binder's slot as it was; and the other way round."""
    sent = F.parse("(mu X. (p | <>X)) & (nu Y. []Y)")
    game = _FullMapGame(m1, "a", sent, 2, 10 ** 6)
    x, y = game.index.mu_nu_nodes
    S, N, R = m1.card, sent.size, 3
    assert game._public(0 + S * (y + 1 + N * (0 + 1 * R))) == Position(
        "a", y + 1, (0, 1))
    written = {0: 0, 1: 0}
    for node, before, after in _edges_by_node(game, game._explore(
            m1.states)):
        if node in (x, y):
            binder = node
        elif sent.kind[node] == F.LABEL:
            binder = game._rf[node]
        else:
            assert after == before
            continue
        k = (x, y).index(binder)
        assert after[1 - k] == before[1 - k]
        assert after[k] < (2 if node == binder else before[k])
        written[k] += 1
    assert written[0] and written[1]


def test_make_position_fills_every_slot(m1):
    """Every explored position, at a node under fewer binders than the
    sentence has too, has one slot per binder, and the slot of every
    binder that is no strict ancestor of its node holds the cap."""
    for text in ("(mu X. (p | <>X)) & (nu Y. []Y)",
                 "mu X. nu Y. ((p & <>X) | []Y)"):
        sent = F.parse(text)
        game = _FullMapGame(m1, "a", sent, 2, 10 ** 6)
        binders = game.index.mu_nu_nodes
        graph = game._explore(m1.states)
        nodes = set()
        for p in graph.pos_list:
            pos = game._public(p)
            nodes.add(pos.node)
            assert len(pos.clocks) == len(binders)
            anc = game.index.active_ancestors[pos.node]
            for b, v in zip(binders, pos.clocks):
                if b not in anc:
                    assert v == 2, (text, pos)
        assert nodes == set(range(sent.size)), text
