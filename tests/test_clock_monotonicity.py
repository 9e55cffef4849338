"""Winners are monotone in the clocks.

A larger mu clock gives Eloise more unfoldings of her fixpoint, and a
larger nu clock gives Abelard more of his.  So at any explored position
of the clock-bounded game, an Eloise win stays an Eloise win when one mu
clock is one larger, and an Abelard win stays an Abelard win when one nu
clock is one larger.  Greedy mode rests on this: the largest clock
choice is then always a best one.
"""

import random

from mucheck import formula as F
from mucheck.corpus import random_model, random_sentences
from mucheck.game import EvalGame, _A, _E
from mucheck.semantics import OMEGA


def _pairs(game, graph, win):
    """(binder kind, winner at p, winner at p's neighbour) for every
    explored p and clock slot k whose value d has ``d + 1 < clock_cap``
    and whose neighbour ``p + unit[k]``, the same position with that
    clock one larger, was explored too."""
    S, N, R = game._S, game._N, game._R
    cap = game.clock_cap
    units = game._slot_unit
    anc = game.index.active_ancestors
    kind = game._kind
    pos_id = graph.pos_id
    for i, p in enumerate(graph.pos_list):
        for k, binder in enumerate(anc[p // S % N]):
            if p // units[k] % R + 1 < cap:
                j = pos_id.get(p + units[k])
                if j is not None:
                    yield kind[binder], win[i], win[j]


def test_winners_are_monotone_in_the_clocks():
    rng = random.Random("clock monotonicity")
    models = [random_model(rng, n) for n in (2, 3, 3, 4)]
    pairs = {F.MU: 0, F.NU: 0}
    for sent in random_sentences(150, 1, 9, 3):
        for model in models:
            for bound in (2, 3, OMEGA):
                game = EvalGame(model, model.states[0], sent, bound)
                graph = game._explore(model.states)
                for kind, before, after in _pairs(game, graph,
                                                  graph.winners()):
                    pairs[kind] += 1
                    if kind == F.MU:
                        assert before != _E or after == _E, (sent, bound)
                    else:
                        assert before != _A or after == _A, (sent, bound)
    assert pairs[F.MU] > 10_000 and pairs[F.NU] > 10_000
