"""The sweeps refine their greedy graphs into every-choice graphs in place.

``GameCore._refine`` reopens every clock and counter decision of a graph
explored under the greedy policy and builds those rows, and what they
reach, under every choice.  The result must be the graph a fresh
every-choice exploration finds, up to numbering: the same positions, the
same edges between them and the same winners at the start states.  Its
cached order is the numbering, ``range(n)``, exactly when every edge
points forward.
"""

import random

from mucheck import compare, corpus
from mucheck import formula as F
from mucheck.corpus import random_ar_model
from mucheck.game import EvalGame
from mucheck.kripke import generate_family
from mucheck.reduction import chi
from mucheck.variants import FBoundedGame


def _forward(graph):
    """Whether every edge of the graph goes to a higher id."""
    return all(j > i for i, row in enumerate(graph.succs) for j in row)


def _edges(graph):
    pos = graph.pos_list
    return {(pos[i], pos[j]) for i, row in enumerate(graph.succs)
            for j in row}


def _check(game, starts):
    """Refine the greedy graph from ``starts`` and hold it against a fresh
    every-choice exploration; returns whether the refined numbering
    stayed the order."""
    card = len(starts)
    graph = game._explore(starts, True, True)
    graph.winners(card)  # as the sweeps read it before refining
    greedy = list(graph.pos_list)
    refined = game._refine(graph)
    assert refined is graph
    assert refined.pos_list[:len(greedy)] == greedy
    assert game.last_explored == len(refined)
    forward = _forward(refined)
    assert (refined._topo == range(len(refined))) is forward
    fresh = game._explore(starts)
    assert set(refined.pos_list) == set(fresh.pos_list)
    assert len(refined.pos_list) == len(refined.pos_id) == len(fresh)
    assert _edges(refined) == _edges(fresh)
    assert refined.winners(card) == fresh.winners(card)
    return forward


def test_refined_two_counter_graphs_on_chi():
    rng = random.Random("refine-every-choice")
    sent = chi()
    for n in (1, 2, 3, 4):
        for _ in range(6):
            model = random_ar_model(rng, n)
            _check(FBoundedGame(model, model.states[0], sent, 1),
                   model.states)


def test_refined_two_counter_graph_on_a_chain():
    model = generate_family("chain", 4)
    game = FBoundedGame(model, "w_0",
                        F.parse("nu X. ([]X & mu Y. (p | <>Y))"), 1)
    _check(game, ["w_0"])


def test_refined_clock_graphs_on_card_group_unions():
    """Greedy to exhaustive on the union models of the clock-policy
    sweep's card groups.  Some refinements keep the numbering as the
    order and some add a row that points back."""
    seen = set()
    sents = corpus.all_sentences(3, 1)[::5] + corpus.random_sentences(
        5, 11, 9, 2) + [F.parse("mu X. (p | <> X)")]
    for sent in sents:
        vocab = compare._sentence_vocab(sent)
        for union, _ in compare._card_groups(compare._model_classes(2, vocab)):
            for bound in (1, 2, 3):
                game = EvalGame(union, union.states[0], sent, bound)
                seen.add(_check(game, union.states))
    assert seen == {True, False}
