"""Random instances whose games reach two or more live clocks.

The sweeps run on models of two or three states, and most random
sentences play clock-free games.  Here every sentence nests 2-4 binders
that alternate between mu and nu, with every binder's label inside the
innermost one (``random_alternating_sentence``), on seeded random ring
models of 4-8 states.  Per instance the canonical game is held to the
compositional semantics, its strategies to every opponent playout, the
full-map oracle, the two-counter game's two modes, the position-model
export and the group evaluation of a disjoint union.
"""

import random

from mucheck import formula as F
from mucheck.compare import FULLMAP_MAX_POSITIONS, _disjoint_union, _FullMapGame
from mucheck.corpus import model_from_code
from mucheck.game import _E, ELOISE, EvalGame, StrategyError
from mucheck.reduction import build_position_model, solve_ar
from mucheck.semantics import OMEGA, eval_bounded, eval_group, eval_standard
from mucheck.variants import FBoundedGame
from naive_oracles import random_alternating_sentence

BOUNDS = (1, 2, 3, OMEGA)


def ring_model(rng, n):
    """A random model of ``n`` states on a broken ring: each state steps to
    the next with probability 0.8 and to a random state with probability
    0.4.  On its long paths fixpoints take many iterates, where on dense
    random models they stabilise at once."""
    edge_bits = 0
    for i in range(n):
        if rng.random() < 0.8:
            edge_bits |= 1 << (i * n + (i + 1) % n)
        if rng.random() < 0.4:
            edge_bits |= 1 << (i * n + rng.randrange(n))
    return model_from_code(n, edge_bits, rng.getrandbits(2 * n), ("p", "q"))


def alternating_instances(count=48, seed=14):
    """``count`` seeded ``(sentence, model, partner)`` triples: 2, 2, 3, 2,
    2 and 4 binders in turn; a ring model of 4-8 states, fewer as the
    binders grow (4 states for four binders); and a second model of the
    same card for the disjoint union."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        binders = (2, 2, 3, 2, 2, 4)[i % 6]
        sent = random_alternating_sentence(rng, binders, 4 * binders + 3)
        card = rng.randint(4, 12 - 2 * binders)
        out.append((sent, ring_model(rng, card), ring_model(rng, card)))
    return out


def disagreements(sent, model, partner):
    """The checks that fail on one instance, as ``(check, bound)`` pairs."""
    bad = []
    start = model.states[0]
    card = model.card
    truth = {g: eval_bounded(model, sent, g) for g in BOUNDS}
    if truth[OMEGA] != eval_standard(model, sent):
        bad.append(("omega-standard", OMEGA))
    wins = {}
    for g in BOUNDS:
        # Every state's winner, from the greedy graph.
        wins[g] = EvalGame(model, start, sent, g)._explore(
            model.states, True, True).winners(card)
        if [w == _E for w in wins[g]] \
                != [w in truth[g] for w in model.states]:
            bad.append(("game-bounded", g))
        for mode in ("greedy", "exhaustive"):
            game = EvalGame(model, start, sent, g)
            winner, strategy = game.solve(mode)
            if (winner == ELOISE) != (start in truth[g]):
                bad.append((f"{mode}-bounded", g))
            try:
                game.validate_strategy(winner, strategy)
            except StrategyError:
                bad.append((f"{mode}-strategy", g))
        # The export at omega on four binders would take longer than
        # every other check here together.
        if g is not OMEGA:
            red = build_position_model(model, start, sent, g)
            if solve_ar(red.model, red.root) != (start in truth[g]):
                bad.append(("position-model", g))
    slots = len(F.build_index(sent).mu_nu_nodes)
    for g in (2, 3):
        full_map = _FullMapGame(model, start, sent, g, FULLMAP_MAX_POSITIONS)
        graph = full_map._explore(model.states)
        if graph.winners(card) != wins[g]:
            bad.append(("full-map", g))
        # Winners never read a reset slot before its binder writes it
        # again, so a wrong reset value shows only in the codec's range:
        # every slot holds a clock below the cap, or the cap.
        if max(graph.pos_list) >= card * sent.size * (g + 1) ** slots:
            bad.append(("full-map-range", g))
    if card <= 5 and slots == 2:
        winners = {FBoundedGame(model, start, sent, 1).solve(mode)[0]
                   for mode in ("greedy", "exhaustive")}
        if len(winners) != 1:
            bad.append(("fbounded-modes", 1))
    union = _disjoint_union([model, partner])
    for g in (None,) + BOUNDS:
        mask = eval_group(union, model, sent, g)
        for k, member in enumerate((model, partner)):
            want = (eval_standard(member, sent) if g is None
                    else eval_bounded(member, sent, g))
            if mask >> k * card & model._full_mask \
                    != member.states_to_mask(want):
                bad.append(("group", g))
    return bad


def test_alternating_sentences_reach_their_clocks():
    """The generator's promise: binders alternate, and every label of the
    sentence occurs under a modality below the innermost binder, where
    every binder's clock is live."""
    for sent, _, _ in alternating_instances():
        index = F.build_index(sent)
        binders = index.mu_nu_nodes
        assert 2 <= len(binders) <= 4 and F.is_normal(sent)
        kinds = [sent.kind[b] for b in binders]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))
        inner = binders[-1]
        assert index.active_ancestors[inner] == binders[:-1]
        guarded = {sent.name[c] for n in range(sent.size)
                   if sent.kind[n] in (F.DIAMOND, F.BOX)
                   for c in sent.children[n] if sent.kind[c] == F.LABEL
                   and inner in index.active_ancestors[c]}
        assert guarded == {sent.name[b] for b in binders}


def test_alternating_instances_agree_across_engines():
    failures = [(F.render(sent), model.to_json_dict(), bad)
                for sent, model, partner in alternating_instances()
                for bad in [disagreements(sent, model, partner)] if bad]
    assert failures == []
