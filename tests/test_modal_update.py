"""Differential modal steps against the scan-based evaluator.

``semantics._diamond`` updates each diamond and box from its last target,
so its multi-word, shrinking and jumping target paths are checked here on
models far larger than the acceptance corpora's 1-3 states.  An empty or
full target, where an inner fixpoint restarts, bypasses the memo; the
random steps restart and return, and a read count on chain models pins
that a restart costs only what changed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naive_oracles import naive_box, naive_diamond, naive_eval_mask

from mucheck import formula as F
from mucheck.corpus import random_sentences
from mucheck.kripke import KripkeModel, generate_family
from mucheck.reduction import chi
from mucheck.semantics import (OMEGA, _eval_mask, approximant,
                               bound_iterations, eval_bounded, eval_standard)

MODAL = F.parse("<>X & []X", allow_free=True)
DIA = next(n for n in range(MODAL.size) if MODAL.kind[n] == F.DIAMOND)
BOX = next(n for n in range(MODAL.size) if MODAL.kind[n] == F.BOX)

THREE_BINDERS = "mu Z. nu X. [] mu Y. ((<>Y & q) | (p & X) | <>Z)"
NU_RESTART_UNDER_DIAMOND = "mu Z. nu X. [] nu Y. ((<>Y & q) | (p & X) | <>Z)"
MU_RESTART_UNDER_BOX = "mu Z. nu X. <> mu Y. (([]Y & q) | (p & X) | []Z)"

FORMULAS = [F.parse(text) for text in (
    "nu X. [] mu Y. (<>Y | (p & X))",
    "nu X. ([]X & mu Y. (p | <>Y))",
    THREE_BINDERS,
    "mu X. (p | []X)",
    NU_RESTART_UNDER_DIAMOND,
    MU_RESTART_UNDER_BOX,
)] + [chi()]

BOUNDS = (1, 2, 3, OMEGA)


@st.composite
def models(draw):
    """1-130 states; some dead ends, some self-loops, varied density."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    card = draw(st.integers(1, 130))
    density = draw(st.sampled_from((0.0, 0.02, 0.1, 0.5)))
    edges = []
    for i in range(card):
        if rng.random() < 0.2:
            continue
        if rng.random() < 0.3:
            edges.append((i, i))
        edges += [(i, j) for j in range(card) if rng.random() < density]
    if card > 1 and rng.random() < 0.5:
        edges += [(i, i + 1) for i in range(card - 1)]
    states = [f"s{i}" for i in range(card)]
    return KripkeModel(states, [(states[a], states[b]) for a, b in edges], {})


def _next_target(rng, card, target, step):
    full = (1 << card) - 1
    some = 0
    for _ in range(rng.randint(1, 3)):
        some |= 1 << rng.randrange(card)
    if step == "grow":
        return target | some
    if step == "shrink":
        return target & ~some
    if step == "jump":
        return rng.getrandbits(card) & full
    if step == "flip":
        return target ^ some
    if step == "empty":
        return 0
    if step == "full":
        return full
    return target


@settings(max_examples=300)
@given(models(), st.integers(0, 2 ** 32),
       st.lists(st.sampled_from(("grow", "shrink", "jump", "flip", "same",
                                 "empty", "full")),
                min_size=1, max_size=12))
def test_modal_update_matches_the_scan(model, seed, steps):
    rng = random.Random(seed)
    memo = {}
    target = rng.getrandbits(model.card)
    for step in ["same"] + steps:
        target = _next_target(rng, model.card, target, step)
        env = {"X": target}
        assert (_eval_mask(model, MODAL, DIA, env, None, memo)
                == naive_diamond(model, target))
        assert (_eval_mask(model, MODAL, BOX, env, None, memo)
                == naive_box(model, target))


@st.composite
def instances(draw):
    family = draw(st.sampled_from(("chain", "starN", "clique", "daggerN",
                                   "ar-grid")))
    n = draw(st.integers(6, 8) if family == "ar-grid" else st.integers(29, 69))
    if draw(st.booleans()):
        sent = draw(st.sampled_from(FORMULAS))
    else:
        seed = draw(st.integers(0, 10 ** 6))
        sent = random_sentences(1, seed, 14, 3)[0]
    return generate_family(family, n), sent


@settings(max_examples=100)
@given(instances())
def test_engines_match_the_scan_on_family_models(instance):
    model, sent = instance
    assert 30 <= model.card <= 70
    assert (eval_standard(model, sent)
            == model.mask_to_states(naive_eval_mask(model, sent, 0, {}, None)))
    for bound in BOUNDS:
        iters = bound_iterations(bound, model)
        expected = naive_eval_mask(model, sent, 0, {}, iters)
        assert eval_bounded(model, sent, bound) == model.mask_to_states(
            expected)
    if sent.kind[0] in F.BINDER_KINDS:
        body = sent.children[0][0]
        current = 0 if sent.kind[0] == F.MU else model._full_mask
        for steps in range(4):
            assert (approximant(model, sent, 0, 2, steps)
                    == model.mask_to_states(current))
            current = naive_eval_mask(model, sent, body,
                                      {sent.name[0]: current}, 2)


class _CountedReads:
    """A sequence that counts how often its items are read."""

    def __init__(self, items):
        self.items = items
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return self.items[i]


@pytest.mark.parametrize("n", (100, 200, 400))
@pytest.mark.parametrize("text", (THREE_BINDERS, NU_RESTART_UNDER_DIAMOND,
                                  MU_RESTART_UNDER_BOX))
def test_fixpoint_restarts_cost_only_what_changed(n, text):
    """Each restart of the inner fixpoint leaves the modal memo alone, so
    the diamond reads predecessor masks about 4n times in all, not once
    per state per outer iterate (about n*n when a restart swings the memo
    to the empty or full set and back)."""
    model = generate_family("chain", n)
    succ, pred, live = model.succ_pred_masks()
    counted = _CountedReads(pred)
    model._masks = (succ, counted, live)
    sent = F.parse(text)
    result = eval_standard(model, sent)
    assert counted.reads < 5 * n
    assert result == model.mask_to_states(
        naive_eval_mask(model, sent, 0, {}, None))
