"""Exhaustive and seeded-random instance generators for agreement sweeps.

Model enumeration walks every directed graph and every valuation over a
small state set; sentence enumeration builds every normal-form sentence
up to a node budget, assigning binder labels from a fixed pool in
pre-order so each alpha-class appears exactly once.
"""

import random

from . import formula as F
from .kripke import KripkeModel

LABEL_POOL = ("X", "Y", "Z", "X1", "Y1", "Z1", "X2", "Y2")


# ---------------------------------------------------------------------------
# Models.

def state_names(n):
    return tuple(f"s{i}" for i in range(n))


def model_from_code(n, edge_bits, val_bits, props):
    """Decode a model from its (state count, edge bitmap, valuation bitmap).

    Edge bit i*n+j encodes s_i -> s_j; valuation bits pack one state set
    per proposition, in order.
    """
    full = (1 << n) - 1
    rows = [[j for j in range(n) if edge_bits >> (i * n + j) & 1]
            for i in range(n)]
    val = {p: val_bits >> (k * n) & full for k, p in enumerate(props)}
    return KripkeModel._from_rows(state_names(n), rows, val)


def all_model_codes(n, props):
    for edge_bits in range(1 << (n * n)):
        for val_bits in range(1 << (n * len(props))):
            yield (n, edge_bits, val_bits)


def all_models(max_states, props=("p", "q")):
    """Every model with 1..max_states states over the given propositions."""
    for n in range(1, max_states + 1):
        for code in all_model_codes(n, props):
            yield model_from_code(*code, props)


def random_model(rng, n, props=("p", "q")):
    edge_bits = rng.getrandbits(n * n)
    val_bits = rng.getrandbits(n * len(props))
    return model_from_code(n, edge_bits, val_bits, props)


# ---------------------------------------------------------------------------
# Sentences.

def all_sentences(max_nodes, max_binders, props=("p", "q")):
    """Every normal-form sentence with at most the given nodes and binders.

    Returned in increasing size, deterministic order.  Binder labels come
    from LABEL_POOL in pre-order, so the enumeration contains one
    representative per alpha-equivalence class.
    """
    out = []
    for size in range(1, max_nodes + 1):
        for tree, _ in _gen(size, (), 0, max_binders):
            out.append(F.Sentence(tree))
    return out


def _gen(size, scope, next_label, binders_left):
    """Yield (tree, labels_used_after) for trees of exactly ``size`` nodes."""
    if size == 1:
        for p in ("p", "q"):
            yield (F.PROP, p, ()), next_label
            yield (F.NEGPROP, p, ()), next_label
        for lab in scope:
            yield (F.LABEL, lab, ()), next_label
        return
    for kind in (F.DIAMOND, F.BOX):
        for body, used in _gen(size - 1, scope, next_label, binders_left):
            yield (kind, None, (body,)), used
    if size >= 3:
        for left_size in range(1, size - 1):
            right_size = size - 1 - left_size
            for left, used_l in _gen(left_size, scope, next_label,
                                     binders_left):
                left_binders = used_l - next_label
                for right, used_r in _gen(right_size, scope, used_l,
                                          binders_left - left_binders):
                    yield (F.OR, None, (left, right)), used_r
                    yield (F.AND, None, (left, right)), used_r
    if binders_left > 0 and next_label < len(LABEL_POOL):
        lab = LABEL_POOL[next_label]
        for kind in (F.MU, F.NU):
            for body, used in _gen(size - 1, scope + (lab,), next_label + 1,
                                   binders_left - 1):
                yield (kind, lab, (body,)), used


def random_sentence(rng, max_nodes, max_binders, props=("p", "q")):
    """One random sentence with the given budgets (at least one node)."""

    def build(budget, scope, binders_left):
        # Leaf when out of budget, otherwise pick an operator that fits.
        if budget <= 1:
            choices = ["atom"]
        else:
            choices = ["atom", "modal", "modal"]
            if budget >= 3:
                choices += ["binary", "binary"]
            if binders_left > 0:
                choices += ["binder", "binder"]
        pick = rng.choice(choices)
        if pick == "atom":
            atoms = [(F.PROP, p, ()) for p in props]
            atoms += [(F.NEGPROP, p, ()) for p in props]
            atoms += [(F.LABEL, lab, ()) for lab in scope]
            return rng.choice(atoms), 0
        if pick == "modal":
            kind = rng.choice((F.DIAMOND, F.BOX))
            body, used = build(budget - 1, scope, binders_left)
            return (kind, None, (body,)), used
        if pick == "binary":
            kind = rng.choice((F.OR, F.AND))
            left_budget = rng.randint(1, budget - 2)
            left, used_l = build(left_budget, scope, binders_left)
            right, used_r = build(budget - 1 - left_budget, scope,
                                  binders_left - used_l)
            return (kind, None, (left, right)), used_l + used_r
        kind = rng.choice((F.MU, F.NU))
        depth = len(scope)
        lab = LABEL_POOL[depth] if depth < len(LABEL_POOL) else f"L{depth}"
        body, used = build(budget - 1, scope + (lab,), binders_left - 1)
        return (kind, lab, (body,)), used + 1

    tree, _ = build(max_nodes, (), max_binders)
    return F.normalize(F.Sentence(tree))


def random_sentences(count, seed, max_nodes, max_binders, props=("p", "q")):
    rng = random.Random(seed)
    return [random_sentence(rng, max_nodes, max_binders, props)
            for _ in range(count)]


# ---------------------------------------------------------------------------
# AR models (vocabulary p_B / q_B).

AR_PROPS = ("p_B", "q_B")


def random_ar_model(rng, n):
    return random_model(rng, n, AR_PROPS)
