"""Brute-force game oracles, independent of the solver implementation.

These re-derive winners straight from the game rules by plain recursion
over full clock dictionaries, with no memoization, canonicalization, or
graph sharing.  Only usable on tiny instances.
"""

from mucheck import formula as F
from mucheck.formula import BINDER_KINDS
from mucheck.game import ABELARD, ELOISE
from mucheck.kripke import KripkeModel
from mucheck.variants import UNDETERMINED

TOP = "top"


def _subtree_spans(sent):
    end = [0] * sent.size

    def walk(nid):
        stop = nid + 1
        for c in sent.children[nid]:
            stop = walk(c)
        end[nid] = stop
        return stop

    walk(0)
    return end


def naive_bounded_winner(model, sent, state, cap):
    """Winner of the clock game where announced values range over 0..cap-1.

    For a finite bound k pass cap=k; for the omega bound on a finite model
    pass cap=card(M)+1.
    """
    if not F.is_normal(sent):
        sent = F.normalize(sent)
    idx = F.build_index(sent)
    end = _subtree_spans(sent)
    binders = idx.mu_nu_nodes
    kind = sent.kind
    name = sent.name
    children = sent.children

    def eloise_wins(w, node, clocks):
        k = kind[node]
        if k == F.PROP:
            return w in model.states_true(name[node])
        if k == F.NEGPROP:
            return w not in model.states_true(name[node])
        if k == F.OR:
            return any(eloise_wins(w, c, clocks) for c in children[node])
        if k == F.AND:
            return all(eloise_wins(w, c, clocks) for c in children[node])
        if k == F.DIAMOND:
            succs = model.successors(w)
            return any(eloise_wins(v, children[node][0], clocks)
                       for v in succs)
        if k == F.BOX:
            succs = model.successors(w)
            return all(eloise_wins(v, children[node][0], clocks)
                       for v in succs)
        if k == F.MU or k == F.NU:
            body = children[node][0]
            outcomes = (eloise_wins(w, body, {**clocks, node: g})
                        for g in range(cap))
            return any(outcomes) if k == F.MU else all(outcomes)
        # label
        rf = idx.rf[node]
        gamma = clocks[rf]
        if gamma == TOP:
            gamma = cap
        if gamma == 0:
            return kind[rf] == F.NU
        body = children[rf][0]
        lo, hi = children[rf][0], end[children[rf][0]]
        outcomes = []
        for g in range(gamma):
            c2 = dict(clocks)
            c2[rf] = g
            for b in binders:
                if lo <= b < hi:
                    c2[b] = TOP
            outcomes.append((g, c2))
        if kind[rf] == F.MU:
            return any(eloise_wins(w, body, c2) for _, c2 in outcomes)
        return all(eloise_wins(w, body, c2) for _, c2 in outcomes)

    clocks0 = {b: TOP for b in binders}
    return ELOISE if eloise_wins(state, 0, clocks0) else ABELARD


def naive_fbounded_winner(model, sent, state, f):
    """Winner of the two-counter game with arbitrary decrements."""
    if not F.is_normal(sent):
        sent = F.normalize(sent)
    idx = F.build_index(sent)
    kind = sent.kind
    name = sent.name
    children = sent.children

    def eloise_wins(w, node, ge, ga):
        k = kind[node]
        if k == F.PROP:
            return w in model.states_true(name[node])
        if k == F.NEGPROP:
            return w not in model.states_true(name[node])
        if k == F.OR:
            return any(eloise_wins(w, c, ge, ga) for c in children[node])
        if k == F.AND:
            return all(eloise_wins(w, c, ge, ga) for c in children[node])
        if k == F.DIAMOND:
            return any(eloise_wins(v, children[node][0], ge, ga)
                       for v in model.successors(w))
        if k == F.BOX:
            return all(eloise_wins(v, children[node][0], ge, ga)
                       for v in model.successors(w))
        if k in BINDER_KINDS:
            return eloise_wins(w, children[node][0], ge, ga)
        rf = idx.rf[node]
        body = children[rf][0]
        if kind[rf] == F.MU:
            if ge == 0:
                return False
            return any(eloise_wins(w, body, g, ga) for g in range(ge))
        if ga == 0:
            return True
        return all(eloise_wins(w, body, ge, g) for g in range(ga))

    return ELOISE if eloise_wins(state, 0, f, f) else ABELARD


def naive_free_verdict(model, sent, state):
    """Free-game verdict via depth-bounded forcing.

    A player can force a win from a position iff they can force it within
    as many rounds as there are positions, so a horizon of
    card(M) * size + 1 decides both players' regions.
    """
    if not F.is_normal(sent):
        sent = F.normalize(sent)
    idx = F.build_index(sent)
    kind = sent.kind
    name = sent.name
    children = sent.children
    horizon = model.card * sent.size + 1

    def moves(w, node):
        k = kind[node]
        if k == F.OR or k == F.AND:
            return [(w, c) for c in children[node]]
        if k == F.DIAMOND or k == F.BOX:
            return [(v, children[node][0]) for v in model.successors(w)]
        if k in BINDER_KINDS:
            return [(w, children[node][0])]
        return [(w, children[idx.rf[node]][0])]

    def terminal(w, node):
        k = kind[node]
        if k == F.PROP:
            return ELOISE if w in model.states_true(name[node]) else ABELARD
        if k == F.NEGPROP:
            return ABELARD if w in model.states_true(name[node]) else ELOISE
        if k == F.DIAMOND and not model.successors(w):
            return ABELARD
        if k == F.BOX and not model.successors(w):
            return ELOISE
        return None

    def owner(node):
        k = kind[node]
        if k in (F.OR, F.DIAMOND, F.MU):
            return ELOISE
        if k in (F.AND, F.BOX, F.NU):
            return ABELARD
        return ELOISE if kind[idx.rf[node]] == F.MU else ABELARD

    memo = {}

    def forces(player, w, node, depth):
        t = terminal(w, node)
        if t is not None:
            return t == player
        if depth == 0:
            return False
        key = (player, w, node, depth)
        if key in memo:
            return memo[key]
        nxt = moves(w, node)
        if owner(node) == player:
            out = any(forces(player, v, m, depth - 1) for v, m in nxt)
        else:
            out = all(forces(player, v, m, depth - 1) for v, m in nxt)
        memo[key] = out
        return out

    if forces(ELOISE, state, 0, horizon):
        return ELOISE
    if forces(ABELARD, state, 0, horizon):
        return ABELARD
    return UNDETERMINED


def naive_eval_mask(model, sent, node, env, iters):
    """Scan-based compositional evaluation of ``node`` to a state bitmask.

    The evaluator as it stood before modal steps became differential:
    every diamond and box application tests every state's successors.
    ``env`` maps label names to masks; ``iters`` is None for the standard
    semantics or the iteration count of a finite bound.
    """
    kind = sent.kind[node]
    if kind == F.PROP:
        return model._val_mask.get(sent.name[node], 0)
    if kind == F.NEGPROP:
        return model._full_mask & ~model._val_mask.get(sent.name[node], 0)
    if kind == F.LABEL:
        return env[sent.name[node]]
    kids = sent.children[node]
    if kind == F.OR:
        return (naive_eval_mask(model, sent, kids[0], env, iters)
                | naive_eval_mask(model, sent, kids[1], env, iters))
    if kind == F.AND:
        return (naive_eval_mask(model, sent, kids[0], env, iters)
                & naive_eval_mask(model, sent, kids[1], env, iters))
    if kind == F.DIAMOND:
        return naive_diamond(model, naive_eval_mask(model, sent, kids[0],
                                                    env, iters))
    if kind == F.BOX:
        return naive_box(model, naive_eval_mask(model, sent, kids[0],
                                                env, iters))
    name = sent.name[node]
    body = kids[0]
    current = 0 if kind == F.MU else model._full_mask
    remaining = -1 if iters is None else iters
    inner = dict(env)
    while remaining != 0:
        inner[name] = current
        updated = naive_eval_mask(model, sent, body, inner, iters)
        if updated == current:
            break
        current = updated
        if remaining > 0:
            remaining -= 1
    return current


def naive_diamond(model, target):
    """States with some successor in ``target``, by scanning every state."""
    return sum(1 << i for i, succs in enumerate(model._succ)
               if any(target >> v & 1 for v in succs))


def naive_box(model, target):
    """States whose successors all lie in ``target``, by scanning."""
    return sum(1 << i for i, succs in enumerate(model._succ)
               if all(target >> v & 1 for v in succs))


def union_by_names(models):
    """The disjoint union of same-card models built through state names:
    state ``w`` of the k-th model is named ``k:w``."""
    if len(models) == 1:
        return models[0]
    states, edges, val = [], [], {}
    for k, model in enumerate(models):
        name = {w: f"{k}:{w}" for w in model.states}
        states.extend(name[w] for w in model.states)
        edges.extend((name[a], name[b]) for a, b in model.relation)
        for p, ws in model.valuation.items():
            val.setdefault(p, []).extend(name[w] for w in ws)
    return KripkeModel(states, edges, val)
