"""Compositional semantics: standard fixed points and clock-bounded iterates.

The standard engine computes least/greatest fixed points by plain Kleene
iteration until stabilization and serves as the oracle for everything
else.  The bounded engine runs each fixpoint operator for at most a given
number of steps; the bound ``OMEGA`` admits every finite clock value,
which on a finite model collapses to ``max(1, card(M))`` steps because
every monotone operator on the model's powerset stabilizes within
``card(M)`` iterations.

Modal steps are differential, as in the linear-time alternation-free
algorithm of Cleaveland & Steffen (1993): each diamond remembers its last
target and result, and a new target is applied through the states that
left or joined it and their predecessors, so an iterate costs what
changed rather than a scan of every state.  A box is the dual diamond,
``[]T = ~<>~T``.  The update is exact for any pair of targets, so results
and iteration counts are those of a full scan.

A target of the empty set or of every state is answered without the memo:
``<>{}`` is empty and ``<>S`` is the states with a successor, cached with
the model's masks.  These are the targets an inner fixpoint restarts from
(mu from the empty set, nu from every state; under a box the dual), so
the memo keeps the last real target across each restart, and a restart
costs the difference between the previous final value and the new first
iterate rather than two swings through every state.
"""

from . import formula as F


class _Omega:
    """The bound admitting all finite clock values."""

    __slots__ = ()

    def __repr__(self):
        return "omega"

    def __reduce__(self):
        # Unpickle as the module's singleton, so ``is OMEGA`` survives
        # worker processes.
        return "OMEGA"


OMEGA = _Omega()


class BoundError(Exception):
    """Raised for malformed clock bounds."""


class UnboundLabelError(Exception):
    """A free label was evaluated without an assignment for it."""


def check_bound(bound):
    if bound is OMEGA:
        return
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 1:
        raise BoundError(f"clock bound must be a positive integer or OMEGA, "
                         f"got {bound!r}")


def bound_iterations(bound, model):
    """Number of operator iterations the bound allows on ``model``."""
    check_bound(bound)
    if bound is OMEGA:
        return max(1, model.card)
    return bound


def clock_cap(bound, model):
    """One above the largest clock value a binder may announce under the
    bound: ``card(M) + 1`` for OMEGA, else the bound itself."""
    return model.card + 1 if bound is OMEGA else bound


def parse_bound(text):
    """Read a bound from CLI text: a positive integer or 'omega' / 'w'."""
    if text in ("omega", "w"):
        return OMEGA
    try:
        value = int(text)
    except ValueError:
        raise BoundError(f"invalid clock bound {text!r}") from None
    check_bound(value)
    return value


def format_bound(bound):
    return "omega" if bound is OMEGA else str(bound)


def _env_from_assignment(model, assignment):
    if not assignment:
        return {}
    from .kripke import check_assignment
    check_assignment(model, assignment)
    return {name: model.states_to_mask(ws) for name, ws in assignment.items()}


def _diamond(model, memo, node, target):
    """States with a successor in ``target``, updated from the last call.

    ``memo[node]`` holds the modal node's last ``(target, result)``.
    States that left the target make their predecessors candidates, and
    only candidates inside the old result are re-tested against the new
    target; states that joined it add their predecessors.  An empty or
    full target (a fixpoint restart) is answered directly and leaves
    ``memo[node]`` as it was.
    """
    if not target:
        return 0
    if target == model._full_mask:
        return (model._masks or model.succ_pred_masks())[2]
    old, result = memo.get(node, (0, 0))
    if old == target:
        return result
    succ, pred, _ = model._masks or model.succ_pred_masks()
    gone = old & ~target
    if gone:
        cand = 0
        while gone:
            low = gone & -gone
            cand |= pred[low.bit_length() - 1]
            gone ^= low
        cand &= result
        while cand:
            low = cand & -cand
            if not succ[low.bit_length() - 1] & target:
                result ^= low
            cand ^= low
    joined = target & ~old
    while joined:
        low = joined & -joined
        result |= pred[low.bit_length() - 1]
        joined ^= low
    memo[node] = (target, result)
    return result


def _eval_mask(model, sent, node, env, iters, memo):
    """Evaluate the subformula at ``node`` to a state bitmask.

    ``env`` maps label names to masks.  ``iters`` is None for the standard
    semantics (iterate fixpoints until stable) or the maximum number of
    iterations under a finite bound.  ``memo`` is one evaluation's record
    of each modal node's last target and result (see ``_diamond``): inside
    a fixpoint consecutive targets differ in a few states, so a diamond or
    box costs O(changed states and their predecessors), not O(card).
    """
    kind = sent.kind[node]
    if kind == F.PROP:
        return model._val_mask.get(sent.name[node], 0)
    if kind == F.NEGPROP:
        return model._full_mask & ~model._val_mask.get(sent.name[node], 0)
    if kind == F.LABEL:
        try:
            return env[sent.name[node]]
        except KeyError:
            raise UnboundLabelError(
                f"no assignment for free label {sent.name[node]!r}") from None
    kids = sent.children[node]
    if kind == F.OR:
        return (_eval_mask(model, sent, kids[0], env, iters, memo)
                | _eval_mask(model, sent, kids[1], env, iters, memo))
    if kind == F.AND:
        return (_eval_mask(model, sent, kids[0], env, iters, memo)
                & _eval_mask(model, sent, kids[1], env, iters, memo))
    if kind == F.DIAMOND:
        return _diamond(model, memo, node,
                        _eval_mask(model, sent, kids[0], env, iters, memo))
    if kind == F.BOX:
        full = model._full_mask
        target = _eval_mask(model, sent, kids[0], env, iters, memo)
        return full & ~_diamond(model, memo, node, full & ~target)
    # Mu / Nu: iterate the operator A |-> [[body]](X := A).
    name = sent.name[node]
    body = kids[0]
    current = 0 if kind == F.MU else model._full_mask
    remaining = -1 if iters is None else iters
    inner = dict(env)
    while remaining != 0:
        inner[name] = current
        updated = _eval_mask(model, sent, body, inner, iters, memo)
        if updated == current:
            break
        current = updated
        if remaining > 0:
            remaining -= 1
    return current


def eval_standard(model, sent, node=0, assignment=None):
    """States satisfying the subformula at ``node`` (standard semantics)."""
    env = _env_from_assignment(model, assignment)
    return model.mask_to_states(_eval_mask(model, sent, node, env, None, {}))


def eval_bounded(model, sent, bound, node=0, assignment=None):
    """States satisfying the subformula at ``node`` under a clock bound.

    Every fixpoint operator (at this node and below) runs for at most
    ``bound`` iterations; ``OMEGA`` runs to stabilization, which a finite
    model reaches within ``card(M)`` steps.
    """
    iters = bound_iterations(bound, model)
    env = _env_from_assignment(model, assignment)
    return model.mask_to_states(_eval_mask(model, sent, node, env, iters, {}))


def eval_group(union, member, sent, bound=None):
    """Bitmask of the states of ``union`` that satisfy the sentence, under
    the standard semantics (``bound`` None) or under a clock bound.

    ``union`` is a disjoint union of models with the same card, and
    ``member`` is one of them; the mask's bits ``k * card`` to
    ``(k + 1) * card - 1`` are the k-th model's states.  Every operator
    works component by component, so each slice is that model's own
    result: a fixpoint run for n iterations computes each component's
    n-th iterate, and the union is stable only once every component is.
    The iteration count comes from ``member``, never from the union,
    since OMEGA depends on the card.
    """
    iters = None if bound is None else bound_iterations(bound, member)
    return _eval_mask(union, sent, 0, {}, iters, {})


def approximant(model, sent, binder, bound, steps, assignment=None):
    """The ``steps``-th iterate of the bounded operator at a Mu/Nu node.

    Starts from the empty set for Mu and the full state set for Nu and
    applies the operator exactly ``steps`` times (no early stop), with the
    operator itself evaluated under ``bound``.
    """
    kind = sent.kind[binder]
    if kind not in F.BINDER_KINDS:
        raise ValueError("approximant requires a Mu or Nu node")
    if steps < 0:
        raise ValueError("approximant step count must be nonnegative")
    iters = bound_iterations(bound, model)
    env = _env_from_assignment(model, assignment)
    name = sent.name[binder]
    body = sent.children[binder][0]
    current = 0 if kind == F.MU else model._full_mask
    memo = {}
    for _ in range(steps):
        env[name] = current
        current = _eval_mask(model, sent, body, env, iters, memo)
    return model.mask_to_states(current)
