"""Two-counter and clock-free evaluation game variants.

The f-bounded game replaces per-binder clocks with one global counter per
player: Eloise's counter drops every time play returns from a label to a
mu-binder, Abelard's on returns to a nu-binder, and a player forced to
lower an exhausted counter loses.  Both counters start at
``card(M)^k * size(formula)``.  Binder positions make no announcement and
step straight into the body.  ``FBoundedGame`` is only a position codec
for the shared ``GameCore`` explorer and solver.

The free game drops counters entirely: only literal positions and stuck
movers end play, so neither player may have a winning strategy and the
verdict can be Undetermined.  ``_FreeGame`` is its position codec, and the
shared attractor solves it: over every (state, node) pair for the
regions, over the positions reachable from the start for a verdict.
"""

from typing import NamedTuple

from . import formula as F
from .game import (ABELARD, DEFAULT_MAX_POSITIONS, ELOISE, GameCore,
                   _TURN_A, _TURN_E, _WON_A, _WON_E, _A, _E, _attractor)

UNDETERMINED = "Undetermined"


class FPosition(NamedTuple):
    state: str
    node: int
    gamma_e: int
    gamma_a: int


class FreePosition(NamedTuple):
    state: str
    node: int


def f_value(model, sentence, k=1):
    """Initial counter value: card(M)^k times the sentence's node count."""
    if k < 1:
        raise ValueError("the exponent k must be at least 1")
    return model.card ** k * sentence.size


class FBoundedGame(GameCore):
    """Two-counter evaluation game for (model, state, sentence, k)."""

    def __init__(self, model, state, sentence, k=1,
                 max_positions=DEFAULT_MAX_POSITIONS):
        super().__init__(model, state, sentence, max_positions)
        self.k = k
        self.f = f_value(model, self.sentence, k)

    def initial_position(self):
        return FPosition(self.start, 0, self.f, self.f)

    def describe_position(self, pos):
        return (f"({pos.state}, {self.index.node_path[pos.node]}, "
                f"gE={pos.gamma_e}, gA={pos.gamma_a})")

    def position_json(self, pos):
        return {
            "state": pos.state,
            "node": self.index.node_path[pos.node],
            "formula": F.render(self.sentence, pos.node),
            "gamma_e": pos.gamma_e,
            "gamma_a": pos.gamma_a,
        }

    def _root(self, si):
        return (si, 0, self.f, self.f)

    def _internal(self, pos):
        si = self.model.state_index(pos.state)
        if not 0 <= pos.node < self.sentence.size:
            raise ValueError(f"node {pos.node} is not in the sentence")
        if pos.gamma_e < 0 or pos.gamma_a < 0:
            raise ValueError("counters must be nonnegative")
        return (si, pos.node, pos.gamma_e, pos.gamma_a)

    def _public(self, ipos):
        si, node, ge, ga = ipos
        return FPosition(self.model.states[si], node, ge, ga)

    _decision_kinds = (F.LABEL,)

    def _label_status(self, ipos):
        if self._rf_is_mu[ipos[1]]:
            return _TURN_E if ipos[2] else _WON_A
        return _TURN_A if ipos[3] else _WON_E

    def _moves(self, ipos, eloise_greedy=False, abelard_greedy=False):
        si, node, ge, ga = ipos
        kind = self._kind[node]
        if kind == F.OR or kind == F.AND:
            left, right = self._children[node]
            return (si, left, ge, ga), (si, right, ge, ga)
        if kind == F.DIAMOND or kind == F.BOX:
            child = self._children[node][0]
            return [(v, child, ge, ga) for v in self._succ[si]]
        if kind == F.MU or kind == F.NU:
            # No announcement: step into the body with counters unchanged.
            return ((si, self._children[node][0], ge, ga),)
        body = self._rf_body[node]
        if self._rf_is_mu[node]:
            choices = (ge - 1,) if eloise_greedy else range(ge - 1, -1, -1)
            return [(si, body, g, ga) for g in choices]
        choices = (ga - 1,) if abelard_greedy else range(ga - 1, -1, -1)
        return [(si, body, ge, g) for g in choices]

    def solve(self, mode="greedy"):
        """Winner plus a winning strategy, as in the clock-bounded game.

        Greedy mode lowers counters by exactly one; exhaustive mode
        explores every allowed decrement.  The visited position count is
        checked against card(M) * size * (f+1)^2 on every run; checking
        the final graph suffices, since in greedy mode the greedy graph
        is refined in place into it.
        """
        result = self._solve(mode)
        limit = self.model.card * self.sentence.size * (self.f + 1) ** 2
        if self.last_explored > limit:
            raise RuntimeError(
                f"explored {self.last_explored} positions, above the "
                f"card*size*(f+1)^2 bound {limit}")
        return result

    def _decision_label(self, ipos, dst):
        node = ipos[1]
        if self._kind[node] != F.LABEL:
            return ("enter",)
        return ("set-counter", dst[2] if self._rf_is_mu[node] else dst[3])


def solve_fbounded(model, state, sentence, k=1, mode="greedy",
                   max_positions=DEFAULT_MAX_POSITIONS):
    """Verdict (always Eloise or Abelard) and strategy of the two-counter
    game."""
    return FBoundedGame(model, state, sentence, k, max_positions).solve(mode)


# ---------------------------------------------------------------------------
# Free semantics.

class _FreeGame(GameCore):
    """The clock-free game over ``(state index, node)`` positions: a label
    is its binder's owner's turn, and play jumps back to the binder's
    body with nothing else changed.  It is only explored, and the
    attractor solves it."""

    def _root(self, si):
        return (si, 0)

    def _label_status(self, ipos):
        return _TURN_E if self._rf_is_mu[ipos[1]] else _TURN_A

    def _moves(self, ipos, eloise_greedy=False, abelard_greedy=False):
        si, node = ipos
        kind = self._kind[node]
        if kind == F.OR or kind == F.AND:
            left, right = self._children[node]
            return (si, left), (si, right)
        if kind == F.DIAMOND or kind == F.BOX:
            child = self._children[node][0]
            return [(v, child) for v in self._succ[si]]
        if kind == F.MU or kind == F.NU:
            return ((si, self._children[node][0]),)
        return ((si, self._rf_body[node]),)


def _free_game(model, state, sentence):
    """The free game.  It has at most card(M) * size positions, so a cap
    of that many never trips."""
    return _FreeGame(model, state, sentence, model.card * sentence.size)


def free_regions(model, sentence):
    """Partition of all free positions into Eloise / Abelard / Undetermined.

    The graph holds every (state index, node) pair as a root, numbered
    ``si * size + node``, so exploring discovers nothing."""
    game = _free_game(model, model.states[0], sentence)
    graph = game._explore_roots([(si, node) for si in range(model.card)
                                 for node in range(game.sentence.size)])
    win_e = _attractor(graph.status, graph.succs, _E)
    win_a = _attractor(graph.status, graph.succs, _A)
    eloise, abelard, neither = set(), set(), set()
    for i, (si, node) in enumerate(graph.pos_list):
        pos = FreePosition(model.states[si], node)
        if win_e[i]:
            eloise.add(pos)
        if win_a[i]:
            abelard.add(pos)
        if not win_e[i] and not win_a[i]:
            neither.add(pos)
    return eloise, abelard, neither


def solve_free(model, state, sentence):
    """Verdict of the clock-free game: Eloise, Abelard, or Undetermined.

    Attractor membership depends only on the positions a position can
    reach, so the graph holds only those reachable from the start."""
    graph = _free_game(model, state, sentence)._explore([state])
    # The start is position 0.
    if _attractor(graph.status, graph.succs, _E)[0]:
        return ELOISE
    if _attractor(graph.status, graph.succs, _A)[0]:
        return ABELARD
    return UNDETERMINED
