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

import sys
from typing import NamedTuple

from . import formula as F
from .game import (ABELARD, DEFAULT_MAX_POSITIONS, ELOISE, GameCore,
                   GameLimitError, _TURN_A, _TURN_E, _A, _E, _attractor)
from .semantics import BoundError

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
    """Initial counter value: card(M)^k times the sentence's node count.

    Raises BoundError when that value has more decimal digits than
    ``sys.get_int_max_str_digits()`` allows to print, since a strategy,
    trace or JSON report could not name a counter value then.  Bit
    lengths decide first: ``2 ** (3 * digits)`` is below ``10 ** digits``
    and ``2 ** (4 * digits)`` above it, so a huge ``k`` is refused before
    the power is taken, and only a start between the two is compared
    with ``10 ** digits``.  A 1-state model's start does not grow with
    ``k``."""
    if k < 1:
        raise ValueError("the exponent k must be at least 1")
    card = model.card
    digits = (sys.get_int_max_str_digits()
              or sys.int_info.default_max_str_digits)
    if k * (card.bit_length() - 1) <= 4 * digits:
        f = card ** k * sentence.size
        if f.bit_length() <= 3 * digits or f < 10 ** digits:
            return f
    raise BoundError(f"fbounded exponent {k} is too large: the counter "
                     f"start {card}**{k} * {sentence.size} has more than "
                     f"{digits} decimal digits")


class FBoundedGame(GameCore):
    """Two-counter evaluation game for (model, state, sentence, k).

    Its codec keeps ``rest = ge * (f + 1) + ga``.  Binder rows, and label
    rows under a greedy policy, are tables; the counters decide label
    statuses and every-choice label rows.
    """

    def __init__(self, model, state, sentence, k=1,
                 max_positions=DEFAULT_MAX_POSITIONS):
        super().__init__(model, state, sentence, max_positions)
        self.k = k
        self.f = f_value(model, self.sentence, k)
        # Position units of one step of each counter.
        self._ga_unit = self._SN
        self._ge_unit = self._SN * (self.f + 1)
        # No search may number more positions than there are
        # (state, node, gE, gA) tuples.
        self._position_limit = model.card * self.sentence.size \
            * (self.f + 1) ** 2

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
        return si + self.f * (self._ge_unit + self._ga_unit)

    def _internal(self, pos):
        si = self.model.state_index(pos.state)
        if not 0 <= pos.node < self.sentence.size:
            raise ValueError(f"node {pos.node} is not in the sentence")
        if not (0 <= pos.gamma_e <= self.f and 0 <= pos.gamma_a <= self.f):
            raise ValueError(f"counters must be integers from 0 to {self.f}")
        return (si + self._S * pos.node + pos.gamma_e * self._ge_unit
                + pos.gamma_a * self._ga_unit)

    def _public(self, p):
        q, si = divmod(p, self._S)
        ge, ga = divmod(q // self._N, self.f + 1)
        return FPosition(self.model.states[si], q % self._N, ge, ga)

    _decision_kinds = (F.LABEL,)

    def _label_rule(self, node):
        # The counter of the label's owner decides.
        unit = self._ge_unit if self._rf_is_mu[node] else self._ga_unit
        return unit, self.f + 1, self._owner_codes(node)

    def _fixed_row(self, node, eloise_greedy, abelard_greedy):
        if self._kind[node] != F.LABEL:
            # No announcement: step into the body with counters unchanged.
            return (self._S * (self._children[node][0] - node),)
        base = self._S * (self._rf_body[node] - node)
        if self._rf_is_mu[node]:
            return (base - self._ge_unit,) if eloise_greedy else None
        return (base - self._ga_unit,) if abelard_greedy else None

    def _decision_row(self, p, node):
        # A label under every choice: lower its owner's counter by any
        # amount, largest remaining value first.
        base = self._S * (self._rf_body[node] - node)
        if self._rf_is_mu[node]:
            unit = self._ge_unit
            top = p // unit
        else:
            unit = self._ga_unit
            top = p // unit % (self.f + 1)
        if top > self.max_positions:
            raise GameLimitError(
                f"counter value {top} gives a label more choices than the "
                f"position cap {self.max_positions}")
        return range(base - unit, base - (top + 1) * unit, -unit)

    solve = GameCore._solve

    def _check_explored(self):
        if self.last_explored > self._position_limit:
            raise RuntimeError(
                f"explored {self.last_explored} positions, above the "
                f"card*size*(f+1)^2 bound {self._position_limit}")

    def _decision_label(self, p, dst):
        node = p // self._S % self._N
        if self._kind[node] != F.LABEL:
            return ("enter",)
        pos = self._public(dst)
        return ("set-counter",
                pos.gamma_e if self._rf_is_mu[node] else pos.gamma_a)


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
    body with nothing else changed.  Its codec keeps ``rest = 0``, so
    every row is a table.  It is only explored, and the attractor solves
    it."""

    def _root(self, si):
        return si

    def _public(self, p):
        return FreePosition(self.model.states[p % self._S], p // self._S)

    def _label_rule(self, node):
        # No clock: the digit is always 0, and a label is always its
        # binder's owner's turn.
        return 1, 1, (_TURN_E if self._rf_is_mu[node] else _TURN_A,)

    def _fixed_row(self, node, eloise_greedy, abelard_greedy):
        if self._kind[node] == F.LABEL:
            return (self._S * (self._rf_body[node] - node),)
        return (self._S * (self._children[node][0] - node),)


def _free_game(model, state, sentence):
    """The free game.  It has at most card(M) * size positions, so a cap
    of that many never trips."""
    return _FreeGame(model, state, sentence, model.card * sentence.size)


def free_regions(model, sentence):
    """Partition of all free positions into Eloise / Abelard / Undetermined.

    The graph holds every (state index, node) pair as a root, numbered
    ``si * size + node``, so exploring discovers nothing."""
    game = _free_game(model, model.states[0], sentence)
    S = model.card
    graph = game._explore_roots([si + S * node for si in range(S)
                                 for node in range(game.sentence.size)])
    win_e = _attractor(graph.status, graph.succs, _E)
    win_a = _attractor(graph.status, graph.succs, _A)
    eloise, abelard, neither = set(), set(), set()
    for p, e, a in zip(graph.pos_list, win_e, win_a):
        pos = game._public(p)
        if e:
            eloise.add(pos)
        if a:
            abelard.add(pos)
        if not e and not a:
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
