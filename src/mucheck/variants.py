"""Two-counter and clock-free evaluation game variants.

The f-bounded game replaces per-binder clocks with one global counter per
player: Eloise's counter drops every time play returns from a label to a
mu-binder, Abelard's on returns to a nu-binder, and a player forced to
lower an exhausted counter loses.  Both counters start at
``card(M)^k * size(formula)``.  Binder positions make no announcement and
step straight into the body.

The free game drops counters entirely: only literal positions and stuck
movers end play, so neither player may have a winning strategy and the
verdict can be Undetermined.
"""

from typing import NamedTuple

from . import formula as F
from .game import (ABELARD, DEFAULT_MAX_POSITIONS, ELOISE, GameCore,
                   GameLimitError, GameStatus, Strategy, _Graph,
                   _TURN_A, _TURN_E, _WON_A, _WON_E, _A, _E, _PLAYER_NAME)

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
        model.state_index(state)
        if not F.is_normal(sentence):
            sentence = F.normalize(sentence)
        self.model = model
        self.start = state
        self.sentence = sentence
        self.k = k
        self.f = f_value(model, sentence, k)
        self.index = F.build_index(sentence)
        self.max_positions = max_positions
        self._kind = sentence.kind
        self._name = sentence.name
        self._children = sentence.children
        self._rf_is_mu = {lab: sentence.kind[rf] == F.MU
                          for lab, rf in self.index.rf.items()}
        self._rf_body = {lab: sentence.children[rf][0]
                         for lab, rf in self.index.rf.items()}
        self._val = model._val_mask
        self._succ = model._succ
        self.last_explored = 0

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

    def status(self, pos):
        code = self._status(self._internal(pos))
        if code == _WON_E:
            return GameStatus("won", ELOISE)
        if code == _WON_A:
            return GameStatus("won", ABELARD)
        return GameStatus("turn", ELOISE if code == _TURN_E else ABELARD)

    def legal_moves(self, pos, mode="exhaustive"):
        ipos = self._internal(pos)
        if self._status(ipos) in (_WON_E, _WON_A):
            return []
        greedy = mode == "greedy"
        return [(move, self._public(dst))
                for move, dst in self._moves(ipos, greedy, greedy)]

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

    def _status(self, ipos):
        si, node, ge, ga = ipos
        kind = self._kind[node]
        if kind == F.PROP:
            return (_WON_E if self._val.get(self._name[node], 0) >> si & 1
                    else _WON_A)
        if kind == F.NEGPROP:
            return (_WON_A if self._val.get(self._name[node], 0) >> si & 1
                    else _WON_E)
        if kind == F.OR:
            return _TURN_E
        if kind == F.AND:
            return _TURN_A
        if kind == F.DIAMOND:
            return _TURN_E if self._succ[si] else _WON_A
        if kind == F.BOX:
            return _TURN_A if self._succ[si] else _WON_E
        if kind == F.MU:
            return _TURN_E
        if kind == F.NU:
            return _TURN_A
        if self._rf_is_mu[node]:
            return _TURN_E if ge else _WON_A
        return _TURN_A if ga else _WON_E

    def _moves(self, ipos, eloise_greedy=False, abelard_greedy=False):
        si, node, ge, ga = ipos
        kind = self._kind[node]
        if kind == F.OR or kind == F.AND:
            left, right = self._children[node]
            return [(("pick-left",), (si, left, ge, ga)),
                    (("pick-right",), (si, right, ge, ga))]
        if kind == F.DIAMOND or kind == F.BOX:
            child = self._children[node][0]
            states = self.model.states
            return [(("go-to-state", states[v]), (v, child, ge, ga))
                    for v in self._succ[si]]
        if kind == F.MU or kind == F.NU:
            # No announcement: step into the body with counters unchanged.
            body = self._children[node][0]
            return [(("enter",), (si, body, ge, ga))]
        body = self._rf_body[node]
        if self._rf_is_mu[node]:
            choices = (ge - 1,) if eloise_greedy else range(ge - 1, -1, -1)
            return [(("set-counter", g), (si, body, g, ga)) for g in choices]
        choices = (ga - 1,) if abelard_greedy else range(ga - 1, -1, -1)
        return [(("set-counter", g), (si, body, ge, g)) for g in choices]

    def _explore(self, start_states, eloise_greedy=False,
                 abelard_greedy=False):
        """Breadth-first reachable position graph from the given states,
        each starting at the root with both counters at f."""
        pos_id = {}
        pos_list = []
        status = []
        succs = []
        queue = []
        for w in start_states:
            ip = (self.model.state_index(w), 0, self.f, self.f)
            if ip not in pos_id:
                pos_id[ip] = len(pos_list)
                pos_list.append(ip)
                queue.append(ip)
        head = 0
        cap = self.max_positions
        while head < len(queue):
            ipos = queue[head]
            head += 1
            st = self._status(ipos)
            status.append(st)
            if st == _WON_E or st == _WON_A:
                succs.append(())
                continue
            row = []
            for _, dst in self._moves(ipos, eloise_greedy, abelard_greedy):
                di = pos_id.get(dst)
                if di is None:
                    di = len(pos_list)
                    if di >= cap:
                        raise GameLimitError(
                            f"position cap {cap} exceeded while exploring")
                    pos_id[dst] = di
                    pos_list.append(dst)
                    queue.append(dst)
                row.append(di)
            succs.append(tuple(row))
        tags = [()] * len(pos_list)
        return _Graph(pos_list, pos_id, status, succs, tags)

    def solve(self, mode="greedy"):
        """Winner plus a winning strategy, as in the clock-bounded game.

        Greedy mode lowers counters by exactly one; exhaustive mode
        explores every allowed decrement.  The visited position count is
        checked against card(M) * size * (f+1)^2 on every run.
        """
        if mode not in ("greedy", "exhaustive"):
            raise ValueError(f"unknown solve mode {mode!r}")
        greedy = mode == "greedy"
        graph = self._explore([self.start], greedy, greedy)
        self._check_space(graph)
        winners = graph.winners()
        init = 0
        win_code = winners[init]
        if greedy:
            graph = self._explore([self.start], win_code == _E,
                                  win_code == _A)
            self._check_space(graph)
            winners = graph.winners()
            if winners[init] != win_code:
                raise RuntimeError(
                    "unit decrements disagreed with one-sided refinement; "
                    "rerun in exhaustive mode")
        moves = {}
        mover_code = _TURN_E if win_code == _E else _TURN_A
        seen = {init}
        stack = [init]
        while stack:
            i = stack.pop()
            st = graph.status[i]
            if st == _WON_E or st == _WON_A:
                continue
            row = graph.succs[i]
            if st == mover_code:
                pick = None
                for kk, j in enumerate(row):
                    if winners[j] == win_code:
                        pick = kk
                        break
                if pick is None:
                    raise RuntimeError("no winning move at a won position")
                ipos = graph.pos_list[i]
                j = row[pick]
                moves[self._public(ipos)] = self._move_label(
                    ipos, graph.pos_list[j], pick)
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
            else:
                for j in row:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
        return _PLAYER_NAME[win_code], Strategy(_PLAYER_NAME[win_code], moves)

    def _check_space(self, graph):
        self.last_explored = len(graph)
        limit = self.model.card * self.sentence.size * (self.f + 1) ** 2
        if len(graph) > limit:
            raise RuntimeError(
                f"explored {len(graph)} positions, above the "
                f"card*size*(f+1)^2 bound {limit}")

    def _move_label(self, ipos, dst, edge_index):
        kind = self._kind[ipos[1]]
        if kind == F.OR or kind == F.AND:
            return ("pick-left",) if edge_index == 0 else ("pick-right",)
        if kind == F.DIAMOND or kind == F.BOX:
            return ("go-to-state", self.model.states[dst[0]])
        if kind == F.MU or kind == F.NU:
            return ("enter",)
        si, node, ge, ga = dst
        return ("set-counter", ge if self._rf_is_mu[ipos[1]] else ga)


def solve_fbounded(model, state, sentence, k=1, mode="greedy",
                   max_positions=DEFAULT_MAX_POSITIONS):
    """Verdict (always Eloise or Abelard) and strategy of the two-counter
    game."""
    game = FBoundedGame(model, state, sentence, k, max_positions)
    verdict, strategy = game.solve(mode)
    return verdict, strategy


# ---------------------------------------------------------------------------
# Free semantics.

def _free_graph(model, sentence):
    """Full (state, node) position graph with status codes and successors."""
    index = F.build_index(sentence)
    kind = sentence.kind
    name = sentence.name
    children = sentence.children
    rf_body = {lab: children[rf][0] for lab, rf in index.rf.items()}
    n_states = model.card
    n_nodes = sentence.size
    val = model._val_mask
    succ = model._succ

    def pid(si, node):
        return si * n_nodes + node

    status = [0] * (n_states * n_nodes)
    succs = [()] * (n_states * n_nodes)
    for si in range(n_states):
        for node in range(n_nodes):
            k = kind[node]
            i = pid(si, node)
            if k == F.PROP:
                status[i] = _WON_E if val.get(name[node], 0) >> si & 1 else _WON_A
            elif k == F.NEGPROP:
                status[i] = _WON_A if val.get(name[node], 0) >> si & 1 else _WON_E
            elif k == F.OR or k == F.AND:
                status[i] = _TURN_E if k == F.OR else _TURN_A
                left, right = children[node]
                succs[i] = (pid(si, left), pid(si, right))
            elif k == F.DIAMOND or k == F.BOX:
                if not succ[si]:
                    status[i] = _WON_A if k == F.DIAMOND else _WON_E
                else:
                    status[i] = _TURN_E if k == F.DIAMOND else _TURN_A
                    child = children[node][0]
                    succs[i] = tuple(pid(v, child) for v in succ[si])
            elif k == F.MU or k == F.NU:
                status[i] = _TURN_E if k == F.MU else _TURN_A
                succs[i] = (pid(si, children[node][0]),)
            else:  # label: jump to the binder's body, nothing else happens
                rf = index.rf[node]
                status[i] = _TURN_E if kind[rf] == F.MU else _TURN_A
                succs[i] = (pid(si, rf_body[node]),)
    return status, succs


def _attractor(status, succs, player_code):
    """Positions from which ``player_code`` forces reaching a win.

    Least fixed point over the possibly-cyclic free graph: a position
    joins when it is a terminal won by the player, when its owner is the
    player and some successor is in, or when its owner is the opponent
    and every successor is in.
    """
    n = len(status)
    won = _WON_E if player_code == _E else _WON_A
    own_turn = _TURN_E if player_code == _E else _TURN_A
    preds = [[] for _ in range(n)]
    remaining = [0] * n
    for i, row in enumerate(succs):
        remaining[i] = len(row)
        for j in row:
            preds[j].append(i)
    inside = [False] * n
    queue = [i for i in range(n) if status[i] == won]
    for i in queue:
        inside[i] = True
    head = 0
    while head < len(queue):
        j = queue[head]
        head += 1
        for i in preds[j]:
            if inside[i]:
                continue
            if status[i] == own_turn:
                inside[i] = True
                queue.append(i)
            else:
                remaining[i] -= 1
                if remaining[i] == 0:
                    inside[i] = True
                    queue.append(i)
    return inside


def free_regions(model, sentence):
    """Partition of all free positions into Eloise / Abelard / Undetermined."""
    if not F.is_normal(sentence):
        sentence = F.normalize(sentence)
    status, succs = _free_graph(model, sentence)
    win_e = _attractor(status, succs, _E)
    win_a = _attractor(status, succs, _A)
    n_nodes = sentence.size
    eloise, abelard, neither = set(), set(), set()
    for i in range(len(status)):
        pos = FreePosition(model.states[i // n_nodes], i % n_nodes)
        if win_e[i]:
            eloise.add(pos)
        if win_a[i]:
            abelard.add(pos)
        if not win_e[i] and not win_a[i]:
            neither.add(pos)
    return eloise, abelard, neither


def solve_free(model, state, sentence):
    """Verdict of the clock-free game: Eloise, Abelard, or Undetermined."""
    si = model.state_index(state)
    if not F.is_normal(sentence):
        sentence = F.normalize(sentence)
    status, succs = _free_graph(model, sentence)
    init = si * sentence.size
    if _attractor(status, succs, _E)[init]:
        return ELOISE
    if _attractor(status, succs, _A)[init]:
        return ABELARD
    return UNDETERMINED
