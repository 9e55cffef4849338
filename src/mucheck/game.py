"""Clock-bounded evaluation games: positions, legal moves, solving, play.

The two players are Eloise (verifier: disjunctions, diamonds, mu) and
Abelard (falsifier: conjunctions, boxes, nu).  A game position is
``(state, node, clocks)`` where ``clocks`` is a tuple of clock values
aligned with the node's strict Mu/Nu ancestors (root first).  Binders not
on that ancestor path implicitly carry the untouched bound, so resets on
a label jump amount to truncating the tuple.  This canonical form keeps
the reachable position set a finite DAG that is solved by memoized
backward induction.

Rules in brief:

* literal positions end the game (the truthful player wins);
* Or / Diamond / Mu / mu-labels are Eloise's turns, And / Box / Nu /
  nu-labels Abelard's;
* a modal position with no successor state loses for its mover;
* a binder position writes a fresh clock value below the bound;
* a label position with clock 0 loses for the player who owns it,
  otherwise that player must lower the clock and play returns to the
  binder's body, resetting every clock introduced below the binder.
"""

from typing import NamedTuple

from . import formula as F
from .semantics import OMEGA, check_bound

ELOISE = "Eloise"
ABELARD = "Abelard"

DEFAULT_MAX_POSITIONS = 10_000_000

# Internal status codes.
_WON_E, _WON_A, _TURN_E, _TURN_A = 0, 1, 2, 3
_E, _A = 0, 1  # winner codes

_PLAYER_NAME = (ELOISE, ABELARD)


class GameLimitError(Exception):
    """The explored position set exceeded the configured cap."""


class StrategyError(Exception):
    """A strategy was asked for a position outside its domain."""


class Position(NamedTuple):
    state: str
    node: int
    clocks: tuple


class GameStatus(NamedTuple):
    kind: str  # "turn" or "won"
    player: str


class Strategy:
    """Move prescriptions for one player on their reachable positions."""

    __slots__ = ("player", "moves")

    def __init__(self, player, moves):
        self.player = player
        self.moves = moves

    def __contains__(self, pos):
        return pos in self.moves

    def __getitem__(self, pos):
        try:
            return self.moves[pos]
        except KeyError:
            raise StrategyError(f"strategy has no move for {pos}") from None

    def __len__(self):
        return len(self.moves)

    def __repr__(self):
        return f"Strategy({self.player}, {len(self.moves)} positions)"


class Trace:
    """A finished play: a sequence of rounds ending in a won position."""

    def __init__(self, steps, winner):
        self.steps = steps  # list of (Position, GameStatus, move-or-None)
        self.winner = winner

    def __len__(self):
        return len(self.steps)

    def format_text(self, game):
        lines = []
        for k, (pos, status, move) in enumerate(self.steps):
            where = game.describe_position(pos)
            if status.kind == "turn":
                lines.append(f"{k}: {where} | {status.player}: "
                             f"{format_move(move)}")
            else:
                lines.append(f"{k}: {where} | won: {status.player}")
        return "\n".join(lines)

    def to_json_dict(self, game):
        rounds = []
        for k, (pos, status, move) in enumerate(self.steps):
            entry = {"k": k}
            entry.update(game.position_json(pos))
            if status.kind == "turn":
                entry["player"] = status.player
                entry["move"] = format_move(move)
            else:
                entry["won"] = status.player
            rounds.append(entry)
        return {"rounds": rounds, "winner": self.winner}


def format_move(move):
    if len(move) == 1:
        return move[0]
    return f"{move[0]}({move[1]})"


class GameCore:
    """Shared play and validation machinery over status/legal_moves."""

    def apply_move(self, pos, move):
        """The position reached by playing ``move`` at ``pos``."""
        for cand, dst in self.legal_moves(pos):
            if cand == tuple(move):
                return dst
        raise ValueError(f"move {move} is not legal at {pos}")

    def play(self, eloise, abelard, max_rounds=1_000_000):
        """Play the game out and return the Trace.

        Each player is a Strategy or a callable ``(game, position, moves)
        -> index`` into the legal move list.
        """
        pos = self.initial_position()
        steps = []
        for _ in range(max_rounds):
            status = self.status(pos)
            if status.kind == "won":
                steps.append((pos, status, None))
                return Trace(steps, status.player)
            moves = self.legal_moves(pos)
            player = eloise if status.player == ELOISE else abelard
            if isinstance(player, Strategy):
                move = player[pos]
                chosen = None
                for k, (m, dst) in enumerate(moves):
                    if m == tuple(move):
                        chosen = k
                        break
                if chosen is None:
                    raise StrategyError(
                        f"strategy move {move} is illegal at {pos}")
            else:
                chosen = player(self, pos, moves)
                if not 0 <= chosen < len(moves):
                    raise ValueError(f"move index {chosen} out of range")
            move, nxt = moves[chosen]
            steps.append((pos, status, move))
            pos = nxt
        raise RuntimeError("play did not terminate within the round cap")

    def validate_strategy(self, winner, strategy):
        """Check the strategy wins every opponent playout; returns the
        number of distinct positions visited."""
        start = self.initial_position()
        seen = set()
        stack = [start]
        while stack:
            pos = stack.pop()
            if pos in seen:
                continue
            seen.add(pos)
            status = self.status(pos)
            if status.kind == "won":
                if status.player != winner:
                    raise StrategyError(
                        f"strategy reached a position lost at {pos}")
                continue
            moves = self.legal_moves(pos)
            if status.player == winner:
                move = strategy[pos]
                nxt = None
                for m, dst in moves:
                    if m == tuple(move):
                        nxt = dst
                        break
                if nxt is None:
                    raise StrategyError(
                        f"strategy move {move} is illegal at {pos}")
                stack.append(nxt)
            else:
                for _, dst in moves:
                    stack.append(dst)
        return len(seen)


class EvalGame(GameCore):
    """The bounded evaluation game for (model, state, sentence, bound).

    The sentence is normalized on entry when binder names repeat; the
    normalized form is available as ``.sentence``.
    """

    def __init__(self, model, state, sentence, bound,
                 max_positions=DEFAULT_MAX_POSITIONS):
        check_bound(bound)
        model.state_index(state)
        if not F.is_normal(sentence):
            sentence = F.normalize(sentence)
        self.model = model
        self.start = state
        self.sentence = sentence
        self.bound = bound
        self.index = F.build_index(sentence)
        self.max_positions = max_positions
        # Clock values a binder may announce, largest first.
        cap = model.card + 1 if bound is OMEGA else bound
        self.clock_cap = cap
        self._binder_choices = tuple(range(cap - 1, -1, -1))
        s = sentence
        self._kind = s.kind
        self._name = s.name
        self._children = s.children
        self._rf = self.index.rf
        self._rf_slot = self.index.rf_slot
        self._rf_is_mu = {lab: s.kind[rf] == F.MU for lab, rf in self._rf.items()}
        self._rf_body = {lab: s.children[rf][0] for lab, rf in self._rf.items()}
        self._val = {p: model._val_mask.get(p, 0)
                     for p in set(s.name[n] for n in range(s.size)
                                  if s.kind[n] in (F.PROP, F.NEGPROP))}
        self._succ = model._succ
        self.last_explored = 0

    # -- public views -----------------------------------------------------

    def initial_position(self):
        return Position(self.start, 0, ())

    def make_position(self, state, node, clocks=None):
        """Build a Position from a clock map keyed by binder label name
        (or binder node id); binders left out carry the untouched bound."""
        clocks = dict(clocks or {})
        anc = self.index.active_ancestors[node]
        values = []
        for b in anc:
            if b in clocks:
                values.append(clocks.pop(b))
            elif self._name[b] in clocks:
                values.append(clocks.pop(self._name[b]))
            else:
                values.append(None)
        if clocks:
            raise ValueError(
                f"clock entries {sorted(map(str, clocks))} do not name "
                f"binders above node {node}")
        pos = Position(state, node, tuple(values))
        self._internal(pos)  # validate
        return pos

    def status(self, pos):
        code = self._status(self._internal(pos))
        if code == _WON_E:
            return GameStatus("won", ELOISE)
        if code == _WON_A:
            return GameStatus("won", ABELARD)
        return GameStatus("turn", ELOISE if code == _TURN_E else ABELARD)

    def legal_moves(self, pos, mode="exhaustive"):
        """All (move, position) pairs available at ``pos``, in move order:
        left before right, successor states in model order, larger clock
        values first.  In greedy mode clock decisions keep only the
        largest legal value."""
        ipos = self._internal(pos)
        if self._status(ipos) in (_WON_E, _WON_A):
            return []
        greedy = mode == "greedy"
        return [(move, self._public(dst))
                for move, dst in self._moves(ipos, greedy, greedy)]

    def describe_position(self, pos):
        return (f"({pos.state}, {self.index.node_path[pos.node]}, "
                f"{self.format_clocks(pos)})")

    def position_json(self, pos):
        return {
            "state": pos.state,
            "node": self.index.node_path[pos.node],
            "formula": F.render(self.sentence, pos.node),
            "clocks": self.clock_dict(pos),
        }

    def clock_dict(self, pos):
        anc = self.index.active_ancestors[pos.node]
        return {self._name[b]: v for b, v in zip(anc, pos.clocks)
                if v is not None}

    def format_clocks(self, pos):
        items = self.clock_dict(pos)
        if not items:
            return "{}"
        return "{" + ", ".join(f"{k}={v}" for k, v in items.items()) + "}"

    # -- internal position mechanics --------------------------------------

    def _internal(self, pos):
        si = self.model.state_index(pos.state)
        node = pos.node
        if not 0 <= node < self.sentence.size:
            raise ValueError(f"node {node} is not in the sentence")
        anc = self.index.active_ancestors[node]
        clocks = tuple(pos.clocks)
        if len(clocks) != len(anc):
            raise ValueError(
                f"position at node {node} needs {len(anc)} clock values, "
                f"got {len(clocks)}")
        if any(v is not None and (not isinstance(v, int) or v < 0)
               for v in clocks):
            raise ValueError(
                "clock values must be nonnegative integers or None")
        return (si, node, clocks)

    def _public(self, ipos):
        si, node, clocks = ipos
        return Position(self.model.states[si], node, clocks)

    def _status(self, ipos):
        si, node, clocks = ipos
        kind = self._kind[node]
        if kind == F.PROP:
            return _WON_E if self._val[self._name[node]] >> si & 1 else _WON_A
        if kind == F.NEGPROP:
            return _WON_A if self._val[self._name[node]] >> si & 1 else _WON_E
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
        # Label: the clock of its binder decides; None means the untouched
        # bound, which cannot be zero.
        gamma = clocks[self._rf_slot[node]]
        if self._rf_is_mu[node]:
            return _TURN_E if gamma is None or gamma else _WON_A
        return _TURN_A if gamma is None or gamma else _WON_E

    def _moves(self, ipos, eloise_greedy=False, abelard_greedy=False):
        """(move, internal position) pairs in deterministic move order."""
        si, node, clocks = ipos
        kind = self._kind[node]
        if kind == F.OR or kind == F.AND:
            left, right = self._children[node]
            return [(("pick-left",), (si, left, clocks)),
                    (("pick-right",), (si, right, clocks))]
        if kind == F.DIAMOND or kind == F.BOX:
            child = self._children[node][0]
            states = self.model.states
            return [(("go-to-state", states[v]), (v, child, clocks))
                    for v in self._succ[si]]
        if kind == F.MU or kind == F.NU:
            body = self._children[node][0]
            greedy = eloise_greedy if kind == F.MU else abelard_greedy
            choices = self._binder_choices[:1] if greedy else self._binder_choices
            return [(("set-clock", g), (si, body, clocks + (g,)))
                    for g in choices]
        # Label: lower the binder's clock and return to its body.
        slot = self._rf_slot[node]
        gamma = clocks[slot]
        body = self._rf_body[node]
        prefix = clocks[:slot]
        greedy = eloise_greedy if self._rf_is_mu[node] else abelard_greedy
        if gamma is None:
            choices = self._binder_choices[:1] if greedy \
                else self._binder_choices
        else:
            choices = (gamma - 1,) if greedy else range(gamma - 1, -1, -1)
        return [(("set-clock", g), (si, body, prefix + (g,)))
                for g in choices]

    # -- graph construction and solving ------------------------------------

    def _explore(self, start_states, eloise_greedy=False, abelard_greedy=False,
                 binder_choices=None):
        """Breadth-first reachable position graph from the given states.

        Returns a _Graph over internal positions.  ``binder_choices``
        overrides the clock choice set at binder positions (used by the
        sweep harness to build one graph serving several bounds); its
        edges are tagged with the chosen value so they can be filtered
        per bound, all other edges are tagged -1.
        """
        saved = None
        if binder_choices is not None:
            saved = self._binder_choices
            self._binder_choices = binder_choices
        try:
            pos_id = {}
            pos_list = []
            status = []
            succs = []
            tags = []
            queue = []
            cap = self.max_positions
            for w in start_states:
                ip = (self.model.state_index(w), 0, ())
                if ip not in pos_id:
                    pos_id[ip] = len(pos_list)
                    pos_list.append(ip)
                    queue.append(ip)
            head = 0
            while head < len(queue):
                ipos = queue[head]
                head += 1
                st = self._status(ipos)
                status.append(st)
                if st == _WON_E or st == _WON_A:
                    succs.append(())
                    tags.append(())
                    continue
                row = []
                row_tags = []
                for move, dst in self._moves(ipos, eloise_greedy, abelard_greedy):
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
                    row_tags.append(move[1] if move[0] == "set-clock"
                                    and self._kind[ipos[1]] in F.BINDER_KINDS
                                    else -1)
                succs.append(tuple(row))
                tags.append(tuple(row_tags))
            return _Graph(pos_list, pos_id, status, succs, tags)
        finally:
            if saved is not None:
                self._binder_choices = saved

    def solve(self, mode="greedy"):
        """Winner of the game plus a winning strategy for that player.

        Greedy mode determines the winner on the subgame where both
        players only ever announce the largest legal clock value and lower
        clocks by exactly one; exhaustive mode explores every clock
        choice.  The returned strategy is total against arbitrary opponent
        play in both modes.
        """
        if mode not in ("greedy", "exhaustive"):
            raise ValueError(f"unknown solve mode {mode!r}")
        greedy = mode == "greedy"
        graph = self._explore([self.start], greedy, greedy)
        self.last_explored = len(graph)
        winners = graph.winners()
        init = graph.pos_id[(self.model.state_index(self.start), 0, ())]
        win_code = winners[init]
        if greedy:
            # Rebuild with full opponent choices so the strategy covers
            # every opponent deviation; the winner's own clock decisions
            # stay greedy.
            if win_code == _E:
                graph = self._explore([self.start], True, False)
            else:
                graph = self._explore([self.start], False, True)
            self.last_explored = max(self.last_explored, len(graph))
            winners = graph.winners()
            init = graph.pos_id[(self.model.state_index(self.start), 0, ())]
            if winners[init] != win_code:
                raise RuntimeError(
                    "greedy clock policy disagreed with its one-sided "
                    "refinement; rerun in exhaustive mode")
        strategy = self._extract_strategy(graph, winners, init, win_code)
        return _PLAYER_NAME[win_code], strategy

    def _extract_strategy(self, graph, winners, init, win_code):
        """First-winning-move strategy over positions reachable under it."""
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
                for k, j in enumerate(row):
                    if winners[j] == win_code:
                        pick = k
                        break
                if pick is None:
                    raise RuntimeError("no winning move at a won position")
                ipos = graph.pos_list[i]
                j = row[pick]
                move = self._move_label(ipos, graph.pos_list[j], pick)
                moves[self._public(ipos)] = move
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
            else:
                for j in row:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
        return Strategy(_PLAYER_NAME[win_code], moves)

    def _move_label(self, ipos, dst, edge_index):
        kind = self._kind[ipos[1]]
        if kind == F.OR or kind == F.AND:
            return ("pick-left",) if edge_index == 0 else ("pick-right",)
        if kind == F.DIAMOND or kind == F.BOX:
            return ("go-to-state", self.model.states[dst[0]])
        return ("set-clock", dst[2][-1])

class _Graph:
    """Explored position graph with tagged edges and a topological order."""

    __slots__ = ("pos_list", "pos_id", "status", "succs", "tags", "_topo")

    def __init__(self, pos_list, pos_id, status, succs, tags):
        self.pos_list = pos_list
        self.pos_id = pos_id
        self.status = status
        self.succs = succs
        self.tags = tags
        self._topo = None

    def __len__(self):
        return len(self.pos_list)

    def topo_order(self):
        """Topological order; raises if the graph has a cycle."""
        if self._topo is not None:
            return self._topo
        n = len(self.pos_list)
        indeg = [0] * n
        for row in self.succs:
            for j in row:
                indeg[j] += 1
        order = [i for i in range(n) if indeg[i] == 0]
        head = 0
        while head < len(order):
            i = order[head]
            head += 1
            for j in self.succs[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    order.append(j)
        if len(order) != n:
            raise RuntimeError(
                "position graph contains a cycle; the clock discipline "
                "should make this impossible")
        self._topo = order
        return order

    def winners(self):
        """Backward-induction winner (0 Eloise, 1 Abelard) per position."""
        order = self.topo_order()
        status = self.status
        succs = self.succs
        winners = [0] * len(status)
        for i in reversed(order):
            st = status[i]
            if st == _WON_E:
                winners[i] = _E
            elif st == _WON_A:
                winners[i] = _A
            else:
                mover = _E if st == _TURN_E else _A
                result = 1 - mover
                for j in succs[i]:
                    if winners[j] == mover:
                        result = mover
                        break
                winners[i] = result
        return winners


def interactive_player(in_stream, out_stream):
    """A player that prints the enumerated legal moves and reads a 1-based
    index from ``in_stream``; raises EOFError when input runs out."""

    def choose(game, pos, moves):
        status = game.status(pos)
        print(f"{status.player} to move at {game.describe_position(pos)} "
              f"[{F.render(game.sentence, pos.node)}]", file=out_stream)
        for k, (move, _) in enumerate(moves, start=1):
            print(f"  {k}) {format_move(move)}", file=out_stream)
        while True:
            print("> ", end="", file=out_stream, flush=True)
            line = in_stream.readline()
            if not line:
                raise EOFError("end of input during interactive play")
            line = line.strip()
            try:
                k = int(line)
            except ValueError:
                k = -1
            if 1 <= k <= len(moves):
                return k - 1
            print(f"enter a number between 1 and {len(moves)}",
                  file=out_stream)

    return choose


def first_move_player(game, pos, moves):
    """Best-effort fallback: always takes the first legal move."""
    return 0


def solve(model, state, sentence, bound, mode="greedy",
          max_positions=DEFAULT_MAX_POSITIONS):
    """Convenience wrapper: build the game and solve it."""
    game = EvalGame(model, state, sentence, bound, max_positions)
    winner, strategy = game.solve(mode)
    return game, winner, strategy
