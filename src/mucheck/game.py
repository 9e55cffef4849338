"""Clock-bounded evaluation games: positions, legal moves, solving, play.

The two players are Eloise (verifier: disjunctions, diamonds, mu) and
Abelard (falsifier: conjunctions, boxes, nu).  A game position is
``(state, node, clocks)`` where ``clocks`` is a tuple of clock values
aligned with the node's strict Mu/Nu ancestors (root first).  Binders not
on that ancestor path implicitly carry the untouched bound, so resets on
a label jump amount to truncating the tuple.  This canonical form keeps
the reachable position set a finite DAG, so every play is finite and a
position's value follows from its successors.  The solver is one
short-circuit depth-first search from the start: each turn position's
successors are tried in move order until its mover finds one that mover
wins, which is also the position's first winning move, so the strategy
is read off the search and its public form is built only when it is read.

Rules in brief:

* literal positions end the game (the truthful player wins);
* Or / Diamond / Mu / mu-labels are Eloise's turns, And / Box / Nu /
  nu-labels Abelard's;
* a modal position with no successor state loses for its mover;
* a binder position writes a fresh clock value below the bound;
* a label position with clock 0 loses for the player who owns it,
  otherwise that player must lower the clock and play returns to the
  binder's body, resetting every clock introduced below the binder.

``GameCore`` is the one game kernel (explorer, solver, play); every game
variant supplies only a position codec to it.  ``_attractor`` is the one
attractor, for the free game and alternating reachability.
"""

from typing import NamedTuple

from . import formula as F
from .semantics import check_bound, clock_cap

ELOISE = "Eloise"
ABELARD = "Abelard"

DEFAULT_MAX_POSITIONS = 10_000_000

# Internal status codes.
_WON_E, _WON_A, _TURN_E, _TURN_A = 0, 1, 2, 3
_E, _A = 0, 1  # winner codes
# A won status code is its winner's code, and a turn code minus _TURN_E
# is its mover's code.  _OPEN marks a position on the solve's stack.
_UNSET, _OPEN = -1, 2

_PLAYER_NAME = (ELOISE, ABELARD)

_CYCLE = ("position graph contains a cycle; the clock discipline should "
          "make this impossible")


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
    """Move prescriptions for one player on their reachable positions.

    Either given as a ``moves`` dict, or by a solver as its strategy walk
    over a game: the (internal position, move index, successor) of every
    prescribed position, in walk order.  The public ``moves`` dict is then
    built on first access; ``len`` and ``repr`` read only the walk.
    """

    __slots__ = ("player", "_moves", "_size", "_game", "_walk")

    def __init__(self, player, moves=None, game=None, walk=None):
        self.player = player
        self._moves = moves
        self._size = len(moves if walk is None else walk)
        self._game = game
        self._walk = walk

    @property
    def moves(self):
        if self._moves is None:
            public = self._game._public
            label = self._game._move_label
            self._moves = {public(ipos): label(ipos, dst, k)
                           for ipos, k, dst in self._walk}
            self._game = self._walk = None
        return self._moves

    def __contains__(self, pos):
        return pos in self.moves

    def __getitem__(self, pos):
        try:
            return self.moves[pos]
        except KeyError:
            raise StrategyError(f"strategy has no move for {pos}") from None

    def __len__(self):
        return self._size

    def __repr__(self):
        return f"Strategy({self.player}, {self._size} positions)"


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


def _strategy_move_index(strategy, pos, moves):
    """Index into the legal ``moves`` at ``pos`` of the strategy's move."""
    move = strategy[pos]
    for k, (m, _) in enumerate(moves):
        if m == tuple(move):
            return k
    raise StrategyError(f"strategy move {move} is illegal at {pos}")


class GameCore:
    """Exploration, solving, play and validation shared by every game.

    A game supplies only its position codec over internal positions
    ``(state index, node, ...)``: ``_root(si)``, the start position at
    state index ``si``; ``_internal``/``_public`` between public and
    internal positions; ``_label_status``, the status at labels (the
    clock-free rules are shared); ``_moves``, the successor positions in
    move order, unnamed; ``_decision_label``, the name of a binder or
    label move (``_move_label`` names every move); ``_decision_kinds``,
    the node kinds whose moves depend on the clock or counter policy;
    and ``describe_position``/``position_json`` for output.
    """

    last_explored = 0  # size of the last position graph explored

    def __init__(self, model, state, sentence, max_positions):
        model.state_index(state)
        if not F.is_normal(sentence):
            sentence = F.normalize(sentence)
        self.model = model
        self.start = state
        self.sentence = sentence
        self.index = F.build_index(sentence)
        self.max_positions = max_positions
        s = sentence
        self._kind = s.kind
        self._name = s.name
        self._children = s.children
        self._rf = self.index.rf
        self._rf_is_mu = {lab: s.kind[b] == F.MU for lab, b in self._rf.items()}
        self._rf_body = {lab: s.children[b][0] for lab, b in self._rf.items()}
        self._val = {p: model._val_mask.get(p, 0)
                     for p in set(s.name[n] for n in range(s.size)
                                  if s.kind[n] in (F.PROP, F.NEGPROP))}
        self._succ = model._succ

    def status(self, pos):
        code = self._status(self._internal(pos))
        if code == _WON_E:
            return GameStatus("won", ELOISE)
        if code == _WON_A:
            return GameStatus("won", ABELARD)
        return GameStatus("turn", ELOISE if code == _TURN_E else ABELARD)

    def _status(self, ipos):
        """Status code of an internal position: the clock-free rules here,
        the codec's ``_label_status`` at labels."""
        si = ipos[0]
        node = ipos[1]
        kind = self._kind[node]
        if kind == F.PROP:
            return _WON_E if self._val[self._name[node]] >> si & 1 else _WON_A
        if kind == F.NEGPROP:
            return _WON_A if self._val[self._name[node]] >> si & 1 else _WON_E
        if kind == F.OR or kind == F.MU:
            return _TURN_E
        if kind == F.AND or kind == F.NU:
            return _TURN_A
        if kind == F.DIAMOND:
            return _TURN_E if self._succ[si] else _WON_A
        if kind == F.BOX:
            return _TURN_A if self._succ[si] else _WON_E
        return self._label_status(ipos)

    def legal_moves(self, pos, mode="exhaustive"):
        """All (move, position) pairs available at ``pos``, in move order:
        left before right, successor states in model order, larger clock
        or counter values first.  In greedy mode clock and counter
        decisions keep only the largest legal value."""
        ipos = self._internal(pos)
        if self._status(ipos) in (_WON_E, _WON_A):
            return []
        greedy = mode == "greedy"
        return [(self._move_label(ipos, dst, k), self._public(dst))
                for k, dst in enumerate(self._moves(ipos, greedy, greedy))]

    def _move_label(self, ipos, dst, edge_index):
        """The name of the move from ``ipos`` along its ``edge_index``-th
        edge, to ``dst``."""
        kind = self._kind[ipos[1]]
        if kind == F.OR or kind == F.AND:
            return ("pick-left",) if edge_index == 0 else ("pick-right",)
        if kind == F.DIAMOND or kind == F.BOX:
            return ("go-to-state", self.model.states[dst[0]])
        return self._decision_label(ipos, dst)

    def _explore(self, start_states, eloise_greedy=False, abelard_greedy=False):
        """Breadth-first reachable position graph from the given states.

        Returns a _Graph over internal positions, numbered in discovery
        order, so the first start state's root is position 0.
        """
        return self._explore_roots(
            [self._root(self.model.state_index(w)) for w in start_states],
            eloise_greedy, abelard_greedy)

    def _explore_roots(self, roots, eloise_greedy=False,
                       abelard_greedy=False):
        """The reachable position graph from internal root positions,
        numbered in discovery order from the distinct roots on."""
        roots = list(dict.fromkeys(roots))
        status = [self._status(ip) for ip in roots]
        graph = _Graph(roots, {ip: i for i, ip in enumerate(roots)}, status,
                       [()] * len(roots))
        self._expand(graph, [i for i, st in enumerate(status)
                             if st >= _TURN_E], eloise_greedy, abelard_greedy)
        return graph

    def _expand(self, graph, frontier, eloise_greedy, abelard_greedy):
        """The explorer loop: (re)build the row of every position in
        ``frontier`` under the given clock policy, appending each newly
        discovered turn position to it, so that play carries on
        breadth-first.  Positions that end the game keep an empty row."""
        pos_list = graph.pos_list
        pos_id = graph.pos_id
        status = graph.status
        succs = graph.succs
        cap = self.max_positions
        moves = self._moves
        position_status = self._status
        for i in frontier:  # grows while it is walked
            row = []
            for dst in moves(pos_list[i], eloise_greedy, abelard_greedy):
                di = pos_id.get(dst)
                if di is None:
                    di = len(pos_list)
                    if di >= cap:
                        raise GameLimitError(
                            f"position cap {cap} exceeded while exploring")
                    pos_id[dst] = di
                    pos_list.append(dst)
                    st = position_status(dst)
                    status.append(st)
                    succs.append(())
                    if st >= _TURN_E:
                        frontier.append(di)
                row.append(di)
            succs[i] = tuple(row)
        graph._topo = None
        self.last_explored = len(pos_list)

    def _refine(self, graph, win_code):
        """Extend a greedy graph in place into its one-sided refinement:
        re-expand the loser's clock and counter decisions with every
        choice, and explore on from the positions that adds."""
        loser_turn = _TURN_A if win_code == _E else _TURN_E
        decides = self._decision_kinds
        kind = self._kind
        redo = [i for i, ip in enumerate(graph.pos_list)
                if graph.status[i] == loser_turn and kind[ip[1]] in decides]
        self._expand(graph, redo, win_code == _E, win_code == _A)

    def _solve(self, mode):
        """Winner of the game from ``start`` plus a winning strategy.

        Greedy mode determines the winner on the subgame where both
        players only ever make the largest legal clock or counter choice,
        then refines that graph in place so that the strategy covers every
        opponent deviation; the winner's own decisions stay greedy.  A
        greedy choice is the first of the full choices, so the refined
        graph is the one a fresh one-sided exploration finds, and
        ``last_explored`` its size.  Exhaustive mode explores every choice
        once.

        Each graph is solved from its start only (``_Graph.solve``), so
        the cycle check covers the positions that search visits: every
        position the winner and the strategy depend on.  Acyclicity of
        whole graphs is asserted by ``topo_order`` on every graph the
        sweeps explore and in the position-model export.
        """
        if mode not in ("greedy", "exhaustive"):
            raise ValueError(f"unknown solve mode {mode!r}")
        greedy = mode == "greedy"
        graph = self._explore([self.start], greedy, greedy)
        win, pick = graph.solve((0,))
        win_code = win[0]
        if greedy:
            self._refine(graph, win_code)
            win, pick = graph.solve((0,))
            if win[0] != win_code:
                raise RuntimeError(
                    "greedy policy disagreed with its one-sided "
                    "refinement; rerun in exhaustive mode")
        # First-winning-move strategy over the positions reachable under it:
        # the winner takes the recorded pick, the loser every move.
        pos_list = graph.pos_list
        status = graph.status
        succs = graph.succs
        mover_code = _TURN_E + win_code
        loser_code = _TURN_A - win_code
        walk = []
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            st = status[i]
            if st == mover_code:
                k = pick[i]
                if k < 0:
                    raise RuntimeError("no winning move at a won position")
                j = succs[i][k]
                walk.append((pos_list[i], k, pos_list[j]))
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
            elif st == loser_code:
                for j in succs[i]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
        player = _PLAYER_NAME[win_code]
        return player, Strategy(player, game=self, walk=walk)

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
                chosen = _strategy_move_index(player, pos, moves)
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
                stack.append(
                    moves[_strategy_move_index(strategy, pos, moves)][1])
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
        super().__init__(model, state, sentence, max_positions)
        self.bound = bound
        # Clock values a binder may announce, largest first.
        self.clock_cap = cap = clock_cap(bound, model)
        self._clock_choices = tuple(range(cap - 1, -1, -1))
        self._rf_slot = self.index.rf_slot

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

    def _root(self, si):
        return (si, 0, ())

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

    _decision_kinds = (F.MU, F.NU, F.LABEL)

    def _label_status(self, ipos):
        # The clock of the label's binder decides; None means the
        # untouched bound, which cannot be zero.
        node = ipos[1]
        gamma = ipos[2][self._rf_slot[node]]
        if self._rf_is_mu[node]:
            return _TURN_E if gamma is None or gamma else _WON_A
        return _TURN_A if gamma is None or gamma else _WON_E

    def _moves(self, ipos, eloise_greedy=False, abelard_greedy=False):
        """Successor internal positions in deterministic move order."""
        si, node, clocks = ipos
        kind = self._kind[node]
        if kind == F.OR or kind == F.AND:
            left, right = self._children[node]
            return (si, left, clocks), (si, right, clocks)
        if kind == F.DIAMOND or kind == F.BOX:
            child = self._children[node][0]
            return [(v, child, clocks) for v in self._succ[si]]
        if kind == F.MU or kind == F.NU:
            body = self._children[node][0]
            greedy = eloise_greedy if kind == F.MU else abelard_greedy
            choices = self._clock_choices[:1] if greedy else self._clock_choices
            return [(si, body, clocks + (g,)) for g in choices]
        # Label: lower the binder's clock and return to its body.
        slot = self._rf_slot[node]
        gamma = clocks[slot]
        body = self._rf_body[node]
        prefix = clocks[:slot]
        greedy = eloise_greedy if self._rf_is_mu[node] else abelard_greedy
        if gamma is None:
            choices = self._clock_choices[:1] if greedy \
                else self._clock_choices
        else:
            choices = (gamma - 1,) if greedy else range(gamma - 1, -1, -1)
        return [(si, body, prefix + (g,)) for g in choices]

    def solve(self, mode="greedy"):
        """Winner of the game plus a winning strategy for that player.

        Greedy mode determines the winner on the subgame where both
        players only ever announce the largest legal clock value and lower
        clocks by exactly one; exhaustive mode explores every clock
        choice.  The returned strategy is total against arbitrary opponent
        play in both modes.
        """
        return self._solve(mode)

    def _decision_label(self, ipos, dst):
        return ("set-clock", dst[2][-1])


class _Graph:
    """Explored position graph with status codes and successor rows."""

    __slots__ = ("pos_list", "pos_id", "status", "succs", "_topo")

    def __init__(self, pos_list, pos_id, status, succs):
        self.pos_list = pos_list
        self.pos_id = pos_id
        self.status = status
        self.succs = succs
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
            raise RuntimeError(_CYCLE)
        self._topo = order
        return order

    def solve(self, roots):
        """Winner codes and first winning moves of what ``roots`` need.

        One iterative depth-first search: a turn position's row is tried
        in move order until its mover finds a successor that mover wins.
        Returns ``(win, pick)``: ``win[i]`` is the winner code (0 Eloise,
        1 Abelard) of every position the search solved and ``_UNSET``
        elsewhere; ``pick[i]`` is the row index of the first successor won
        by the mover, or -1 where the mover loses.  Raises RuntimeError on
        meeting a position already on the search stack, which is a cycle.
        """
        status = self.status
        succs = self.succs
        win = [_UNSET] * len(status)
        pick = [-1] * len(status)
        stack = []
        for r in roots:
            if win[r] != _UNSET:
                continue
            st = status[r]
            if st < _TURN_E:
                win[r] = st
                continue
            win[r] = _OPEN
            i, row, k, mover = r, succs[r], 0, st - _TURN_E
            while True:
                end = len(row)
                while k < end:
                    j = row[k]
                    w = win[j]
                    if w == _UNSET:
                        sj = status[j]
                        if sj >= _TURN_E:
                            break  # solve j first
                        win[j] = w = sj
                    elif w == _OPEN:
                        raise RuntimeError(_CYCLE)
                    if w == mover:
                        pick[i] = k
                        k = end
                        break
                    k += 1
                if k < end:
                    # Descend into j; row[k] is read again on return.
                    stack.append((i, row, k, mover))
                    win[j] = _OPEN
                    i, row, k, mover = j, succs[j], 0, sj - _TURN_E
                    continue
                win[i] = mover if pick[i] >= 0 else 1 - mover
                if not stack:
                    break
                i, row, k, mover = stack.pop()
        return win, pick

    def winners(self):
        """Winner codes (0 Eloise, 1 Abelard) of every position, after
        checking the whole graph for a cycle."""
        self.topo_order()
        return self.solve(range(len(self.status)))[0]


def _attractor(status, succs, player_code):
    """Positions from which ``player_code`` forces reaching a win.

    Least fixed point over a possibly cyclic graph of status codes and
    successor rows: a position joins when it is a terminal won by the
    player, when its owner is the player and some successor is in, or
    when its owner is the opponent and every successor is in.  Infinite
    play therefore favors the opponent.
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
