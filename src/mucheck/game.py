"""Clock-bounded evaluation games: positions, legal moves, solving, play.

The two players are Eloise (verifier: disjunctions, diamonds, mu) and
Abelard (falsifier: conjunctions, boxes, nu).  A game position is
``(state, node, clocks)`` where ``clocks`` is a tuple of clock values
aligned with the node's strict Mu/Nu ancestors (root first).  Binders not
on that ancestor path implicitly carry the untouched bound, so resets on
a label jump amount to truncating the tuple.  This canonical form keeps
the reachable position set a finite DAG, so every play is finite and a
position's value follows from its successors.  The solver is one
short-circuit depth-first search from the start that explores on demand:
it builds a position's successors the first time it enters it, and tries
them in move order until its mover finds one that mover wins, which is
also the position's first winning move, so the strategy is read off the
search, and it is walked only when it is read.  The sweeps and the
position-model export explore whole graphs breadth-first with the same
row builder, since they need every position.

Rules in brief:

* literal positions end the game (the truthful player wins);
* Or / Diamond / Mu / mu-labels are Eloise's turns, And / Box / Nu /
  nu-labels Abelard's;
* a modal position with no successor state loses for its mover;
* a binder position writes a fresh clock value below the bound;
* a label position with clock 0 loses for the player who owns it,
  otherwise that player must lower the clock and play returns to the
  binder's body, resetting every clock introduced below the binder.

``GameCore`` is the one game kernel (row builder, solver, play); every game
variant supplies only a position codec to it.  Internally a position is
one int ``si + S * (node + N * rest)``: S is the model's card, N the
sentence's size, and ``rest`` the part the codec owns (here the clock
prefix in mixed radix ``clock_cap + 1``).  The explorer reads statuses and
successor deltas from per-node tables built once per game and clock
policy, and calls the codec only at the nodes whose status or moves
depend on ``rest``.  Public positions are decoded from the ints, so
output is unchanged.  ``_attractor`` is the one attractor, for the free
game and alternating reachability.
"""

from collections import Counter
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

    Either given as a ``moves`` dict, or by a solver as the finished search
    it is read from: the graph's positions, statuses and rows, the
    search's picks and the winner code.  The strategy walk
    (``_strategy_walk``) then runs the first time ``len``, ``repr``,
    ``moves``, ``[]`` or ``in`` reads the strategy, and the graph is
    dropped after it; the public ``moves`` dict is built from the walk on
    first access, so ``len`` and ``repr`` never build it.
    """

    __slots__ = ("player", "_moves", "_size", "_game", "_walk", "_search")

    def __init__(self, player, moves=None, game=None, search=None):
        self.player = player
        self._moves = moves
        self._size = None if moves is None else len(moves)
        self._game = game
        self._walk = None
        self._search = search

    def _walked(self):
        """Run the walk if it has not run yet."""
        if self._size is None:
            self._walk = _strategy_walk(*self._search)
            self._size = len(self._walk)
            self._search = None

    @property
    def moves(self):
        if self._moves is None:
            self._walked()
            public = self._game._public
            label = self._game._move_label
            self._moves = {public(p): label(p, dst, k)
                           for p, k, dst in self._walk}
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
        self._walked()
        return self._size

    def __repr__(self):
        return f"Strategy({self.player}, {len(self)} positions)"


def _strategy_walk(pos_list, status, succs, pick, win_code):
    """The first-winning-move strategy of a solved graph over the
    positions reachable under it, as the (internal position, move index,
    successor) of every prescribed position, in walk order: the winner
    takes the recorded pick, the loser every move.  The search built
    every row this reads: a winner's turn was solved through its pick,
    and a loser's turn that the winner wins through every successor."""
    mover_code = _TURN_E + win_code
    loser_code = _TURN_A - win_code
    walk = []
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        row = succs[i]
        if row is None:
            raise RuntimeError("strategy walk reached an unexplored "
                               "position")
        st = status[i]
        if st == mover_code:
            k = pick[i]
            if k < 0:
                raise RuntimeError("no winning move at a won position")
            j = row[k]
            walk.append((pos_list[i], k, pos_list[j]))
            if j not in seen:
                seen.add(j)
                stack.append(j)
        elif st == loser_code:
            for j in row:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
    return walk


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

    An internal position is one int ``si + S * (node + N * rest)``, where
    S is the model's card, N the sentence's size and ``rest`` the part
    that the game's codec owns (clocks or counters).  ``p % (S * N)`` is
    then the (state, node) pair, and the one row builder
    (``_build_rows``) reads every position's status and successors from
    flat tables indexed by it, built once per game: ``_status_row(node)``
    gives the status over every state index of each non-label node, and
    the row tables, built once per clock policy, give each position's
    successors as deltas to add to it (a modal row when play first
    reaches its state).  ``_solve`` calls the builder from inside its
    depth-first search, on demand; ``_explore`` calls it breadth-first
    over the whole reachable graph, for the sweeps, the free game and
    the position-model export.  The clock-free rules
    (literals, or/and, modal moves, stuck movers) are shared here.  A game
    supplies only its codec:

    * ``_root(si)``, the start position at state index ``si``, and
      ``_internal``/``_public`` between public and internal positions;
    * ``_fixed_row(node, eloise_greedy, abelard_greedy)``, the deltas of
      a binder or label node when they do not depend on ``rest``, or None;
    * ``_decision_row(p, node, eloise_greedy, abelard_greedy)``, the
      deltas at the nodes where ``_fixed_row`` gives None;
    * ``_label_status(p, node)``, the status at a label position;
    * ``_decision_label``, the name of a binder or label move
      (``_move_label`` names every move), and ``_decision_kinds``, the
      node kinds whose moves depend on the clock or counter policy;
    * ``describe_position``/``position_json`` for output.

    So the codec is called only at the positions whose status or row
    depends on ``rest``.
    """

    last_explored = 0  # positions the last solve or exploration numbered

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
        self._S = S = model.card
        self._N = s.size
        self._SN = S * s.size
        stat = []
        rows = []
        for node, kind in enumerate(s.kind):
            row = self._status_row(node)
            stat += [None] * S if row is None else row
            # The rows no clock policy changes; binder and label rows are
            # filled in per policy by _rows.
            if kind == F.OR or kind == F.AND:
                left, right = s.children[node]
                rows += [(S * (left - node), S * (right - node))] * S
            elif kind == F.DIAMOND or kind == F.BOX:
                rows += [None] * S  # built on first use by _missing_row
            else:
                rows += [()] * S  # literals end the game
        self._stat = stat
        self._shared_rows = rows
        self._row_tables = {}

    def _status_row(self, node):
        """Status code at ``node`` per state index, or None at a label,
        whose status the codec's ``_label_status`` gives."""
        kind = self._kind[node]
        S = self._S
        if kind == F.PROP or kind == F.NEGPROP:
            code = {"1": _WON_E, "0": _WON_A} if kind == F.PROP \
                else {"1": _WON_A, "0": _WON_E}
            bits = bin(self._val[self._name[node]])[:1:-1].ljust(S, "0")
            return tuple(map(code.__getitem__, bits[:S]))
        if kind == F.OR or kind == F.MU:
            return (_TURN_E,) * S
        if kind == F.AND or kind == F.NU:
            return (_TURN_A,) * S
        if kind == F.DIAMOND:
            return tuple(map((_WON_A, _TURN_E).__getitem__,
                             map(bool, self._succ)))
        if kind == F.BOX:
            return tuple(map((_WON_E, _TURN_A).__getitem__,
                             map(bool, self._succ)))
        return None

    def _rows(self, eloise_greedy, abelard_greedy):
        """The row table of a clock policy, indexed by ``p % (S * N)``:
        the deltas from a position to its successors in move order, or
        None where ``_missing_row`` gives them."""
        key = (eloise_greedy, abelard_greedy)
        rows = self._row_tables.get(key)
        if rows is None:
            S = self._S
            rows = self._row_tables[key] = list(self._shared_rows)
            for node, kind in enumerate(self._kind):
                if kind == F.MU or kind == F.NU or kind == F.LABEL:
                    rows[node * S:(node + 1) * S] = [self._fixed_row(
                        node, eloise_greedy, abelard_greedy)] * S
        return rows

    def _missing_row(self, rows, p, eloise_greedy, abelard_greedy):
        """The deltas of ``p`` where its entry in ``rows`` is None: the
        codec's decision row, or a modal row, which is built when play
        first reaches its state and kept, so that a large model costs
        only the states a game reaches."""
        node = p // self._S % self._N
        kind = self._kind[node]
        if kind != F.DIAMOND and kind != F.BOX:
            return self._decision_row(p, node, eloise_greedy, abelard_greedy)
        S = self._S
        si = p % S
        base = S * (self._children[node][0] - node) - si
        rows[p % self._SN] = self._shared_rows[p % self._SN] = row = tuple(
            [v + base for v in self._succ[si]])
        return row

    def _status(self, p):
        st = self._stat[p % self._SN]
        if st is None:
            return self._label_status(p, p // self._S % self._N)
        return st

    def _successors(self, p, eloise_greedy=False, abelard_greedy=False):
        """Successor positions of ``p`` in move order."""
        rows = self._rows(eloise_greedy, abelard_greedy)
        deltas = rows[p % self._SN]
        if deltas is None:
            deltas = self._missing_row(rows, p, eloise_greedy, abelard_greedy)
        return [p + d for d in deltas]

    def _decision_row(self, p, node, eloise_greedy=False,
                      abelard_greedy=False):
        raise NotImplementedError(
            f"{type(self).__name__} gives every row in its tables")

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
        or counter values first.  In greedy mode clock and counter
        decisions keep only the largest legal value."""
        p = self._internal(pos)
        if self._status(p) in (_WON_E, _WON_A):
            return []
        greedy = mode == "greedy"
        return [(self._move_label(p, dst, k), self._public(dst))
                for k, dst in enumerate(self._successors(p, greedy, greedy))]

    def _move_label(self, p, dst, edge_index):
        """The name of the move from ``p`` along its ``edge_index``-th
        edge, to ``dst``."""
        kind = self._kind[p // self._S % self._N]
        if kind == F.OR or kind == F.AND:
            return ("pick-left",) if edge_index == 0 else ("pick-right",)
        if kind == F.DIAMOND or kind == F.BOX:
            return ("go-to-state", self.model.states[dst % self._S])
        return self._decision_label(p, dst)

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
        graph = self._root_graph(roots)
        self._expand(graph, [i for i, row in enumerate(graph.succs)
                             if row is None], eloise_greedy, abelard_greedy)
        return graph

    def _root_graph(self, roots):
        """A graph of the distinct roots alone: a turn root's row is None,
        unset until it is built, and a root that ends the game has an
        empty row."""
        roots = list(dict.fromkeys(roots))
        status = [self._status(p) for p in roots]
        return _Graph(roots, {p: i for i, p in enumerate(roots)}, status,
                      [None if st >= _TURN_E else () for st in status],
                      self._S)

    def _build_rows(self, graph, ids, eloise_greedy, abelard_greedy,
                    queue=None):
        """The one row builder, a generator: it builds, under the given
        clock policy, the row of every position of ``graph`` in ``ids``
        and stores it in ``graph.succs``, then waits for the next ids sent
        to it, so that its locals are bound once per graph.  Every newly
        discovered position is numbered and given its status; its row is
        None, to be built later, if it is a turn, and empty if it ends
        the game.  A discovered turn position is also appended to
        ``queue`` when one is given, so that ``queue`` as ``ids`` explores
        breadth-first.  Raises GameLimitError when the graph would
        outgrow the cap."""
        pos_list = graph.pos_list
        pos_id = graph.pos_id
        get = pos_id.get
        status = graph.status
        succs = graph.succs
        cap = self.max_positions
        S = self._S
        N = self._N
        SN = self._SN
        stat = self._stat
        rows = self._rows(eloise_greedy, abelard_greedy)
        missing_row = self._missing_row
        label_status = self._label_status
        while True:
            for i in ids:  # grows while it is walked when it is the queue
                p = pos_list[i]
                deltas = rows[p % SN]
                if deltas is None:
                    deltas = missing_row(rows, p, eloise_greedy,
                                         abelard_greedy)
                row = []
                for d in deltas:
                    dst = p + d
                    di = get(dst)
                    if di is None:
                        di = len(pos_list)
                        if di >= cap:
                            raise self._cap_error(pos_list)
                        pos_id[dst] = di
                        pos_list.append(dst)
                        st = stat[dst % SN]
                        if st is None:
                            st = label_status(dst, dst // S % N)
                        status.append(st)
                        if st >= _TURN_E:
                            succs.append(None)
                            if queue is not None:
                                queue.append(di)
                        else:
                            succs.append(())
                    row.append(di)
                succs[i] = tuple(row)
            ids = yield

    def _row_builder(self, graph, eloise_greedy, abelard_greedy):
        """``_build_rows`` as a function ``build(ids)``, for the search
        that explores on demand."""
        builder = self._build_rows(graph, (), eloise_greedy, abelard_greedy)
        next(builder)
        return builder.send

    def _expand(self, graph, frontier, eloise_greedy, abelard_greedy):
        """Breadth-first exploration: (re)build the row of every position
        in the list ``frontier`` under the given clock policy, appending
        each newly discovered turn position to it, so that play carries
        on breadth-first."""
        next(self._build_rows(graph, frontier, eloise_greedy, abelard_greedy,
                              frontier))
        graph._topo = None
        self.last_explored = len(graph.pos_list)

    def _cap_error(self, pos_list):
        """The position-cap error, naming the node with the most explored
        positions."""
        S, N = self._S, self._N
        node, count = Counter(p // S % N for p in pos_list).most_common(1)[0]
        return GameLimitError(
            f"position cap {self.max_positions} exceeded while exploring; "
            f"the busiest node is {self.index.node_path[node]} "
            f"({F.render(self.sentence, node)}) with {count} positions")

    def _reopen(self, graph, win_code):
        """Unset the rows of the loser's clock and counter decisions, so
        that they are built again under the one-sided policy; returns
        their ids.  Every other row is the same under both policies."""
        loser_turn = _TURN_A if win_code == _E else _TURN_E
        decides = [kind in self._decision_kinds for kind in self._kind]
        S, N = self._S, self._N
        redo = [i for i, (p, st) in enumerate(zip(graph.pos_list,
                                                  graph.status))
                if st == loser_turn and decides[p // S % N]]
        for i in redo:
            graph.succs[i] = None
        return redo

    def _refine(self, graph, win_code):
        """Extend a whole greedy graph in place into its one-sided
        refinement: rebuild the loser's clock and counter decisions with
        every choice, and explore on from the positions that adds."""
        self._expand(graph, self._reopen(graph, win_code),
                     win_code == _E, win_code == _A)

    def _solve(self, mode):
        """Winner of the game from ``start`` plus a winning strategy.

        The graph is explored on demand: ``_Graph.solve``'s depth-first
        search builds a position's row the first time it enters it, so
        ``last_explored`` counts the positions the search discovered, not
        the whole reachable graph.  Greedy mode first solves the subgame
        where both players only ever make the largest legal clock or
        counter choice.  It then reopens the loser's decision rows and
        solves again on the same graph under the one-sided policy, so
        that the strategy covers every opponent deviation while the
        winner's own decisions stay greedy.  A greedy choice is the first
        of the full choices, so every position of the greedy search lies
        in the one-sided game, and every row not reopened is the same
        under both policies.  Exhaustive mode solves with every choice
        once.

        The strategy is not walked here.  The returned ``Strategy`` keeps
        the graph's positions, statuses and rows, the search's picks and
        the winner code, and walks them (``_strategy_walk``) the first
        time it is read, so a verdict costs only the search.  The walk
        explores nothing and the search has fixed every pick before it
        starts, so the strategy is the same whenever it is read.

        The cycle check covers the positions the search visits: every
        position the winner and the strategy depend on.  Acyclicity of
        whole graphs is asserted by ``topo_order`` on every graph the
        sweeps explore and in the position-model export.
        """
        if mode not in ("greedy", "exhaustive"):
            raise ValueError(f"unknown solve mode {mode!r}")
        greedy = mode == "greedy"
        graph = self._root_graph(
            [self._root(self.model.state_index(self.start))])
        win, pick = graph.solve((0,), self._row_builder(graph, greedy, greedy))
        win_code = win[0]
        if greedy:
            self._reopen(graph, win_code)
            win, pick = graph.solve((0,), self._row_builder(
                graph, win_code == _E, win_code == _A))
            if win[0] != win_code:
                raise RuntimeError(
                    "greedy policy disagreed with its one-sided "
                    "refinement; rerun in exhaustive mode")
        self.last_explored = len(graph)
        player = _PLAYER_NAME[win_code]
        return player, Strategy(player, game=self, search=(
            graph.pos_list, graph.status, graph.succs, pick, win_code))

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

    Its codec keeps the clock prefix in ``rest``, in mixed radix
    ``R = clock_cap + 1``: slot k, counted from the root, has weight
    ``R**k``, and the digit ``clock_cap`` stands for None, the untouched
    bound.  Moves never write that digit, so a position decodes without
    ambiguity.  Binder rows are tables; label rows and statuses read the
    binder's slot.
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
        self._R = cap + 1
        # A position's clock in slot k is p // _slot_unit[k] % R.
        depth = max(map(len, self.index.active_ancestors))
        self._slot_unit = [self._SN * self._R ** k for k in range(depth + 1)]

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
        return si

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
        cap = self.clock_cap
        if any(v is not None and (not isinstance(v, int) or not 0 <= v < cap)
               for v in clocks):
            raise ValueError(
                f"clock values must be None or integers from 0 to {cap - 1}")
        rest = 0
        for v in reversed(clocks):
            rest = rest * self._R + (cap if v is None else v)
        return si + self._S * (node + self._N * rest)

    def _clocks(self, q, node):
        """The clock tuple of ``q = p // S`` at ``node``."""
        cap = self.clock_cap
        R = self._R
        rest = q // self._N
        clocks = []
        for _ in self.index.active_ancestors[node]:
            rest, v = divmod(rest, R)
            clocks.append(None if v == cap else v)
        return tuple(clocks)

    def _public(self, p):
        q, si = divmod(p, self._S)
        node = q % self._N
        return Position(self.model.states[si], node, self._clocks(q, node))

    _decision_kinds = (F.MU, F.NU, F.LABEL)

    def _label_status(self, p, node):
        # The clock of the label's binder decides; the digit for None,
        # the untouched bound, is nonzero.
        clock = p // self._slot_unit[self._rf_slot[node]] % self._R
        if self._rf_is_mu[node]:
            return _TURN_E if clock else _WON_A
        return _TURN_A if clock else _WON_E

    def _fixed_row(self, node, eloise_greedy, abelard_greedy):
        if self._kind[node] == F.LABEL:
            return None
        # A binder writes the next slot, which is 0 in ``rest``.
        unit = self._slot_unit[len(self.index.active_ancestors[node])]
        base = self._S * (self._children[node][0] - node)
        greedy = eloise_greedy if self._kind[node] == F.MU \
            else abelard_greedy
        choices = self._clock_choices[:1] if greedy else self._clock_choices
        return tuple(base + g * unit for g in choices)

    def _decision_row(self, p, node, eloise_greedy=False,
                      abelard_greedy=False):
        # Label: lower the binder's clock and return to its body, which
        # truncates the prefix after the binder's slot.
        unit = self._slot_unit[self._rf_slot[node]]
        top = p // unit % self._R  # the cap digit for None: every choice
        base = p % unit - p + self._S * (self._rf_body[node] - node)
        greedy = eloise_greedy if self._rf_is_mu[node] else abelard_greedy
        if greedy:
            return (base + (top - 1) * unit,)
        return [base + g * unit for g in range(top - 1, -1, -1)]

    def solve(self, mode="greedy"):
        """Winner of the game plus a winning strategy for that player.

        Greedy mode determines the winner on the subgame where both
        players only ever announce the largest legal clock value and lower
        clocks by exactly one; exhaustive mode explores every clock
        choice.  The returned strategy is total against arbitrary opponent
        play in both modes.
        """
        return self._solve(mode)

    def _decision_label(self, p, dst):
        return ("set-clock", self._public(dst).clocks[-1])


class _Graph:
    """Explored position graph with status codes and successor rows.

    A turn position's row is None until it is built, which ``solve``
    does on demand through its ``expand`` callback; ``_explore`` builds
    every row.  ``states`` is the model's card S when the positions are a
    game's ints: position ``p`` then lies at state index ``p % states``.
    """

    __slots__ = ("pos_list", "pos_id", "status", "succs", "states", "_topo")

    def __init__(self, pos_list, pos_id, status, succs, states=None):
        self.pos_list = pos_list
        self.pos_id = pos_id
        self.status = status
        self.succs = succs
        self.states = states
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

    def solve(self, roots, expand=None):
        """Winner codes and first winning moves of what ``roots`` need.

        One iterative depth-first search: a turn position's row is tried
        in move order until its mover finds a successor that mover wins.
        A row that is None is still unset: ``expand((i,))`` builds it, and
        numbers the positions it discovers, when the search first enters
        ``i``.  So a game is explored on demand, only as far as the search
        reads it.  Returns ``(win, pick)``: ``win[i]`` is the winner code
        (0 Eloise, 1 Abelard) of every position the search solved and
        ``_UNSET`` elsewhere; ``pick[i]`` is the row index of the first
        successor won by the mover, or -1 where the mover loses.  Raises
        RuntimeError on meeting a position already on the search stack,
        which is a cycle.
        """
        status = self.status
        succs = self.succs
        win = [_UNSET] * len(status)
        pick = [-1] * len(status)
        stack = []
        for r in roots:
            # Enter r from a sentinel parent, -1, whose row is (r,) and
            # which no player owns, so that it never short-circuits.
            i, row, k, mover = -1, (r,), 0, None
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
                    row = succs[j]
                    if row is None:
                        expand((j,))
                        row = succs[j]
                        if len(status) > len(win):
                            # Room for what expand numbered, and as much
                            # again, so that the lists grow in few steps.
                            grow = 2 * len(status) - len(win)
                            win += [_UNSET] * grow
                            pick += [-1] * grow
                    i, k, mover = j, 0, sj - _TURN_E
                    continue
                if not stack:
                    break  # back at the sentinel
                win[i] = mover if pick[i] >= 0 else 1 - mover
                i, row, k, mover = stack.pop()
        del win[len(status):]
        del pick[len(status):]
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
