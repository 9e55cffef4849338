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
the first time it enters a position it numbers that position's
successors inline, and it tries them in move order until its mover finds
one that mover wins, which is also the position's first winning move, so
the strategy is read off the search, and it is walked only when it is
read.  In greedy mode the verdict is one search of the game where both
players make only the largest clock choice; the one-sided re-solve that
makes the strategy answer every opponent choice also runs only when the
strategy is read.  The sweeps and the position-model export explore
whole graphs with a breadth-first builder, since they need every
position, and solve them with the same search; the sweeps' every-choice
graphs are their greedy graphs with the decision rows rebuilt in place.

Rules in brief:

* literal positions end the game (the truthful player wins);
* Or / Diamond / Mu / mu-labels are Eloise's turns, And / Box / Nu /
  nu-labels Abelard's;
* a modal position with no successor state loses for its mover;
* a binder position writes a fresh clock value below the bound;
* a label position with clock 0 loses for the player who owns it,
  otherwise that player must lower the clock and play returns to the
  binder's body, resetting every clock introduced below the binder.

``GameCore`` is the one game kernel (row tables, search, play); every game
variant supplies only a position codec to it.  Internally a position is
one int ``si + S * (node + N * rest)``: S is the model's card, N the
sentence's size, and ``rest`` the part the codec owns (here the clock
prefix in mixed radix ``clock_cap + 1``).  The search and the
breadth-first builder read statuses and successor deltas from per-node
tables built once per game and clock policy from the codec's units:
a label's status is a code indexed by the digit of ``rest`` that holds
its binder's clock, and its greedy move lowers that digit.  They call
the codec per position only for a row that depends on ``rest`` under
every choice.
Play and strategy validation walk the ints too, and read a solver's
strategy as its pick table over them, ``{position: (move index,
successor)}``.  Public positions are decoded from the ints only for
output, for a strategy given as a public ``moves`` dict and for error
messages, and encoded only where the public ``status`` and
``legal_moves`` are called.
``_attractor`` is the one attractor, for the free game and alternating
reachability.
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


# The GameStatus of each internal status code.
_STATUS = (GameStatus("won", ELOISE), GameStatus("won", ABELARD),
           GameStatus("turn", ELOISE), GameStatus("turn", ABELARD))


class Strategy:
    """Move prescriptions for one player on their reachable positions.

    Either given as a ``moves`` dict, or by a solver as a callable that
    returns the finished search it is read from: the graph's positions,
    statuses and rows, the search's picks and the winner code.  The
    callable may run deferred solver work first (greedy mode's one-sided
    re-solve), so it and the strategy walk (``_strategy_walk``) run the
    first time the strategy is read, and the graph is dropped after
    them.  The walk gives the pick table over the solving game's
    internal positions, which the strategy keeps: ``len``, ``repr``, and
    ``play`` and ``validate_strategy`` on that game read it.  The public
    ``moves`` dict is built from the table only when ``moves``, ``[]`` or
    ``in`` reads it.  If the callable raises, the next read calls it
    again.
    """

    __slots__ = ("player", "_moves", "_game", "_walk", "_search")

    def __init__(self, player, moves=None, game=None, search=None):
        self.player = player
        self._moves = moves
        self._game = game
        self._walk = None
        self._search = search

    def _table(self):
        """The pick table, after running the search callable and the
        walk if they have not run."""
        if self._walk is None:
            self._walk = _strategy_walk(*self._search())
            self._search = None
        return self._walk

    @property
    def moves(self):
        if self._moves is None:
            public = self._game._public
            label = self._game._move_label
            self._moves = {public(p): label(p, dst, k)
                           for p, (k, dst) in self._table().items()}
        return self._moves

    def __contains__(self, pos):
        return pos in self.moves

    def __getitem__(self, pos):
        try:
            return self.moves[pos]
        except KeyError:
            raise StrategyError(f"strategy has no move for {pos}") from None

    def __len__(self):
        return len(self._moves if self._game is None else self._table())

    def __repr__(self):
        return f"Strategy({self.player}, {len(self)} positions)"


def _strategy_walk(pos_list, status, succs, pick, win_code):
    """The first-winning-move strategy of a solved graph over the
    positions reachable under it, as its pick table ``{internal position:
    (move index, successor)}`` in walk order: the winner takes the
    recorded pick, the loser every move.  The search built every row
    this reads: a winner's turn was solved through its pick, and a
    loser's turn that the winner wins through every successor."""
    mover_code = _TURN_E + win_code
    loser_code = _TURN_A - win_code
    walk = {}
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
            walk[pos_list[i]] = k, pos_list[j]
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


class GameCore:
    """Exploration, solving, play and validation shared by every game.

    An internal position is one int ``si + S * (node + N * rest)``, where
    S is the model's card, N the sentence's size and ``rest`` the part
    that the game's codec owns (clocks or counters).  ``p % (S * N)`` is
    then the (state, node) pair, and every position's status and
    successors are read from flat tables indexed by it.  Per game:
    ``_status_row(node)`` gives the status over every state index of
    each non-label node, and the label table gives a label's status as
    a code indexed by one digit of ``rest``.  Per clock policy: the row
    table gives each position's successors as deltas to add to it (a
    modal row when play first reaches its state), and the jump table
    the one move of a label whose owner plays greedy.  Two loops read
    them: ``_Graph.solve``'s depth-first search, which ``_solve`` (the
    clock and counter games' public ``solve``) runs and which numbers a
    position's successors when it first enters it, and the breadth-first
    builder ``_build_rows``, which ``_explore`` runs over the whole
    reachable graph for the sweeps, the free game and the position-model
    export.  Both reuse a greedy graph for a less greedy policy:
    ``_reopen`` unsets the decision rows that the policy changes, greedy
    mode's deferred re-solve searches again from there, and ``_refine``
    rebuilds every decision row with the builder, which gives the sweeps
    their every-choice graphs; the greedy numbering stays the order when
    every rebuilt row points forward.  ``play``
    and ``validate_strategy`` walk internal positions with ``_status``
    and ``_successors``.  ``_strategy_index`` reads a strategy that this
    game solved from its pick table, checking the recorded successor,
    so they decode through ``_public`` only for the trace, for a
    strategy given as a ``moves`` dict and for their errors.
    The clock-free rules (literals, or/and, modal moves, stuck movers)
    are shared here.  A game supplies only its codec:

    * ``_root(si)``, the start position at state index ``si``, and
      ``_internal``/``_public`` between public and internal positions;
    * ``_fixed_row(node, eloise_greedy, abelard_greedy)``, the deltas of
      a binder or label node when they do not depend on ``rest``, or None;
    * ``_label_rule(node)``, the label's ``(unit, radix, codes)``: a
      label position ``p`` has status ``codes[d]`` for its digit
      ``d = p // unit % radix``, the last code standing for every digit
      past the end;
    * ``_label_jump(node)``, the label's move when its owner plays
      greedy and ``_fixed_row`` gives None, as ``(keep, delta)`` for the
      one successor ``p % keep + delta``, or None;
    * ``_decision_row(p, node)``, the deltas of a binder or label
      position that neither table gives, such as a label whose owner
      chooses freely; a codec whose tables give every row has none;
    * ``_decision_label``, the name of a binder or label move
      (``_move_label`` names every move), and ``_decision_kinds``, the
      node kinds whose moves depend on the clock or counter policy;
    * ``describe_position``/``position_json`` for output.

    So per position the codec is called only for the rows that depend
    on ``rest`` under every choice; its other calls build the tables.
    """

    # Positions numbered by the last exploration, solve or deferred
    # refinement: a greedy solve counts its one search until its strategy
    # is read, and the one-sided refinement's graph after that.
    last_explored = 0

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
        self._labels = None
        self._row_tables = {}

    def _status_row(self, node):
        """Status code at ``node`` per state index, or None at a label,
        whose status the label table gives."""
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

    def _label_table(self):
        """The label table, indexed by ``p % (S * N)`` and None off the
        labels: ``(unit, radix, codes, top)`` from the codec's
        ``_label_rule``, so that a label position ``p`` with digit
        ``d = p // unit % radix`` has status ``codes[min(d, top)]``.  The
        last code stands for every digit from ``top`` up, so ``codes``
        need not list every clock or counter value.  The table is built
        on first use, since a codec sets its units after
        ``GameCore.__init__``."""
        labels = self._labels
        if labels is None:
            S = self._S
            labels = self._labels = [None] * self._SN
            for node, kind in enumerate(self._kind):
                if kind == F.LABEL:
                    unit, radix, codes = self._label_rule(node)
                    labels[node * S:(node + 1) * S] = \
                        [(unit, radix, codes, len(codes) - 1)] * S
        return labels

    def _owner_codes(self, node):
        """The status codes of label ``node`` by its binder's clock or
        counter: 0 loses for the label's owner, and any other value is
        the owner's turn."""
        return (_WON_A, _TURN_E) if self._rf_is_mu[node] \
            else (_WON_E, _TURN_A)

    def _label_jump(self, node):
        """None: by default a label row that ``_fixed_row`` does not give
        comes from ``_decision_row`` under every policy."""
        return None

    def _rows(self, eloise_greedy, abelard_greedy):
        """The row and jump tables of a clock policy, indexed by
        ``p % (S * N)``.  A row entry is the deltas from a position to
        its successors in move order, or None where the jump table or
        ``_missing_row`` gives them.  A jump entry ``(keep, delta)`` is
        the move of a label whose owner plays greedy, to the one
        successor ``p % keep + delta``, and None elsewhere."""
        key = (eloise_greedy, abelard_greedy)
        tables = self._row_tables.get(key)
        if tables is None:
            S = self._S
            rows = list(self._shared_rows)
            jumps = [None] * self._SN
            for node, kind in enumerate(self._kind):
                if kind == F.MU or kind == F.NU or kind == F.LABEL:
                    cells = slice(node * S, (node + 1) * S)
                    fixed = self._fixed_row(node, eloise_greedy,
                                            abelard_greedy)
                    rows[cells] = [fixed] * S
                    if fixed is None and kind == F.LABEL and (
                            eloise_greedy if self._rf_is_mu[node]
                            else abelard_greedy):
                        jumps[cells] = [self._label_jump(node)] * S
            tables = self._row_tables[key] = (rows, jumps)
        return tables

    def _missing_row(self, rows, p):
        """The deltas of ``p`` where neither its row entry nor its jump
        entry gives them: the codec's every-choice decision row, or a
        modal row, which is built when play first reaches its state and
        kept, so that a large model costs only the states a game
        reaches."""
        node = p // self._S % self._N
        kind = self._kind[node]
        if kind != F.DIAMOND and kind != F.BOX:
            return self._decision_row(p, node)
        S = self._S
        si = p % S
        base = S * (self._children[node][0] - node) - si
        rows[p % self._SN] = self._shared_rows[p % self._SN] = row = tuple(
            [v + base for v in self._succ[si]])
        return row

    def _status(self, p):
        c = p % self._SN
        st = self._stat[c]
        if st is None:
            unit, radix, codes, top = self._label_table()[c]
            d = p // unit % radix
            st = codes[d if d < top else top]
        return st

    def _successors(self, p, eloise_greedy=False, abelard_greedy=False):
        """Successor positions of ``p`` in move order."""
        rows, jumps = self._rows(eloise_greedy, abelard_greedy)
        c = p % self._SN
        deltas = rows[c]
        if deltas is None:
            jump = jumps[c]
            if jump is not None:
                return [p % jump[0] + jump[1]]
            deltas = self._missing_row(rows, p)
        return [p + d for d in deltas]

    def status(self, pos):
        return _STATUS[self._status(self._internal(pos))]

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

    def _strategy_index(self, strategy, p, succs):
        """Index into ``succs``, the successors of ``p`` in move order, of
        the move that ``strategy`` prescribes at ``p``.  A strategy that
        this game solved is read from its pick table, whose move is legal
        only if it leads to the recorded successor; a position outside
        the table, or any other strategy, is looked up at the public
        position and the move's label matched."""
        pick = strategy._game is self and strategy._table().get(p)
        if pick:
            k, dst = pick
            if k < len(succs) and succs[k] == dst:
                return k
            move = self._move_label(p, dst, k)
        else:
            move = strategy[self._public(p)]
            for k, dst in enumerate(succs):
                if self._move_label(p, dst, k) == tuple(move):
                    return k
        raise StrategyError(f"strategy move {move} is illegal at "
                            f"{self._public(p)}")

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
        numbered in discovery order from the distinct roots on.

        When the builder finds every edge pointing to a higher id, the
        numbering is a topological order (a cycle needs an edge to an
        equal or lower id), so it is cached as the graph's order and
        ``topo_order`` skips Kahn's pass."""
        graph = self._root_graph(roots)
        frontier = [i for i, row in enumerate(graph.succs) if row is None]
        if self._build_rows(graph, frontier, eloise_greedy, abelard_greedy):
            graph._topo = range(len(graph.pos_list))
        self.last_explored = len(graph.pos_list)
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

    def _build_rows(self, graph, frontier, eloise_greedy, abelard_greedy):
        """The breadth-first row builder: build, under the given clock
        policy, the row of every position of ``graph`` in the list
        ``frontier`` and store it in ``graph.succs``, numbering every
        newly discovered position, giving it its status and appending it
        to ``frontier`` if it is a turn, so that play carries on
        breadth-first.  A discovered turn's row is None until it is
        built; a position that ends the game has an empty row.  It reads
        the same tables as ``_Graph.solve``'s search, and drops the
        graph's cached topological order.  Returns whether every row it
        built points only to ids above its own: a newly numbered position
        always does, so only a successor numbered before can point back.
        Rows it did not build are not checked, so only a caller that knows
        those rows point forward may take the numbering as the order:
        ``_explore_roots`` builds every row here, and ``_refine`` keeps
        rows of a graph whose numbering was an order.  Raises
        GameLimitError when the graph would outgrow the cap."""
        graph._topo = None
        forward = True
        pos_list = graph.pos_list
        pos_id = graph.pos_id
        get = pos_id.get
        status = graph.status
        succs = graph.succs
        cap = self.max_positions
        SN = self._SN
        stat = self._stat
        labels = self._label_table()
        rows, jumps = self._rows(eloise_greedy, abelard_greedy)
        missing_row = self._missing_row
        for i in frontier:  # grows while it is walked
            p = pos_list[i]
            c = p % SN
            deltas = rows[c]
            if deltas is None:
                jump = jumps[c]
                if jump is None:
                    deltas = missing_row(rows, p)
                else:
                    deltas = (p % jump[0] + jump[1] - p,)
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
                        unit, radix, codes, top = labels[dst % SN]
                        digit = dst // unit % radix
                        st = codes[digit if digit < top else top]
                    status.append(st)
                    if st >= _TURN_E:
                        succs.append(None)
                        frontier.append(di)
                    else:
                        succs.append(())
                elif di <= i:
                    forward = False
                row.append(di)
            succs[i] = tuple(row)
        return forward

    def _cap_error(self, pos_list):
        """The position-cap error, naming the node with the most explored
        positions."""
        S, N = self._S, self._N
        node, count = Counter(p // S % N for p in pos_list).most_common(1)[0]
        return GameLimitError(
            f"position cap {self.max_positions} exceeded while exploring; "
            f"the busiest node is {self.index.node_path[node]} "
            f"({F.render(self.sentence, node)}) with {count} positions")

    def _reopen(self, graph, eloise_greedy, abelard_greedy):
        """Unset the rows of the clock and counter decisions whose mover
        does not play greedy under the given clock policy, so that they
        are built again under it; returns their ids.  A greedy choice is
        the first of the full choices, so on a graph built under a policy
        that is greedy wherever this one is, every other row is the same
        under both: greedy mode's one-sided re-solve reopens the loser's
        decisions, and ``_refine`` every decision."""
        # Whether to reopen, by status code: only a non-greedy turn.
        reopen = (False, False, not eloise_greedy, not abelard_greedy)
        decides = [kind in self._decision_kinds for kind in self._kind]
        S, N = self._S, self._N
        redo = [i for i, (p, st) in enumerate(zip(graph.pos_list,
                                                  graph.status))
                if reopen[st] and decides[p // S % N]]
        for i in redo:
            graph.succs[i] = None
        return redo

    def _refine(self, graph):
        """Refine in place a whole graph that ``_explore`` built under a
        greedy policy into the every-choice graph, and return it: reopen
        every decision row (``_reopen``) and build those rows, and the
        positions they reach, under every choice (``_build_rows``).  The
        greedy positions keep their ids, so the start states' roots stay
        first, and the new positions are numbered after them.  Every
        greedy edge is an every-choice edge too, so the numbering is an
        order exactly when the greedy numbering was one and every rebuilt
        row points forward; then ``range(n)`` stays the cached order."""
        forward = isinstance(graph._topo, range)
        redo = self._reopen(graph, False, False)
        if self._build_rows(graph, redo, False, False) and forward:
            graph._topo = range(len(graph.pos_list))
        self.last_explored = len(graph.pos_list)
        return graph

    def _check_explored(self):
        """Called after each search that ``_solve`` runs, greedy mode's
        deferred re-solve included, with ``last_explored`` set to the
        positions it numbered; a game whose position count has a known
        bound checks it here, as the two-counter game checks
        card(M) * size * (f+1)^2."""

    def _solve(self, mode="greedy"):
        """Winner of the game from ``start`` plus a winning strategy for
        that player.  ``EvalGame`` and ``FBoundedGame`` give it as their
        public ``solve``.

        The graph is explored on demand: ``_Graph.solve``'s depth-first
        search, given this game and its clock policy, numbers a
        position's successors from the game's tables the first time it
        enters the position, so ``last_explored`` counts the positions
        the search discovered, not the whole reachable graph.
        Exhaustive mode solves with every clock or counter choice.
        Greedy mode solves the subgame where both players only ever make
        the largest legal choice: announce the largest clock value and
        lower a clock or counter by exactly one.  Its winner is the
        verdict: every play is finite, so the search's answer at the
        start is exact for that subgame, and criterion 8 holds it equal
        to the exhaustive winner.  The codec's ``_check_explored`` runs
        after every search.

        The strategy is total against arbitrary opponent play in both
        modes, but it is not computed here.  The returned ``Strategy``
        holds a callable that gives it the finished search (the graph's
        positions, statuses and rows, the picks and the winner code),
        and walks it (``_strategy_walk``) the first time it is read, so a
        verdict costs one search.  In greedy mode that callable first
        runs ``_refined_search``: the one-sided re-solve that makes the
        strategy answer every opponent deviation, with its cap, its
        position bound and its check that it agrees with the verdict.
        The walk explores nothing and every pick is fixed before it
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
        win, pick = graph.solve((0,), self, greedy, greedy)
        win_code = win[0]
        self.last_explored = len(graph)
        self._check_explored()
        if greedy:
            def search():
                return self._refined_search(graph, win_code)
        else:
            found = (graph.pos_list, graph.status, graph.succs, pick,
                     win_code)

            def search():
                return found
        player = _PLAYER_NAME[win_code]
        return player, Strategy(player, game=self, search=search)

    def _refined_search(self, graph, win_code):
        """Greedy mode's deferred half: reopen the loser's decision rows
        of a greedy search's graph and solve again on it under the
        one-sided policy, which keeps the winner's own decisions greedy.
        A greedy choice is the first of the full choices, so every
        position of the greedy search lies in the one-sided game, and
        every row not reopened is the same under both policies.  Returns
        the finished search for the strategy walk."""
        policy = (win_code == _E, win_code == _A)
        self._reopen(graph, *policy)
        win, pick = graph.solve((0,), self, *policy)
        if win[0] != win_code:
            raise RuntimeError(
                "greedy policy disagreed with its one-sided "
                "refinement; rerun in exhaustive mode")
        self.last_explored = len(graph)
        self._check_explored()
        return graph.pos_list, graph.status, graph.succs, pick, win_code

    def play(self, eloise, abelard, max_rounds=1_000_000):
        """Play the game out and return the Trace.

        Each player is a Strategy or a callable ``(game, position, moves)
        -> index`` into the legal move list.  Play runs on internal
        positions and decodes each one once, for its round of the trace.
        """
        p = self._root(self.model.state_index(self.start))
        steps = []
        for _ in range(max_rounds):
            pos = self._public(p)
            status = _STATUS[self._status(p)]
            if status.kind == "won":
                steps.append((pos, status, None))
                return Trace(steps, status.player)
            succs = self._successors(p)
            player = eloise if status.player == ELOISE else abelard
            if isinstance(player, Strategy):
                chosen = self._strategy_index(player, p, succs)
            else:
                chosen = player(self, pos, self.legal_moves(pos))
                if not 0 <= chosen < len(succs):
                    raise ValueError(f"move index {chosen} out of range")
            steps.append((pos, status,
                          self._move_label(p, succs[chosen], chosen)))
            p = succs[chosen]
        raise RuntimeError("play did not terminate within the round cap")

    def validate_strategy(self, winner, strategy):
        """Check the strategy wins every opponent playout; returns the
        number of distinct positions visited.  The walk runs on internal
        positions and reads the strategy's move at a winner's turn through
        ``_strategy_index``; it decodes a position only to look up a
        ``moves`` dict, or to name it in an error."""
        seen = set()
        stack = [self._root(self.model.state_index(self.start))]
        while stack:
            p = stack.pop()
            if p in seen:
                continue
            seen.add(p)
            kind, player = _STATUS[self._status(p)]
            if kind == "won":
                if player != winner:
                    raise StrategyError("strategy reached a position lost "
                                        f"at {self._public(p)}")
                continue
            succs = self._successors(p)
            if player == winner:
                stack.append(succs[self._strategy_index(strategy, p, succs)])
            else:
                stack.extend(succs)
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
        # Clock values a binder may announce, largest first: a range,
        # since a greedy binder reads only the first of them.
        self.clock_cap = cap = clock_cap(bound, model)
        self._clock_choices = range(cap - 1, -1, -1)
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

    def _label_rule(self, node):
        # The clock of the label's binder decides; the digit for None,
        # the untouched bound, is nonzero.
        return (self._slot_unit[self._rf_slot[node]], self._R,
                self._owner_codes(node))

    def _fixed_row(self, node, eloise_greedy, abelard_greedy):
        if self._kind[node] == F.LABEL:
            return None
        # A binder writes the next slot, which is 0 in ``rest``.
        unit = self._slot_unit[len(self.index.active_ancestors[node])]
        base = self._S * (self._children[node][0] - node)
        greedy = eloise_greedy if self._kind[node] == F.MU \
            else abelard_greedy
        choices = self._clock_choices
        if greedy:
            choices = choices[:1]
        elif self.clock_cap > self.max_positions:
            raise GameLimitError(
                f"clock bound {self.clock_cap} gives a binder more choices "
                f"than the position cap {self.max_positions}")
        return tuple(base + g * unit for g in choices)

    def _label_jump(self, node):
        # Greedy label: lower the binder's clock by one and return to its
        # body.  Keeping ``p % (unit * R)`` truncates the prefix after
        # the binder's slot; the cap digit, for None, becomes the largest
        # clock.
        unit = self._slot_unit[self._rf_slot[node]]
        return unit * self._R, self._S * (self._rf_body[node] - node) - unit

    def _decision_row(self, p, node):
        # Label under every choice: any lower clock, largest first.
        unit = self._slot_unit[self._rf_slot[node]]
        top = p // unit % self._R  # the cap digit for None: every choice
        base = p % unit - p + self._S * (self._rf_body[node] - node)
        return range(base + (top - 1) * unit, base - unit, -unit)

    solve = GameCore._solve

    def _decision_label(self, p, dst):
        return ("set-clock", self._public(dst).clocks[-1])


class _Graph:
    """Explored position graph with status codes and successor rows.

    A turn position's row is None until it is built: ``solve``, given
    the game, builds it on demand inside its search, and ``_explore``'s
    breadth-first builder builds every row (``_refine`` rebuilds the
    decision rows in place).  ``states`` is the model's
    card S when the positions are a game's ints: position ``p`` then
    lies at state index ``p % states``.
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
        """Topological order; raises if the graph has a cycle.

        The order is cached.  ``GameCore._explore_roots`` and
        ``GameCore._refine`` cache the numbering itself, ``range(n)``,
        when every edge of the graph goes to a higher id, which no cycle
        can do.  ``GameCore._build_rows`` drops the cached order, so any
        other graph gets Kahn's pass."""
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

    def solve(self, roots, game=None, eloise_greedy=False,
              abelard_greedy=False):
        """Winner codes and first winning moves of what ``roots`` need.

        One iterative depth-first search: a turn position's row is tried
        in move order until its mover finds a successor that mover wins.
        A row that is None is still unset.  With a ``game`` the search
        builds it when it first enters the position, under the given
        clock policy, from the same tables as ``GameCore._build_rows``:
        it numbers the successors it discovers and gives each its
        status.  So a game is explored on demand, only as far as the
        search reads it, and the cap and its error are the builder's.  A
        fully built graph, solved without a game, has no unset row.
        Each numbered position appends one entry to ``win`` and ``pick``
        as to the graph's lists, so all five have the graph's length at
        every step.  Returns ``(win, pick)``: ``win[i]`` is the winner
        code (0 Eloise, 1 Abelard) of every position the search solved
        and ``_UNSET`` elsewhere; ``pick[i]`` is the row index of the
        first successor won by the mover, or -1 where the mover loses.
        Raises RuntimeError on meeting a position already on the search
        stack, which is a cycle.
        """
        pos_list = self.pos_list
        status = self.status
        succs = self.succs
        if game is not None:
            pos_id = self.pos_id
            get = pos_id.get
            cap = game.max_positions
            SN = game._SN
            stat = game._stat
            labels = game._label_table()
            rows, jumps = game._rows(eloise_greedy, abelard_greedy)
            missing_row = game._missing_row
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
                        # Build j's row: GameCore._build_rows, inline.
                        p = pos_list[j]
                        c = p % SN
                        deltas = rows[c]
                        if deltas is None:
                            jump = jumps[c]
                            if jump is None:
                                deltas = missing_row(rows, p)
                            else:
                                deltas = (p % jump[0] + jump[1] - p,)
                        row = []
                        for d in deltas:
                            dst = p + d
                            di = get(dst)
                            if di is None:
                                di = len(pos_list)
                                if di >= cap:
                                    raise game._cap_error(pos_list)
                                pos_id[dst] = di
                                pos_list.append(dst)
                                st = stat[dst % SN]
                                if st is None:
                                    unit, radix, codes, top = labels[dst % SN]
                                    digit = dst // unit % radix
                                    st = codes[digit if digit < top else top]
                                status.append(st)
                                succs.append(None if st >= _TURN_E else ())
                                win.append(_UNSET)
                                pick.append(-1)
                            row.append(di)
                        succs[j] = row = tuple(row)
                    i, k, mover = j, 0, sj - _TURN_E
                    continue
                if not stack:
                    break  # back at the sentinel
                win[i] = mover if pick[i] >= 0 else 1 - mover
                i, row, k, mover = stack.pop()
        return win, pick

    def winners(self, count=None):
        """Winner codes (0 Eloise, 1 Abelard) of the first ``count``
        positions, or of every position, solved from those alone once the
        whole graph is checked for a cycle.  ``GameCore._explore``
        numbers the distinct roots first, so a sweep reads its start
        states' winners as ``winners(card)``."""
        self.topo_order()
        if count is None:
            count = len(self.status)
        return self.solve(range(count))[0][:count]


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
