"""Alternating reachability: the fixed sentence chi, the AR game solver,
and the transformations turning model-checking instances into AR instances
over the evaluation game's position graph.

An AR model speaks the vocabulary {p_B, q_B}.  Player B moves at q_B
states, wins on reaching a p_B state, a stuck player loses, and infinite
play favors A.  The exported position models label a game position with
p_B when it is a true literal and with q_B when its formula is a
disjunction, a diamond, a mu-binder, a mu-label, or a false literal, which
makes the AR game on the export play out exactly like the evaluation
game.
"""

from itertools import chain, compress, count, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import add

from . import formula as F
from .game import (DEFAULT_MAX_POSITIONS, EvalGame, GameLimitError,
                   _TURN_A, _TURN_E, _WON_A, _WON_E, _E, _attractor)
from .kripke import (KripkeModel, _ids, _json_block, _json_document, _mask,
                     _model_members, save_model)
from .semantics import check_bound

P_B = "p_B"
Q_B = "q_B"

_CHI_TEXT = "mu X. (p_B | (q_B & <> X) | (! q_B & [] X))"
_CHI = None


class VocabularyError(Exception):
    """An AR model used propositions outside {p_B, q_B}."""


def chi():
    """The AR-defining sentence mu X.(p_B | (q_B & <>X) | (!q_B & []X))."""
    global _CHI
    if _CHI is None:
        _CHI = F.parse(_CHI_TEXT)
    return _CHI


def check_ar_vocabulary(model):
    extra = set(model._val_mask) - {P_B, Q_B}
    if extra:
        raise VocabularyError(
            f"AR models only carry p_B and q_B, found {sorted(extra)}")


def ar_winning_set(model):
    """States from which B wins the alternating reachability game.

    The attractor of B's wins, with B as the first player: p_B states are
    won by B, a state without successors is lost by its mover, q_B states
    are B's turns and every other state is A's.
    """
    check_ar_vocabulary(model)
    succ = model._succ
    status = [_TURN_A if row else _WON_E for row in succ]
    for i in _ids(model._val_mask.get(Q_B, 0)):
        status[i] = _TURN_E if succ[i] else _WON_A
    for i in _ids(model._val_mask.get(P_B, 0)):
        status[i] = _WON_E
    win = _attractor(status, succ, _E)
    return frozenset(compress(model.states, win))


def solve_ar(model, state):
    """True when B wins the AR game on (model, state)."""
    model.state_index(state)
    return state in ar_winning_set(model)


class ReducedModel:
    """An AR model over evaluation-game positions, plus the root position
    and a back-map from exported state names to position data.

    The state names, successor rows and p_B/q_B masks are kept as built;
    the ``KripkeModel`` is built from them when ``model`` is first read,
    and the back-map from the decoded positions when it is first read.
    ``json_text`` writes the file straight from the kept data.
    """

    __slots__ = ("root", "_names", "_rows", "_val_mask", "_model", "_game",
                 "_positions", "_pos_of", "_backmap")

    def __init__(self, names, rows, val_mask, game, positions, pos_of):
        # Exported state k is named names[k], has the successors rows[k]
        # and is explored position i = pos_of[k], decoded in ``positions``
        # (see _decode).
        self.root = names[0]
        self._names = names
        self._rows = rows
        self._val_mask = val_mask
        self._model = None
        self._game = game
        self._positions = positions
        self._pos_of = pos_of
        self._backmap = None

    @property
    def model(self):
        if self._model is None:
            self._model = KripkeModel._from_rows(self._names, self._rows,
                                                 self._val_mask)
        return self._model

    @property
    def positions(self):
        return len(self._names)

    @property
    def backmap(self):
        if self._backmap is None:
            game = self._game
            states = game.model.states
            paths = game.index.node_path
            anc = game.index.active_ancestors
            name = game.sentence.name
            sis, qs, prefix = self._positions
            backmap = {}
            for nm, i in zip(self._names, self._pos_of):
                node, clocks = prefix[qs[i]]
                backmap[nm] = {
                    "state": states[sis[i]], "node": paths[node],
                    "clocks": {name[b]: v for b, v in zip(anc[node], clocks)}}
            self._backmap = backmap
        return self._backmap

    def to_json_dict(self):
        data = self.model.to_json_dict()
        data["root"] = self.root
        data["backmap"] = self.backmap
        return data

    def json_text(self):
        """The reduced-model file: ``json.dumps(self.to_json_dict(),
        indent=2)`` plus a newline, byte for byte, without building the
        model or the back-map."""
        return "".join(_json_document(self._json_members()))

    def _json_members(self):
        quoted = list(map(_quote, self._names))
        rows = self._rows
        yield from _model_members(
            quoted, chain.from_iterable(map(repeat, quoted, map(len, rows))),
            map(quoted.__getitem__, chain.from_iterable(rows)),
            sum(map(len, rows)), self._val_mask)
        yield ('"root": ' + _quote(self.root),)
        state, sis, tail, qs = _backmap_entries(self._game, self._positions)
        pos_of = self._pos_of
        yield _json_block('"backmap": ', "{}", map(
            add, map(add, quoted, map(state.__getitem__,
                                      map(sis.__getitem__, pos_of))),
            map(tail.__getitem__, map(qs.__getitem__, pos_of))), 1)

    def save(self, path):
        save_model(self, path)

    def __repr__(self):
        return f"ReducedModel({self.positions} positions, root={self.root!r})"


def _backmap_entries(game, positions):
    """The parts of the encoded back-map values, after the ": " that
    follows a key: ``(state, sis, tail, qs)``, where explored position i
    has the value ``state[sis[i]] + tail[qs[i]]``.  The state part is
    encoded once per state, and the rest once per node and clock prefix,
    from one %-template per syntax node; the writer joins the values one
    slice at a time."""
    paths = game.index.node_path
    name = game.sentence.name
    # Node paths and binder names hold no "%".  A game's binder names are
    # pairwise distinct (GameCore normalizes the sentence otherwise), so
    # every clock value has a key of its own.
    templates = [
        ',\n      "node": ' + _quote(paths[node]) + ',\n      "clocks": '
        + "".join(_json_block("", "{}", (_quote(name[b]) + ": %d"
                                         for b in anc), 3))
        + "\n    }"
        for node, anc in enumerate(game.index.active_ancestors)]
    sis, qs, prefix = positions
    tail = {q: templates[node] % clocks
            for q, (node, clocks) in prefix.items()}
    state = [': {\n      "state": ' + _quote(w) for w in game.model.states]
    return state, sis, tail, qs


def _valuation_tables(game):
    """p_B / q_B flags per ``(state, node)`` key ``p % (S * N)`` of the
    game's positions.  Literals read the model's valuation, not the
    game's status rows, so that a wrong status rule shows up as a
    disagreement between the game and the AR export."""
    S = game._S
    p_table = []
    q_table = []
    for node, k in enumerate(game._kind):
        if k == F.PROP or k == F.NEGPROP:
            bits = bin(game._val[game._name[node]])[:1:-1].ljust(S, "0")
            true_here = [(b == "1") != (k == F.NEGPROP) for b in bits[:S]]
            p_table += true_here
            q_table += [not t for t in true_here]
        else:
            p_table += [False] * S
            q_table += [k == F.OR or k == F.DIAMOND or k == F.MU
                        or (k == F.LABEL and game._rf_is_mu[node])] * S
    return p_table, q_table


def _position_valuation(game, graph):
    """p_B / q_B flags per explored position, read from
    _valuation_tables."""
    p_table, q_table = _valuation_tables(game)
    keys = list(map(game._SN.__rmod__, graph.pos_list))
    return (list(map(p_table.__getitem__, keys)),
            list(map(q_table.__getitem__, keys)))


def _decode(game, pos_list):
    """Every position split once into its state index and ``q = p // S``,
    and each distinct ``q`` decoded once into its node and clocks: the
    ``(sis, qs, prefix)`` that the state names and the back-map share."""
    S = game._S
    N = game._N
    qs = list(map(S.__rfloordiv__, pos_list))
    prefix = {q: (q % N, game._clocks(q, q % N)) for q in dict.fromkeys(qs)}
    return list(map(S.__rmod__, pos_list)), qs, prefix


def build_position_model(model, state, sentence, bound, tree=False,
                         max_positions=DEFAULT_MAX_POSITIONS):
    """The AR instance of the bounded evaluation game (M, state, phi, bound).

    States are the reachable canonical game positions (a DAG); with
    ``tree`` set the DAG is unfolded into the full game tree, which only
    suits tiny instances.  The exported file is loadable as an ordinary
    model; the extra keys give the root position and the back-map.
    """
    check_bound(bound)
    game = EvalGame(model, state, sentence, bound, max_positions)
    graph = game._explore([state])
    graph.topo_order()  # rejects cyclic graphs
    p_flags, q_flags = _position_valuation(game, graph)
    positions = _decode(game, graph.pos_list)

    if tree:
        names, pos_of, rows = _unfold(graph, max_positions)
    else:
        paths = game.index.node_path
        sis, qs, prefix = positions
        suffix = {q: f"|{paths[node]}|" + ",".join(map(str, clocks))
                  for q, (node, clocks) in prefix.items()}
        names = list(map(add, map(model.states.__getitem__, sis),
                         map(suffix.__getitem__, qs)))
        pos_of = range(len(names))
        rows = graph.succs
    val = {prop: _mask(compress(count(), map(flags.__getitem__, pos_of)),
                       len(names))
           for prop, flags in ((P_B, p_flags), (Q_B, q_flags))}
    return ReducedModel(names, rows, val, game, positions, pos_of)


def _unfold(graph, max_positions):
    """The DAG unfolded into the game tree from the root position (the
    first explored): tree state names follow the move path, and each
    state's children are listed in move order."""
    names = []
    pos_of = []
    rows = []
    stack = [(0, "t", None, 0)]
    while stack:
        i, name, parent_row, k = stack.pop()
        if len(names) >= max_positions:
            raise GameLimitError(
                f"position cap {max_positions} exceeded while unfolding")
        if parent_row is not None:
            parent_row[k] = len(names)
        names.append(name)
        pos_of.append(i)
        succ = graph.succs[i]
        row = [None] * len(succ)
        rows.append(row)
        for k, j in enumerate(succ):
            stack.append((j, f"{name}.{k}", row, k))
    return names, pos_of, rows


def reduce_mc(model, state, sentence, tree=False,
              max_positions=DEFAULT_MAX_POSITIONS):
    """The unbounded model-checking instance as an AR instance.

    On a finite model, clock values up to card(M) already decide every
    fixpoint, so the export uses the bound max(1, card(M)).
    """
    return build_position_model(model, state, sentence,
                                max(1, model.card), tree, max_positions)
