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

import json

from . import formula as F
from .game import (DEFAULT_MAX_POSITIONS, EvalGame, GameLimitError,
                   _TURN_A, _TURN_E, _WON_A, _WON_E, _E, _attractor)
from .kripke import KripkeModel
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
    extra = set(model.valuation) - {P_B, Q_B}
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
    p_mask = model._val_mask.get(P_B, 0)
    q_mask = model._val_mask.get(Q_B, 0)
    status = []
    for i in range(model.card):
        b_turn = q_mask >> i & 1
        if p_mask >> i & 1:
            status.append(_WON_E)
        elif not succ[i]:
            status.append(_WON_A if b_turn else _WON_E)
        else:
            status.append(_TURN_E if b_turn else _TURN_A)
    win = _attractor(status, succ, _E)
    return frozenset(w for w, inside in zip(model.states, win) if inside)


def solve_ar(model, state):
    """True when B wins the AR game on (model, state)."""
    model.state_index(state)
    return state in ar_winning_set(model)


class ReducedModel:
    """An AR model over evaluation-game positions, plus the root position
    and a back-map from exported state names to position data."""

    __slots__ = ("model", "root", "backmap")

    def __init__(self, model, root, backmap):
        self.model = model
        self.root = root
        self.backmap = backmap

    @property
    def positions(self):
        return len(self.model.states)

    def to_json_dict(self):
        data = self.model.to_json_dict()
        data["root"] = self.root
        data["backmap"] = self.backmap
        return data

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    def __repr__(self):
        return f"ReducedModel({self.positions} positions, root={self.root!r})"


def _position_valuation(game, graph):
    """p_B / q_B flags per explored position."""
    kind = game.sentence.kind
    p_flags = []
    q_flags = []
    for si, node, _clocks in graph.pos_list:
        k = kind[node]
        if k == F.PROP or k == F.NEGPROP:
            true_here = game._val[game.sentence.name[node]] >> si & 1
            if k == F.NEGPROP:
                true_here = not true_here
            p_flags.append(bool(true_here))
            q_flags.append(not true_here)
        else:
            p_flags.append(False)
            q_flags.append(k == F.OR or k == F.DIAMOND or k == F.MU
                           or (k == F.LABEL and game._rf_is_mu[node]))
    return p_flags, q_flags


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
    paths = game.index.node_path

    def describe(ipos):
        si, node, clocks = ipos
        return {
            "state": model.states[si],
            "node": paths[node],
            "clocks": {game.sentence.name[b]: v for b, v in
                       zip(game.index.active_ancestors[node], clocks)},
        }

    if tree:
        # Unfold the DAG into the game tree; names follow the move path.
        names = []
        tree_pos = []
        edges = []
        stack = [(0, "t")]  # the root position is the first explored
        while stack:
            i, name = stack.pop()
            if len(names) >= max_positions:
                raise GameLimitError(
                    f"position cap {max_positions} exceeded while unfolding")
            names.append(name)
            tree_pos.append(i)
            for k, j in enumerate(graph.succs[i]):
                child = f"{name}.{k}"
                edges.append((name, child))
                stack.append((j, child))
    else:
        names = [f"{model.states[si]}|{paths[node]}|"
                 + ",".join(map(str, clocks))
                 for si, node, clocks in graph.pos_list]
        tree_pos = range(len(names))
        edges = [(names[i], names[j])
                 for i, row in enumerate(graph.succs) for j in row]
    val = {P_B: [nm for nm, i in zip(names, tree_pos) if p_flags[i]],
           Q_B: [nm for nm, i in zip(names, tree_pos) if q_flags[i]]}
    reduced = KripkeModel(names, edges, val)
    backmap = {nm: describe(graph.pos_list[i])
               for nm, i in zip(names, tree_pos)}
    return ReducedModel(reduced, names[0], backmap)


def reduce_mc(model, state, sentence, tree=False,
              max_positions=DEFAULT_MAX_POSITIONS):
    """The unbounded model-checking instance as an AR instance.

    On a finite model, clock values up to card(M) already decide every
    fixpoint, so the export uses the bound max(1, card(M)).
    """
    return build_position_model(model, state, sentence,
                                max(1, model.card), tree, max_positions)
