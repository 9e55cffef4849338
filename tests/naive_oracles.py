"""Brute-force game oracles, independent of the solver implementation.

These re-derive winners straight from the game rules by plain recursion
over full clock dictionaries, with no memoization, canonicalization, or
graph sharing.  Only usable on tiny instances.
"""

import json
from itertools import chain

from mucheck import formula as F
from mucheck.formula import BINDER_KINDS
from mucheck.game import ABELARD, ELOISE, StrategyError
from mucheck.kripke import KripkeModel, ModelError
from mucheck.variants import UNDETERMINED

TOP = "top"


def _subtree_spans(sent):
    end = [0] * sent.size

    def walk(nid):
        stop = nid + 1
        for c in sent.children[nid]:
            stop = walk(c)
        end[nid] = stop
        return stop

    walk(0)
    return end


def naive_bounded_winner(model, sent, state, cap):
    """Winner of the clock game where announced values range over 0..cap-1.

    For a finite bound k pass cap=k; for the omega bound on a finite model
    pass cap=card(M)+1.
    """
    if not F.is_normal(sent):
        sent = F.normalize(sent)
    idx = F.build_index(sent)
    end = _subtree_spans(sent)
    binders = idx.mu_nu_nodes
    kind = sent.kind
    name = sent.name
    children = sent.children

    def eloise_wins(w, node, clocks):
        k = kind[node]
        if k == F.PROP:
            return w in model.states_true(name[node])
        if k == F.NEGPROP:
            return w not in model.states_true(name[node])
        if k == F.OR:
            return any(eloise_wins(w, c, clocks) for c in children[node])
        if k == F.AND:
            return all(eloise_wins(w, c, clocks) for c in children[node])
        if k == F.DIAMOND:
            succs = model.successors(w)
            return any(eloise_wins(v, children[node][0], clocks)
                       for v in succs)
        if k == F.BOX:
            succs = model.successors(w)
            return all(eloise_wins(v, children[node][0], clocks)
                       for v in succs)
        if k == F.MU or k == F.NU:
            body = children[node][0]
            outcomes = (eloise_wins(w, body, {**clocks, node: g})
                        for g in range(cap))
            return any(outcomes) if k == F.MU else all(outcomes)
        # label
        rf = idx.rf[node]
        gamma = clocks[rf]
        if gamma == TOP:
            gamma = cap
        if gamma == 0:
            return kind[rf] == F.NU
        body = children[rf][0]
        lo, hi = children[rf][0], end[children[rf][0]]
        outcomes = []
        for g in range(gamma):
            c2 = dict(clocks)
            c2[rf] = g
            for b in binders:
                if lo <= b < hi:
                    c2[b] = TOP
            outcomes.append((g, c2))
        if kind[rf] == F.MU:
            return any(eloise_wins(w, body, c2) for _, c2 in outcomes)
        return all(eloise_wins(w, body, c2) for _, c2 in outcomes)

    clocks0 = {b: TOP for b in binders}
    return ELOISE if eloise_wins(state, 0, clocks0) else ABELARD


def naive_fbounded_winner(model, sent, state, f):
    """Winner of the two-counter game with arbitrary decrements."""
    if not F.is_normal(sent):
        sent = F.normalize(sent)
    idx = F.build_index(sent)
    kind = sent.kind
    name = sent.name
    children = sent.children

    def eloise_wins(w, node, ge, ga):
        k = kind[node]
        if k == F.PROP:
            return w in model.states_true(name[node])
        if k == F.NEGPROP:
            return w not in model.states_true(name[node])
        if k == F.OR:
            return any(eloise_wins(w, c, ge, ga) for c in children[node])
        if k == F.AND:
            return all(eloise_wins(w, c, ge, ga) for c in children[node])
        if k == F.DIAMOND:
            return any(eloise_wins(v, children[node][0], ge, ga)
                       for v in model.successors(w))
        if k == F.BOX:
            return all(eloise_wins(v, children[node][0], ge, ga)
                       for v in model.successors(w))
        if k in BINDER_KINDS:
            return eloise_wins(w, children[node][0], ge, ga)
        rf = idx.rf[node]
        body = children[rf][0]
        if kind[rf] == F.MU:
            if ge == 0:
                return False
            return any(eloise_wins(w, body, g, ga) for g in range(ge))
        if ga == 0:
            return True
        return all(eloise_wins(w, body, ge, g) for g in range(ga))

    return ELOISE if eloise_wins(state, 0, f, f) else ABELARD


def naive_free_verdict(model, sent, state):
    """Free-game verdict via depth-bounded forcing.

    A player can force a win from a position iff they can force it within
    as many rounds as there are positions, so a horizon of
    card(M) * size + 1 decides both players' regions.
    """
    if not F.is_normal(sent):
        sent = F.normalize(sent)
    idx = F.build_index(sent)
    kind = sent.kind
    name = sent.name
    children = sent.children
    horizon = model.card * sent.size + 1

    def moves(w, node):
        k = kind[node]
        if k == F.OR or k == F.AND:
            return [(w, c) for c in children[node]]
        if k == F.DIAMOND or k == F.BOX:
            return [(v, children[node][0]) for v in model.successors(w)]
        if k in BINDER_KINDS:
            return [(w, children[node][0])]
        return [(w, children[idx.rf[node]][0])]

    def terminal(w, node):
        k = kind[node]
        if k == F.PROP:
            return ELOISE if w in model.states_true(name[node]) else ABELARD
        if k == F.NEGPROP:
            return ABELARD if w in model.states_true(name[node]) else ELOISE
        if k == F.DIAMOND and not model.successors(w):
            return ABELARD
        if k == F.BOX and not model.successors(w):
            return ELOISE
        return None

    def owner(node):
        k = kind[node]
        if k in (F.OR, F.DIAMOND, F.MU):
            return ELOISE
        if k in (F.AND, F.BOX, F.NU):
            return ABELARD
        return ELOISE if kind[idx.rf[node]] == F.MU else ABELARD

    memo = {}

    def forces(player, w, node, depth):
        t = terminal(w, node)
        if t is not None:
            return t == player
        if depth == 0:
            return False
        key = (player, w, node, depth)
        if key in memo:
            return memo[key]
        nxt = moves(w, node)
        if owner(node) == player:
            out = any(forces(player, v, m, depth - 1) for v, m in nxt)
        else:
            out = all(forces(player, v, m, depth - 1) for v, m in nxt)
        memo[key] = out
        return out

    if forces(ELOISE, state, 0, horizon):
        return ELOISE
    if forces(ABELARD, state, 0, horizon):
        return ABELARD
    return UNDETERMINED


def naive_eval_mask(model, sent, node, env, iters):
    """Scan-based compositional evaluation of ``node`` to a state bitmask.

    The evaluator as it stood before modal steps became differential:
    every diamond and box application tests every state's successors.
    ``env`` maps label names to masks; ``iters`` is None for the standard
    semantics or the iteration count of a finite bound.
    """
    kind = sent.kind[node]
    if kind == F.PROP:
        return model._val_mask.get(sent.name[node], 0)
    if kind == F.NEGPROP:
        return model._full_mask & ~model._val_mask.get(sent.name[node], 0)
    if kind == F.LABEL:
        return env[sent.name[node]]
    kids = sent.children[node]
    if kind == F.OR:
        return (naive_eval_mask(model, sent, kids[0], env, iters)
                | naive_eval_mask(model, sent, kids[1], env, iters))
    if kind == F.AND:
        return (naive_eval_mask(model, sent, kids[0], env, iters)
                & naive_eval_mask(model, sent, kids[1], env, iters))
    if kind == F.DIAMOND:
        return naive_diamond(model, naive_eval_mask(model, sent, kids[0],
                                                    env, iters))
    if kind == F.BOX:
        return naive_box(model, naive_eval_mask(model, sent, kids[0],
                                                env, iters))
    name = sent.name[node]
    body = kids[0]
    current = 0 if kind == F.MU else model._full_mask
    remaining = -1 if iters is None else iters
    inner = dict(env)
    while remaining != 0:
        inner[name] = current
        updated = naive_eval_mask(model, sent, body, inner, iters)
        if updated == current:
            break
        current = updated
        if remaining > 0:
            remaining -= 1
    return current


def naive_diamond(model, target):
    """States with some successor in ``target``, by scanning every state."""
    return sum(1 << i for i, succs in enumerate(model._succ)
               if any(target >> v & 1 for v in succs))


def naive_box(model, target):
    """States whose successors all lie in ``target``, by scanning."""
    return sum(1 << i for i, succs in enumerate(model._succ)
               if all(target >> v & 1 for v in succs))


def union_by_names(models):
    """The disjoint union of same-card models built through state names:
    state ``w`` of the k-th model is named ``k:w``."""
    if len(models) == 1:
        return models[0]
    states, edges, val = [], [], {}
    for k, model in enumerate(models):
        name = {w: f"{k}:{w}" for w in model.states}
        states.extend(name[w] for w in model.states)
        edges.extend((name[a], name[b]) for a, b in model.relation)
        for p, ws in model.valuation.items():
            val.setdefault(p, []).extend(name[w] for w in ws)
    return KripkeModel(states, edges, val)


# ---------------------------------------------------------------------------
# Reference explorer: the games' rules over tuple positions, one position
# at a time, as the explorer ran before positions became ints.

_WON_E, _WON_A, _TURN_E, _TURN_A = 0, 1, 2, 3


class _TupleCodec:
    """Tuple positions ``(state index, node, ...)`` of one game.  Reads
    only the game's sentence, index, model and bound."""

    def __init__(self, game):
        s = game.sentence
        self.kind = s.kind
        self.children = s.children
        self.rf = game.index.rf
        self.rf_slot = game.index.rf_slot
        self.rf_is_mu = {lab: s.kind[b] == F.MU for lab, b in self.rf.items()}
        self.rf_body = {lab: s.children[b][0] for lab, b in self.rf.items()}
        self.name = s.name
        self.val = game.model._val_mask
        self.succ = game.model._succ

    def status(self, ipos):
        si, node = ipos[0], ipos[1]
        kind = self.kind[node]
        if kind in (F.PROP, F.NEGPROP):
            true = self.val.get(self.name[node], 0) >> si & 1
            return _WON_E if bool(true) == (kind == F.PROP) else _WON_A
        if kind in (F.OR, F.MU):
            return _TURN_E
        if kind in (F.AND, F.NU):
            return _TURN_A
        if kind == F.DIAMOND:
            return _TURN_E if self.succ[si] else _WON_A
        if kind == F.BOX:
            return _TURN_A if self.succ[si] else _WON_E
        return self.label_status(ipos)

    def moves(self, ipos, eloise_greedy, abelard_greedy):
        """The clock-free moves; binders and labels go to ``decide``."""
        si, node, rest = ipos[0], ipos[1], ipos[2:]
        kind = self.kind[node]
        if kind in (F.OR, F.AND):
            return [(si, c) + rest for c in self.children[node]]
        if kind in (F.DIAMOND, F.BOX):
            return [(v, self.children[node][0]) + rest
                    for v in self.succ[si]]
        mu = self.rf_is_mu[node] if kind == F.LABEL else kind == F.MU
        return self.decide(ipos, eloise_greedy if mu else abelard_greedy)


class EvalTuples(_TupleCodec):
    """``(si, node, clocks)`` with canonical truncated clock tuples."""

    def __init__(self, game):
        super().__init__(game)
        self.choices = tuple(range(game.clock_cap - 1, -1, -1))

    def root(self, si):
        return (si, 0, ())

    def label_status(self, ipos):
        node = ipos[1]
        gamma = ipos[2][self.rf_slot[node]]
        turn = gamma is None or gamma > 0
        if self.rf_is_mu[node]:
            return _TURN_E if turn else _WON_A
        return _TURN_A if turn else _WON_E

    def decide(self, ipos, greedy):
        si, node, clocks = ipos
        if self.kind[node] in (F.MU, F.NU):
            choices = self.choices[:1] if greedy else self.choices
            return [(si, self.children[node][0], clocks + (g,))
                    for g in choices]
        slot = self.rf_slot[node]
        gamma = clocks[slot]
        if gamma is None:
            choices = self.choices[:1] if greedy else self.choices
        else:
            choices = (gamma - 1,) if greedy else range(gamma - 1, -1, -1)
        return [(si, self.rf_body[node], clocks[:slot] + (g,))
                for g in choices]


class FBoundedTuples(_TupleCodec):
    """``(si, node, gamma_e, gamma_a)``."""

    def __init__(self, game):
        super().__init__(game)
        self.f = game.f

    def root(self, si):
        return (si, 0, self.f, self.f)

    def label_status(self, ipos):
        if self.rf_is_mu[ipos[1]]:
            return _TURN_E if ipos[2] else _WON_A
        return _TURN_A if ipos[3] else _WON_E

    def decide(self, ipos, greedy):
        si, node, ge, ga = ipos
        if self.kind[node] in (F.MU, F.NU):
            return [(si, self.children[node][0], ge, ga)]
        body = self.rf_body[node]
        if self.rf_is_mu[node]:
            choices = (ge - 1,) if greedy else range(ge - 1, -1, -1)
            return [(si, body, g, ga) for g in choices]
        choices = (ga - 1,) if greedy else range(ga - 1, -1, -1)
        return [(si, body, ge, g) for g in choices]


class FreeTuples(_TupleCodec):
    """``(si, node)``."""

    def root(self, si):
        return (si, 0)

    def label_status(self, ipos):
        return _TURN_E if self.rf_is_mu[ipos[1]] else _TURN_A

    def decide(self, ipos, greedy):
        si, node = ipos
        if self.kind[node] in (F.MU, F.NU):
            return [(si, self.children[node][0])]
        return [(si, self.rf_body[node])]


class FullMapTuples(_TupleCodec):
    """``(si, node, clocks)`` with one clock per binder in pre-order, the
    cap standing for an untouched one."""

    def __init__(self, game):
        super().__init__(game)
        self.cap = game.clock_cap
        binders = game.index.mu_nu_nodes
        anc = game.index.active_ancestors
        self.slot = {b: k for k, b in enumerate(binders)}
        self.resets = {b: [self.slot[x] for x in binders if b in anc[x]]
                       for b in binders}

    def root(self, si):
        return (si, 0, (self.cap,) * len(self.slot))

    def label_status(self, ipos):
        node = ipos[1]
        gamma = ipos[2][self.slot[self.rf[node]]]
        if self.rf_is_mu[node]:
            return _TURN_E if gamma else _WON_A
        return _TURN_A if gamma else _WON_E

    def decide(self, ipos, greedy):
        si, node, clocks = ipos
        if self.kind[node] == F.LABEL:
            binder = self.rf[node]
            body = self.rf_body[node]
            top = clocks[self.slot[binder]]
            resets = self.resets[binder]
        else:
            binder = node
            body = self.children[node][0]
            top = self.cap
            resets = ()
        out = []
        for g in range(top - 1, -1, -1):
            c2 = list(clocks)
            c2[self.slot[binder]] = g
            for r in resets:
                c2[r] = self.cap
            out.append((si, body, tuple(c2)))
        return out


class ReferenceGraph:
    """An explored graph of tuple positions, in discovery order."""

    def __init__(self, codec, roots):
        self.codec = codec
        self.pos_list = list(dict.fromkeys(roots))
        self.pos_id = {ip: i for i, ip in enumerate(self.pos_list)}
        self.status = [codec.status(ip) for ip in self.pos_list]
        self.succs = [()] * len(self.pos_list)

    def expand(self, frontier, eloise_greedy, abelard_greedy):
        """Rebuild the row of every frontier position, appending each newly
        discovered turn position to the frontier."""
        for i in frontier:
            row = []
            for dst in self.codec.moves(self.pos_list[i], eloise_greedy,
                                        abelard_greedy):
                di = self.pos_id.get(dst)
                if di is None:
                    di = self.pos_id[dst] = len(self.pos_list)
                    self.pos_list.append(dst)
                    st = self.codec.status(dst)
                    self.status.append(st)
                    self.succs.append(())
                    if st >= _TURN_E:
                        frontier.append(di)
                row.append(di)
            self.succs[i] = tuple(row)


def reference_explore(codec, roots, eloise_greedy=False,
                      abelard_greedy=False):
    graph = ReferenceGraph(codec, roots)
    graph.expand([i for i, st in enumerate(graph.status) if st >= _TURN_E],
                 eloise_greedy, abelard_greedy)
    return graph


def reference_refine(graph, win_code, decision_kinds):
    """Re-expand the loser's decisions with every choice (win_code 0 is
    Eloise)."""
    loser = _TURN_A if win_code == 0 else _TURN_E
    kind = graph.codec.kind
    graph.expand([i for i, ip in enumerate(graph.pos_list)
                  if graph.status[i] == loser and kind[ip[1]] in decision_kinds],
                 win_code == 0, win_code == 1)


# ---------------------------------------------------------------------------
# Reference strategy validation over public positions.

def _strategy_move_index(strategy, pos, moves):
    """Index into the legal ``moves`` at ``pos`` of the strategy's move."""
    move = strategy[pos]
    for k, (m, _) in enumerate(moves):
        if m == tuple(move):
            return k
    raise StrategyError(f"strategy move {move} is illegal at {pos}")


def reference_validate_strategy(game, winner, strategy):
    """``game.validate_strategy(winner, strategy)`` as a walk over public
    positions through the game's public ``status`` and ``legal_moves``,
    which encode every position and decode every successor: the number
    of distinct positions visited, or the same StrategyError."""
    start = game.initial_position()
    seen = set()
    stack = [start]
    while stack:
        pos = stack.pop()
        if pos in seen:
            continue
        seen.add(pos)
        status = game.status(pos)
        if status.kind == "won":
            if status.player != winner:
                raise StrategyError(
                    f"strategy reached a position lost at {pos}")
            continue
        moves = game.legal_moves(pos)
        if status.player == winner:
            stack.append(
                moves[_strategy_move_index(strategy, pos, moves)][1])
        else:
            for _, dst in moves:
                stack.append(dst)
    return len(seen)


# ---------------------------------------------------------------------------
# Reference replay: winners and AR membership per cap, by plain recursion.

def reference_replay(graph, tags, caps, p_flags, q_flags, card=None):
    """``(win, ar, diff)`` as the sweep's replay gives them, from one
    memoized recursion per cap and rule over the edges that cap admits:
    an edge tagged t exists under the caps above t, and a row tagged
    None under every cap.  The game rule reads the status; the AR rule
    wins at p_B, is a disjunction at q_B and a conjunction elsewhere.
    Bit ``c * len(caps) + b`` of ``diff`` marks cap b in component
    ``pos % graph.states // card`` (component 0 when card is None)."""
    def solve(cap, rule):
        memo = {}

        def value(i):
            if i not in memo:
                row_tags = tags[i] or [None] * len(graph.succs[i])
                row = [j for j, t in zip(graph.succs[i], row_tags)
                       if t is None or t < cap]
                kind = rule(i)
                if kind == "won":
                    memo[i] = True
                elif kind == "lost":
                    memo[i] = False
                elif kind == "or":
                    memo[i] = any([value(j) for j in row])
                else:
                    memo[i] = all([value(j) for j in row])
            return memo[i]

        return [value(i) for i in range(len(graph.status))]

    def game_rule(i):
        return ("won", "lost", "or", "and")[graph.status[i]]

    def ar_rule(i):
        return "won" if p_flags[i] else "or" if q_flags[i] else "and"

    n = len(graph.status)
    win, ar, diff = [0] * n, [0] * n, 0
    for b, cap in enumerate(caps):
        game_values = solve(cap, game_rule)
        ar_values = solve(cap, ar_rule)
        for i in range(n):
            win[i] |= game_values[i] << b
            ar[i] |= ar_values[i] << b
            if game_values[i] != ar_values[i]:
                c = graph.pos_list[i] % graph.states // card if card else 0
                diff |= 1 << (c * len(caps) + b)
    return win, ar, diff


def naive_generate_family(name, n):
    """``generate_family(name, n)`` built from name pairs, as the families
    are defined, without the size check."""
    if name == "starN" or name == "daggerN":
        states = [f"w_{i}" for i in range(n + 1)]
        edges = [("w_0", f"w_{i}") for i in range(1, n + 1)]
        edges += [(f"w_{i + 1}", f"w_{i}") for i in range(n)]
        val = {"p": ["w_0"] if name == "starN" else ["w_1"]}
        return KripkeModel(states, edges, val)
    if name == "chain":
        states = [f"w_{i}" for i in range(n + 1)]
        edges = [(f"w_{i}", f"w_{i + 1}") for i in range(n)]
        return KripkeModel(states, edges, {"p": [f"w_{n}"]})
    if name == "clique":
        states = [f"w_{i}" for i in range(n + 1)]
        edges = [(a, b) for a in states for b in states]
        return KripkeModel(states, edges, {"p": ["w_0"]})
    if name == "ar-grid":
        states = [f"g{i}_{j}" for i in range(n) for j in range(n)]
        edges = []
        for i in range(n):
            for j in range(n):
                if i + 1 < n:
                    edges.append((f"g{i}_{j}", f"g{i + 1}_{j}"))
                if j + 1 < n:
                    edges.append((f"g{i}_{j}", f"g{i}_{j + 1}"))
        q = [f"g{i}_{j}" for i in range(n) for j in range(n)
             if (i + j) % 2 == 0]
        p = [f"g{n - 1}_{n - 1}"]
        return KripkeModel(states, edges, {"p_B": p, "q_B": q})
    raise ValueError(name)


def naive_load_model(data):
    """``load_model`` on the whole JSON tree: one ``json.loads``, the
    shape checks, then ``KripkeModel(states, edges, val)``."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelError(f"model file is not UTF-8: {exc}") from None
    try:
        obj = json.loads(data)
    except ValueError as exc:
        raise ModelError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ModelError("invalid JSON: nested too deeply") from None
    if type(obj) is not dict:
        raise ModelError("model file must contain a JSON object")
    for key in ("states", "edges"):
        if key not in obj:
            raise ModelError(f"model file is missing the {key!r} key")
    states = obj["states"]
    edges = obj["edges"]
    val = obj.get("val", {})
    if type(states) is not list or not _all_of(states, str):
        raise ModelError("'states' must be an array of strings")
    if type(edges) is not list:
        raise ModelError("'edges' must be an array")
    if not (_all_of(edges, list) and set(map(len, edges)) <= {2}
            and _all_of(chain.from_iterable(edges), str)):
        raise ModelError("every edge must be a 2-array of state names")
    if type(val) is not dict:
        raise ModelError("'val' must be an object")
    for p, ws in val.items():
        if type(ws) is not list or not _all_of(ws, str):
            raise ModelError(f"valuation of {p!r} must be an array of states")
    return KripkeModel(states, edges, val)


def _all_of(items, cls):
    return set(map(type, items)) <= {cls}
