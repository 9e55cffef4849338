"""Finite pointed Kripke models: validation, JSON I/O, example families."""

import json


class ModelError(Exception):
    """Raised for malformed model data."""


class KripkeModel:
    """A finite Kripke model (states, transition relation, valuation).

    States keep the order they were declared in; that order is the "model
    order" used for deterministic successor enumeration.  Instances are
    immutable after construction.
    """

    __slots__ = ("states", "relation", "valuation", "_index", "_succ",
                 "_masks", "_val_mask", "_full_mask")

    def __init__(self, states, edges, valuation):
        states = tuple(states)
        if not states:
            raise ModelError("a Kripke model needs at least one state")
        if len(set(states)) != len(states):
            raise ModelError("duplicate state identifiers")
        index = {w: i for i, w in enumerate(states)}

        seen = set()
        relation = []
        for edge in edges:
            src, dst = edge
            if src not in index:
                raise ModelError(f"edge references unknown state {src!r}")
            if dst not in index:
                raise ModelError(f"edge references unknown state {dst!r}")
            if (src, dst) not in seen:
                seen.add((src, dst))
                relation.append((src, dst))

        val = {}
        for p, ws in dict(valuation).items():
            ws = tuple(ws)
            for w in ws:
                if w not in index:
                    raise ModelError(
                        f"valuation of {p!r} references unknown state {w!r}")
            val[p] = frozenset(ws)

        self.states = states
        self.relation = tuple(relation)
        self.valuation = val
        self._index = index

        succ = [[] for _ in states]
        for src, dst in relation:
            succ[index[src]].append(index[dst])
        for lst in succ:
            lst.sort()
        self._succ = tuple(tuple(lst) for lst in succ)
        self._masks = None
        self._val_mask = {p: sum(1 << index[w] for w in ws)
                          for p, ws in val.items()}
        self._full_mask = (1 << len(states)) - 1

    @property
    def card(self):
        return len(self.states)

    def succ_pred_masks(self):
        """Successor and predecessor bitmasks, one int per state.

        Built on first use and cached: only the compositional semantics
        reads them, so loading or solving a game never pays for them.
        """
        if self._masks is None:
            pred = [0] * len(self.states)
            for i, lst in enumerate(self._succ):
                bit = 1 << i
                for v in lst:
                    pred[v] |= bit
            self._masks = (tuple(sum(1 << v for v in lst)
                                 for lst in self._succ), tuple(pred))
        return self._masks

    def state_index(self, w):
        try:
            return self._index[w]
        except KeyError:
            raise ModelError(f"unknown state {w!r}") from None

    def successors(self, w):
        """Successor states of ``w`` in model order."""
        return tuple(self.states[i] for i in self._succ[self.state_index(w)])

    def states_true(self, p):
        return self.valuation.get(p, frozenset())

    def mask_to_states(self, mask):
        return frozenset(w for i, w in enumerate(self.states) if mask >> i & 1)

    def states_to_mask(self, ws):
        return sum(1 << self.state_index(w) for w in set(ws))

    def to_json_dict(self):
        return {
            "states": list(self.states),
            "edges": [list(e) for e in self.relation],
            "val": {p: sorted(ws, key=self.state_index)
                    for p, ws in sorted(self.valuation.items())},
        }

    def __eq__(self, other):
        if not isinstance(other, KripkeModel):
            return NotImplemented
        return (self.states == other.states
                and set(self.relation) == set(other.relation)
                and self.valuation == other.valuation)

    def __hash__(self):
        return hash((self.states, frozenset(self.relation)))

    def __repr__(self):
        return (f"KripkeModel(states={len(self.states)}, "
                f"edges={len(self.relation)})")


def load_model(data):
    """Build a validated model from JSON text or bytes.

    Expected shape: {"states": [...], "edges": [[src, dst], ...],
    "val": {prop: [...]}}.  Unknown top-level keys are ignored so that
    reduced-model files (which add "root" and "backmap") stay loadable.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ModelError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ModelError("model file must contain a JSON object")
    for key in ("states", "edges"):
        if key not in obj:
            raise ModelError(f"model file is missing the {key!r} key")
    states = obj["states"]
    edges = obj["edges"]
    val = obj.get("val", {})
    if not isinstance(states, list) or not all(isinstance(w, str) for w in states):
        raise ModelError("'states' must be an array of strings")
    if not isinstance(edges, list):
        raise ModelError("'edges' must be an array")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2
                and all(isinstance(x, str) for x in e)):
            raise ModelError("every edge must be a 2-array of state names")
    if not isinstance(val, dict):
        raise ModelError("'val' must be an object")
    for p, ws in val.items():
        if not isinstance(ws, list) or not all(isinstance(w, str) for w in ws):
            raise ModelError(f"valuation of {p!r} must be an array of states")
    return KripkeModel(states, [tuple(e) for e in edges], val)


def load_model_file(path):
    with open(path, "rb") as fh:
        return load_model(fh.read())


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_json_dict(), fh, indent=2)
        fh.write("\n")


def check_assignment(model, assignment):
    """Validate that every assigned state set lives inside the model."""
    for name, ws in assignment.items():
        for w in ws:
            if w not in model._index:
                raise ModelError(
                    f"assignment for {name!r} references unknown state {w!r}")


FAMILIES = ("starN", "daggerN", "chain", "clique", "ar-grid")


def generate_family(name, n):
    """Deterministically generate the n-th member of a named model family.

    starN
        States w_0..w_n; edges w_0 -> w_i (1 <= i <= n) plus the descending
        chain w_{i+1} -> w_i; p holds at w_0 only.
    daggerN
        Same graph as starN but p holds at w_1 only.
    chain
        w_0 -> w_1 -> ... -> w_n with p at the end.
    clique
        Complete relation (self-loops included) on w_0..w_n, p at w_0.
    ar-grid
        An n-by-n grid over {p_B, q_B}: edges step right and down, q_B on
        the even diagonals, p_B at the far corner.
    """
    if n < 1:
        raise ModelError("family size must be at least 1")
    if name == "starN" or name == "daggerN":
        states = [f"w_{i}" for i in range(n + 1)]
        edges = [("w_0", f"w_{i}") for i in range(1, n + 1)]
        edges += [(f"w_{i + 1}", f"w_{i}") for i in range(n)]
        seen = set()
        uniq = [e for e in edges if not (e in seen or seen.add(e))]
        val = {"p": ["w_0"] if name == "starN" else ["w_1"]}
        return KripkeModel(states, uniq, val)
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
        q = [f"g{i}_{j}" for i in range(n) for j in range(n) if (i + j) % 2 == 0]
        p = [f"g{n - 1}_{n - 1}"]
        return KripkeModel(states, edges, {"p_B": p, "q_B": q})
    raise ModelError(f"unknown model family {name!r} (expected one of "
                     + ", ".join(FAMILIES) + ")")
