"""Finite pointed Kripke models: validation, JSON I/O, example families."""

import json
from itertools import chain, compress, count, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import add, mul


class ModelError(Exception):
    """Raised for malformed model data."""


def _json_block(key, brackets, items, depth):
    """Encoded ``items`` laid out as ``json.dumps(..., indent=2)`` lays
    out a list (``brackets`` "[]") or an object ("{}", each item already
    "key: value") that opens at nesting ``depth``, after ``key`` (the
    encoded member key and ": ", or "")."""
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join(items)
    if not body:
        return key + brackets
    return f"{key}{brackets[0]}{pad}{body}\n{'  ' * depth}{brackets[1]}"


def _json_document(members):
    """Chunks of the file holding one JSON object with the encoded
    ``members`` (at least one), as ``json.dumps(..., indent=2)`` lays it
    out, plus a newline."""
    sep = "{\n  "
    for member in members:
        yield sep
        yield member
        sep = ",\n  "
    yield "\n}\n"


def _json_edges(srcs, dsts, count):
    """The "edges" member for ``count`` pairs of encoded names, laid out
    as ``json.dumps(..., indent=2)`` lays it out at nesting 1: names and
    separators go into one flat list by slice assignment, joined once."""
    if not count:
        return '"edges": []'
    parts = [",\n      "] * (4 * count)
    parts[0::4] = srcs
    parts[2::4] = dsts
    parts[3::4] = ["\n    ],\n    [\n      "] * count
    parts[-1] = "\n    ]\n  ]"
    parts[0] = '"edges": [\n    [\n      ' + parts[0]
    return "".join(parts)


def _ids(mask):
    """The indices of the bits set in ``mask``, lowest first."""
    return compress(count(), map("1".__eq__, bin(mask)[:1:-1]))


class KripkeModel:
    """A finite Kripke model (states, transition relation, valuation).

    States keep the order they were declared in; that order is the "model
    order" used for deterministic successor enumeration.  Instances are
    immutable after construction.  Integer rows and masks are the model:
    sorted successor ids per state (``_succ``), a state bitmask per
    proposition (``_val_mask``) and each distinct edge's ids in first-seen
    order (``_edges``); ``relation`` and ``valuation`` build names on read.
    """

    __slots__ = ("states", "_index", "_edges", "_succ", "_masks",
                 "_val_mask", "_full_mask")

    def __init__(self, states, edges, valuation):
        states = tuple(states)
        if not states:
            raise ModelError("a Kripke model needs at least one state")
        n = len(states)
        index = dict(zip(states, range(n)))
        if len(index) != n:
            raise ModelError("duplicate state identifiers")

        names = list(chain.from_iterable(edges))  # src, dst, src, ...
        ids = list(map(index.get, names))
        if None in ids:
            w = names[ids.index(None)]
            raise ModelError(f"edge references unknown state {w!r}")
        src, dst = ids[0::2], ids[1::2]
        keys = dict.fromkeys(map(add, map(mul, src, repeat(n)), dst))
        if len(keys) < len(src):  # keep the first of repeated edges
            src, dst = zip(*map(divmod, keys, repeat(n)))
        succ = [[] for _ in states]
        for i, j in zip(src, dst):
            succ[i].append(j)

        val_mask = {}
        for p, ws in dict(valuation).items():
            ws = tuple(ws)
            ids = list(map(index.get, ws))
            if None in ids:
                w = ws[ids.index(None)]
                raise ModelError(
                    f"valuation of {p!r} references unknown state {w!r}")
            val_mask[p] = sum(map((1).__lshift__, set(ids)))
        self._fill(states, index, (tuple(src), tuple(dst)), succ, val_mask)

    @classmethod
    def _from_rows(cls, states, rows, val_mask):
        """The model whose edges are ``(states[i], states[j])`` for each
        ``j`` in ``rows[i]``, row by row, and whose proposition p holds
        where ``val_mask[p]`` sets a bit, built without looking up a name.
        ``states`` must be unique, every index in range, and no row may
        repeat an index."""
        self = cls.__new__(cls)
        states = tuple(states)
        n = len(states)
        edges = (tuple(chain.from_iterable(map(repeat, range(n),
                                               map(len, rows)))),
                 tuple(chain.from_iterable(rows)))
        self._fill(states, dict(zip(states, range(n))), edges, rows,
                   dict(val_mask))
        return self

    def _fill(self, states, index, edges, succ, val_mask):
        self.states = states
        self._index = index
        self._edges = edges
        self._succ = tuple(map(tuple, map(sorted, succ)))
        self._masks = None
        self._val_mask = val_mask
        self._full_mask = (1 << len(states)) - 1

    @property
    def card(self):
        return len(self.states)

    @property
    def relation(self):
        """The distinct edges as name pairs in first-seen order."""
        name = self.states.__getitem__
        src, dst = self._edges
        return tuple(zip(map(name, src), map(name, dst)))

    @property
    def valuation(self):
        """Each proposition's states as a frozenset of names."""
        return {p: self.mask_to_states(m) for p, m in self._val_mask.items()}

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
        return self.mask_to_states(self._val_mask.get(p, 0))

    def mask_to_states(self, mask):
        return frozenset(w for i, w in enumerate(self.states) if mask >> i & 1)

    def states_to_mask(self, ws):
        return sum(1 << self.state_index(w) for w in set(ws))

    def to_json_dict(self):
        name = self.states.__getitem__
        return {
            "states": list(self.states),
            "edges": list(map(list, self.relation)),
            "val": {p: list(map(name, _ids(mask)))
                    for p, mask in sorted(self._val_mask.items())},
        }

    def json_text(self):
        """The model file: ``json.dumps(self.to_json_dict(), indent=2)``
        plus a newline, byte for byte, written in a few C-level passes."""
        return "".join(_json_document(self._json_members()))

    def _json_members(self, quoted=None):
        """The encoded "states", "edges" and "val" members of the model
        file, one at a time; ``quoted`` holds the encoded state names
        when the caller has them already."""
        if quoted is None:
            quoted = list(map(_quote, self.states))
        name = quoted.__getitem__
        src, dst = self._edges
        yield _json_block('"states": ', "[]", quoted, 1)
        yield _json_edges(map(name, src), map(name, dst), len(src))
        yield _json_block('"val": ', "{}", (
            _json_block(_quote(p) + ": ", "[]", map(name, _ids(mask)), 2)
            for p, mask in sorted(self._val_mask.items())), 1)

    def __eq__(self, other):
        if not isinstance(other, KripkeModel):
            return NotImplemented
        return (self.states == other.states and self._succ == other._succ
                and self._val_mask == other._val_mask)

    def __hash__(self):
        return hash((self.states, self._succ))

    def __repr__(self):
        return f"KripkeModel(states={self.card}, edges={len(self._edges[0])})"


def load_model(data):
    """Build a validated model from JSON text or bytes.

    Expected shape: {"states": [...], "edges": [[src, dst], ...],
    "val": {prop: [...]}}.  Unknown top-level keys are ignored so that
    reduced-model files (which add "root" and "backmap") stay loadable.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelError(f"model file is not UTF-8: {exc}") from None
    try:
        obj = json.loads(data)
    except ValueError as exc:  # bad syntax, or an int past the digit limit
        raise ModelError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ModelError("invalid JSON: nested too deeply") from None
    # json.loads yields exact dicts, lists and strs, so shapes are checked
    # with ``type(x) is``, a whole array at a time.
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
    """True when every item's exact type is ``cls``."""
    return set(map(type, items)) <= {cls}


def load_model_file(path):
    with open(path, "rb") as fh:
        return load_model(fh.read())


def save_model(model, path):
    """Write ``model.json_text()`` one member at a time; ``model`` may be
    a ``ReducedModel`` too."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_document(model._json_members()))


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
        q = [f"g{i}_{j}" for i in range(n) for j in range(n) if (i + j) % 2 == 0]
        p = [f"g{n - 1}_{n - 1}"]
        return KripkeModel(states, edges, {"p_B": p, "q_B": q})
    raise ModelError(f"unknown model family {name!r} (expected one of "
                     + ", ".join(FAMILIES) + ")")
