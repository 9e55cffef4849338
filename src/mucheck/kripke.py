"""Finite pointed Kripke models: validation, JSON I/O, example families."""

import gc
import json
from contextlib import contextmanager
from itertools import chain, compress, count, islice, repeat
from json.decoder import WHITESPACE, scanstring as _scanstring
from json.encoder import encode_basestring_ascii as _quote
from operator import add, mul


class ModelError(Exception):
    """Raised for malformed model data."""


_ws = WHITESPACE.match  # JSON whitespace from an index on
_scan = json.JSONDecoder().scan_once  # one JSON value at an index


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector for the body, and restore the
    state it was in (enabled or disabled) on return and on error.

    For code that allocates many small acyclic objects (JSON trees,
    positions, rows, masks): reference counting frees them all, and with
    the collector running they would set off a collection every few
    hundred thousand allocations.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# Items per chunk of a written member, so that a long member (a large
# model's edges, a position model's back-map) is never held whole.
_SLICE = 4096


def _json_block(key, brackets, items, depth):
    """Chunks of encoded ``items`` laid out as ``json.dumps(..., indent=2)``
    lays out a list (``brackets`` "[]") or an object ("{}", each item
    already "key: value") that opens at nesting ``depth``, after ``key``
    (the encoded member key and ": ", or ""), with at most _SLICE items
    per chunk."""
    pad = "\n" + "  " * (depth + 1)
    sep = "," + pad
    items = iter(items)
    chunk = list(islice(items, _SLICE))
    if not chunk:
        yield key + brackets
        return
    head = f"{key}{brackets[0]}{pad}"
    while chunk:
        yield head + sep.join(chunk)
        head = sep
        chunk = list(islice(items, _SLICE))
    yield f"\n{'  ' * depth}{brackets[1]}"


def _json_document(members):
    """Chunks of the file holding one JSON object with the ``members``
    (at least one), each an iterable of the chunks of one encoded member,
    as ``json.dumps(..., indent=2)`` lays it out, plus a newline."""
    sep = "{\n  "
    for member in members:
        yield sep
        yield from member
        sep = ",\n  "
    yield "\n}\n"


def _json_edges(srcs, dsts, count):
    """Chunks of the "edges" member for ``count`` pairs of encoded names,
    laid out as ``json.dumps(..., indent=2)`` lays it out at nesting 1,
    with at most _SLICE edges per chunk: a chunk's names and separators
    go into one flat list by slice assignment, joined once."""
    if not count:
        yield '"edges": []'
        return
    srcs, dsts = iter(srcs), iter(dsts)
    head = '"edges": [\n    [\n      '
    for start in range(0, count, _SLICE):
        k = min(_SLICE, count - start)
        parts = [",\n      "] * (4 * k)
        parts[0::4] = islice(srcs, k)
        parts[2::4] = islice(dsts, k)
        parts[3::4] = ["\n    ],\n    [\n      "] * k
        if start + k == count:
            parts[-1] = "\n    ]\n  ]"
        parts[0] = head + parts[0]
        head = ""
        yield "".join(parts)


def _ids(mask):
    """The indices of the bits set in ``mask``, lowest first."""
    return compress(count(), map("1".__eq__, bin(mask)[:1:-1]))


def _mask(ids, n):
    """The bitmask with bit i set for each i in ``ids`` (repeats allowed,
    each below ``n``): one bit string, read by one ``int(..., 2)``, so
    the cost is linear in ``n`` where adding one shifted int per id is
    quadratic."""
    bits = bytearray(b"0") * (n + 1)  # bit i at n - i, a leading "0"
    for i in ids:
        bits[n - i] = 49  # ord("1")
    return int(bits, 2)


def _model_members(quoted, srcs, dsts, n_edges, val_mask):
    """The chunks of the encoded "states", "edges" and "val" members of a
    model file, member by member: ``quoted`` holds the encoded state
    names, ``srcs`` and ``dsts`` the encoded names of the ``n_edges``
    edges, and ``val_mask`` a state mask per proposition."""
    name = quoted.__getitem__
    yield _json_block('"states": ', "[]", quoted, 1)
    yield _json_edges(srcs, dsts, n_edges)
    yield _json_block('"val": ', "{}", (
        "".join(_json_block(_quote(p) + ": ", "[]", map(name, _ids(mask)),
                            2))
        for p, mask in sorted(val_mask.items())), 1)


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
        index = dict(zip(states, range(len(states))))
        _check_states(states, index)
        self._build(states, index,
                    _edge_ids(index, chain.from_iterable(edges)), valuation)

    def _build(self, states, index, ids, valuation):
        """Fill in the model on checked ``states`` and their ``index``,
        from the ``ids`` of the edge ends (src, dst, src, ...) and the
        valuation's names."""
        n = len(states)
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
            val_mask[p] = _mask(ids, n)
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
        """Successor and predecessor bitmasks, one int per state, and the
        mask of the states that have a successor.

        Built on first use and cached: only the compositional semantics
        reads them, so loading or solving a game never pays for them.
        """
        if self._masks is None:
            pred = [0] * len(self.states)
            live = 0
            for i, lst in enumerate(self._succ):
                bit = 1 << i
                if lst:
                    live |= bit
                for v in lst:
                    pred[v] |= bit
            self._masks = (tuple(sum(1 << v for v in lst)
                                 for lst in self._succ), tuple(pred), live)
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
        return frozenset(map(self.states.__getitem__,
                             _ids(mask & self._full_mask)))

    def states_to_mask(self, ws):
        return _mask(map(self.state_index, ws), len(self.states))

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

    def _json_members(self):
        """The members of the model file, one at a time, each as the
        chunks of its encoded text."""
        quoted = list(map(_quote, self.states))
        name = quoted.__getitem__
        src, dst = self._edges
        return _model_members(quoted, map(name, src), map(name, dst),
                              len(src), self._val_mask)

    def __eq__(self, other):
        if not isinstance(other, KripkeModel):
            return NotImplemented
        return (self.states == other.states and self._succ == other._succ
                and self._val_mask == other._val_mask)

    def __hash__(self):
        return hash((self.states, self._succ))

    def __repr__(self):
        return f"KripkeModel(states={self.card}, edges={len(self._edges[0])})"


def _check_states(states, index):
    """Raise for an empty ``states`` or one that repeats a name (then
    ``index``, the id of each name, is shorter than ``states``)."""
    if not states:
        raise ModelError("a Kripke model needs at least one state")
    if len(index) != len(states):
        raise ModelError("duplicate state identifiers")


def _edge_ids(index, names):
    """The id in ``index`` of each edge end in ``names`` (src, dst,
    src, ...)."""
    names = list(names)
    ids = list(map(index.get, names))
    if None in ids:
        w = names[ids.index(None)]
        raise ModelError(f"edge references unknown state {w!r}")
    return ids


def _edges_shaped(edges):
    """True when the list ``edges`` holds only 2-arrays of strings."""
    return (_all_of(edges, list) and set(map(len, edges)) <= {2}
            and _all_of(chain.from_iterable(edges), str))


def _edge_names(edges):
    """The edge ends (src, dst, src, ...) of an "edges" member: an array
    of 2-arrays of names, or the pair of their ids and the states those
    ids index (see _resolve)."""
    if type(edges) is tuple:
        ids, states = edges
        return map(states.__getitem__, ids)
    return chain.from_iterable(edges)


def _resolve(edges, states, index):
    """The "edges" member ``edges`` with its names turned into ids through
    ``states`` (an array of strings) and their ``index``.

    The result is the pair (ids of src, dst, src, ...; ``states``) when
    ``edges`` is an array of 2-arrays of names in ``index``, or is such a
    pair made through earlier states whose names are all in ``index``.
    Otherwise it is ``edges`` unchanged, for the checks that run once the
    whole text is read.  A JSON value is never a tuple, so the two kinds
    of result cannot be confused.
    """
    if type(edges) is not tuple and not (type(edges) is list
                                         and _edges_shaped(edges)):
        return edges
    ids = list(map(index.get, _edge_names(edges)))
    return edges if None in ids else (ids, states)


def load_model(data):
    """Build a validated model from JSON text or bytes.

    Expected shape: {"states": [...], "edges": [[src, dst], ...],
    "val": {prop: [...]}}.  Unknown top-level keys are ignored so that
    reduced-model files (which add "root" and "backmap") stay loadable.

    The top-level object is read one member at a time, each value by the
    json module's own scanner, so the whole text is checked as JSON but
    its whole tree is never held: a member other than "states", "edges"
    and "val" is dropped as soon as it is parsed, and "edges" is turned
    into state ids, and its names freed, as soon as it and a well-formed
    "states" have both been read.  A repeated key's last value wins, as
    with ``json.loads``.  Shape and name errors are raised only after the
    whole text has parsed, so invalid JSON anywhere is reported first.

    The cyclic garbage collector is paused while the model is parsed and
    built (gc_paused): a JSON tree holds no cycles, and a multi-MB file
    would otherwise set off hundreds of collections over it.
    """
    with gc_paused():
        return _load_model(_text(data))


def _text(data):
    """``data`` as text: bytes are decoded as UTF-8."""
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelError(f"model file is not UTF-8: {exc}") from None
    return data


def _json_error(text):
    """The ModelError for ``text``, which does not hold one JSON object:
    ``json.loads``'s own message for invalid JSON."""
    try:
        json.loads(text)
    except ValueError as exc:  # bad syntax, or an int past the digit limit
        return ModelError(f"invalid JSON: {exc}")
    except RecursionError:
        return ModelError("invalid JSON: nested too deeply")
    return ModelError("model file must contain a JSON object")


def _load_model(text):
    found = {}  # the last "states", "edges" and "val" read
    index = None  # the id of each name in found["states"], if well-formed
    try:
        end = _ws(text, 0).end()
        if text[end:end + 1] != "{":
            raise _json_error(text)
        end = _ws(text, end + 1).end()
        while text[end:end + 1] != "}":
            if text[end:end + 1] != '"':
                raise _json_error(text)
            key, end = _scanstring(text, end + 1)
            end = _ws(text, end).end()
            if text[end:end + 1] != ":":
                raise _json_error(text)
            value, end = _scan(text, _ws(text, end + 1).end())
            if key == "states":
                index = None
                if type(value) is list and _all_of(value, str):
                    index = dict(zip(value, range(len(value))))
                    if "edges" in found:
                        found["edges"] = _resolve(found["edges"], value,
                                                  index)
                found[key] = value
            elif key == "edges":
                found[key] = (value if index is None else
                              _resolve(value, found["states"], index))
            elif key == "val":
                found[key] = value
            del value  # free a dropped member before the next is parsed
            end = _ws(text, end).end()
            if text[end:end + 1] == ",":
                end = _ws(text, end + 1).end()
                if text[end:end + 1] != '"':
                    raise _json_error(text)
            elif text[end:end + 1] != "}":
                raise _json_error(text)
        if _ws(text, end + 1).end() != len(text):
            raise _json_error(text)
    except (ValueError, StopIteration, RecursionError):
        raise _json_error(text) from None

    for key in ("states", "edges"):
        if key not in found:
            raise ModelError(f"model file is missing the {key!r} key")
    states = found["states"]
    edges = found["edges"]
    val = found.get("val", {})
    # The json scanner yields exact dicts, lists and strs, so shapes are
    # checked with ``type(x) is``, a whole array at a time.
    if index is None:
        raise ModelError("'states' must be an array of strings")
    if type(edges) is not tuple:
        if type(edges) is not list:
            raise ModelError("'edges' must be an array")
        if not _edges_shaped(edges):
            raise ModelError("every edge must be a 2-array of state names")
    if type(val) is not dict:
        raise ModelError("'val' must be an object")
    for p, ws in val.items():
        if type(ws) is not list or not _all_of(ws, str):
            raise ModelError(f"valuation of {p!r} must be an array of states")
    _check_states(states, index)
    if type(edges) is tuple and edges[1] is states:
        ids = edges[0]
    else:  # not resolved through the last "states"; raises if unknown
        ids = _edge_ids(index, _edge_names(edges))
    model = KripkeModel.__new__(KripkeModel)
    model._build(tuple(states), index, ids, val)
    return model


def _all_of(items, cls):
    """True when every item's exact type is ``cls``."""
    return set(map(type, items)) <= {cls}


def load_model_file(path):
    """``load_model`` on the file at ``path``; its bytes are freed once
    decoded, before the text is parsed."""
    with open(path, "rb") as fh:
        text = _text(fh.read())
    return load_model(text)


def save_model(model, path):
    """Write ``model.json_text()`` one chunk of a member at a time;
    ``model`` may be a ``ReducedModel`` too."""
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
FAMILY_MAX_SIZE = 1_000_000  # states plus edges of one generated model


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
    if name not in FAMILIES:
        raise ModelError(f"unknown model family {name!r} (expected one of "
                         + ", ".join(FAMILIES) + ")")
    # States plus edges, checked before anything is allocated.
    size = {"starN": 3 * n + 1, "daggerN": 3 * n + 1, "chain": 2 * n + 1,
            "clique": (n + 1) * (n + 2), "ar-grid": 3 * n * n - 2 * n}[name]
    if size > FAMILY_MAX_SIZE:
        raise ModelError(f"{name}({n}) has more than {FAMILY_MAX_SIZE:,} "
                         f"states plus edges")
    # Successor rows in state order, as the edges were always listed.
    if name == "ar-grid":
        states = [f"g{i}_{j}" for i in range(n) for j in range(n)]
        # State k = i * n + j steps down to k + n, then right to k + 1.
        rows = [(k + n,) * (k < n * (n - 1)) + (k + 1,) * (k % n < n - 1)
                for k in range(n * n)]
        val = {"p_B": 1 << (n * n - 1), "q_B": _mask(
            (k for k in range(n * n) if (k // n + k % n) % 2 == 0), n * n)}
        return KripkeModel._from_rows(states, rows, val)
    states = [f"w_{i}" for i in range(n + 1)]
    if name == "chain":
        rows, val = [*zip(range(1, n + 1)), ()], {"p": 1 << n}
    elif name == "clique":
        rows, val = [range(n + 1)] * (n + 1), {"p": 1}
    else:  # starN, daggerN
        rows = [range(1, n + 1), *zip(range(n))]
        val = {"p": 1 if name == "starN" else 2}
    return KripkeModel._from_rows(states, rows, val)
