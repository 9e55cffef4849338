"""Modal mu-calculus formulas: parsing, rendering, renaming, and indexing.

Formulas are in negation normal form: negation is only available on
proposition symbols.  Proposition names start with a lowercase letter,
label names with an uppercase letter.  Each syntax-tree node is an
occurrence: two textual copies of the same subformula are distinct nodes.
"""

import re

# Node kinds.
PROP = "prop"
NEGPROP = "negprop"
LABEL = "label"
OR = "or"
AND = "and"
DIAMOND = "diamond"
BOX = "box"
MU = "mu"
NU = "nu"

BINDER_KINDS = (MU, NU)


class FormulaError(Exception):
    """Base class for formula-layer errors."""


class ParseError(FormulaError):
    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class FreeLabelError(FormulaError):
    """A label occurrence has no enclosing binder with its name."""


# ---------------------------------------------------------------------------
# Tree helpers.  A tree is a nested tuple (kind, name, children) where
# name is None except for Prop/NegProp/Label/Mu/Nu nodes.

def prop(name):
    return (PROP, name, ())


def negprop(name):
    return (NEGPROP, name, ())


def label(name):
    return (LABEL, name, ())


def lor(left, right):
    return (OR, None, (left, right))


def land(left, right):
    return (AND, None, (left, right))


def dia(child):
    return (DIAMOND, None, (child,))


def box(child):
    return (BOX, None, (child,))


def mu(name, child):
    return (MU, name, (child,))


def nu(name, child):
    return (NU, name, (child,))


class Sentence:
    """An occurrence-identified syntax tree with dense pre-order node ids.

    Node 0 is the root.  Per-node data lives in parallel tuples indexed by
    node id.  Instances are immutable and hashable; the hash and the
    SyntaxIndex are computed on first use and kept.
    """

    __slots__ = ("kind", "name", "children", "parent", "_tree", "_hash",
                 "_index")

    def __init__(self, tree):
        kinds, names, childlists, parents = [], [], [], []
        # Pre-order with an explicit stack: a node's first child is
        # numbered next, its second after the first child's subtree.
        stack = [(tree, None)]
        while stack:
            (kind, name, kids), parent_id = stack.pop()
            nid = len(kinds)
            kinds.append(kind)
            names.append(name)
            childlists.append([])
            parents.append(parent_id)
            if parent_id is not None:
                childlists[parent_id].append(nid)
            stack.extend([(kid, nid) for kid in reversed(kids)])
        self.kind = tuple(kinds)
        self.name = tuple(names)
        self.children = tuple(map(tuple, childlists))
        self.parent = tuple(parents)
        self._tree = tree
        self._hash = None
        self._index = None

    @property
    def size(self):
        """Number of syntax-tree nodes."""
        return len(self.kind)

    @property
    def root(self):
        return 0

    def tree(self, node=0):
        """Nested-tuple view of the subtree rooted at ``node``."""
        if node == 0:
            return self._tree
        # The subtree is the pre-order id range up to its last descendant,
        # which following last children reaches.
        last = node
        while self.children[last]:
            last = self.children[last][-1]
        return _trees(self, self.kind, range(last, node - 1, -1))[node]

    def subsentence(self, node):
        return Sentence(self.tree(node))

    def __eq__(self, other):
        if not isinstance(other, Sentence):
            return NotImplemented
        # The flat per-node tuples fix the tree and compare without
        # recursing into it, so deep sentences compare too.
        return (self.kind == other.kind and self.name == other.name
                and self.children == other.children)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.kind, self.name, self.children))
        return self._hash

    def __repr__(self):
        return f"Sentence({render(self)!r})"


# ---------------------------------------------------------------------------
# Parsing.

_TOKEN_RE = re.compile(r"\s*(<>|\[\]|[A-Za-z][A-Za-z0-9_]*|[|&!().])")

_KEYWORDS = ("mu", "nu")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            bad_at = len(text) - len(rest)
            raise ParseError(f"unexpected character {rest[0]!r}", bad_at)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    """Descent parser whose rules run on an explicit stack.

    Grammar (binder scope extends maximally to the right)::

        expr  := disj
        disj  := conj ("|" conj)*
        conj  := unary ("&" unary)*
        unary := "<>" unary | "[]" unary | "!" PROP
               | PROP | LABEL | "(" expr ")"
               | ("mu" | "nu") LABEL "." expr

    Each rule is a generator that yields the rule it needs parsed next
    and receives that rule's tree back; ``parse`` keeps the suspended
    rules on a list, so nesting depth is bounded by memory, not by
    Python's recursion limit.
    """

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.scope = []
        self.free = []  # (name, pos) of label uses with no enclosing binder

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i][0]
        return None

    def pos(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i][1]
        return self.tokens[-1][1] + len(self.tokens[-1][0]) if self.tokens else 0

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input",
                             self.pos() if self.tokens else 0)
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r} but found {tok!r}", self.pos())
        self.i += 1
        return tok

    def parse(self):
        stack = [self.expr()]
        value = None
        while stack:
            try:
                rule = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                value = done.value
            else:
                stack.append(rule())
                value = None
        if self.peek() is not None:
            raise ParseError(f"unexpected token {self.peek()!r} after formula",
                             self.pos())
        return value

    def expr(self):
        left = yield self.conj
        while self.peek() == "|":
            self.take()
            left = lor(left, (yield self.conj))
        return left

    def conj(self):
        left = yield self.unary
        while self.peek() == "&":
            self.take()
            left = land(left, (yield self.unary))
        return left

    def unary(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos())
        if tok == "<>":
            self.take()
            return dia((yield self.unary))
        if tok == "[]":
            self.take()
            return box((yield self.unary))
        if tok == "!":
            self.take()
            name = self.take()
            if not _is_prop_name(name):
                raise ParseError("'!' applies to proposition symbols only",
                                 self.tokens[self.i - 1][1])
            return negprop(name)
        if tok == "(":
            self.take()
            inner = yield self.expr
            self.take(")")
            return inner
        if tok in _KEYWORDS:
            self.take()
            name = self.take()
            if not _is_label_name(name):
                raise ParseError(f"expected a label name after {tok!r}",
                                 self.tokens[self.i - 1][1])
            self.take(".")
            self.scope.append(name)
            body = yield self.expr
            self.scope.pop()
            return (MU if tok == "mu" else NU, name, (body,))
        if _is_prop_name(tok):
            self.take()
            return prop(tok)
        if _is_label_name(tok):
            at = self.pos()
            self.take()
            if tok not in self.scope:
                self.free.append((tok, at))
            return label(tok)
        raise ParseError(f"unexpected token {tok!r}", self.pos())


def _is_prop_name(tok):
    return tok not in _KEYWORDS and tok[0].isalpha() and tok[0].islower()


def _is_label_name(tok):
    return tok[0].isalpha() and tok[0].isupper()


def parse(text, allow_free=False):
    """Parse ``text`` into a Sentence.

    Free label occurrences are rejected unless ``allow_free`` is set (open
    formulas are only meaningful to the compositional engines, which take
    an assignment for them).
    """
    p = _Parser(text)
    tree = p.parse()
    if p.free and not allow_free:
        name, at = p.free[0]
        raise FreeLabelError(
            f"label {name!r} is not bound by any mu/nu operator (at position {at})")
    return Sentence(tree)


# ---------------------------------------------------------------------------
# Rendering.  Atoms print bare; every compound subformula is parenthesized
# except at the top level, so output is unambiguous and round-trips.

_PREFIX = {DIAMOND: "<> ", BOX: "[] ", MU: "mu ", NU: "nu "}
_INFIX = {OR: " | ", AND: " & "}


def render(s, node=0):
    """Canonical text for ``s`` (or for the subformula at ``node``)."""
    kind, name, children = s.kind, s.name, s.children
    out = []
    stack = [node]  # node ids still to render, and text to emit as is
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        k = kind[item]
        if k == PROP or k == LABEL:
            out.append(name[item])
            continue
        if k == NEGPROP:
            out.append("! " + name[item])
            continue
        kids = children[item]
        if k in _INFIX:
            parts = [kids[1], _INFIX[k], kids[0]]
        elif k == MU or k == NU:
            parts = [kids[0], _PREFIX[k] + name[item] + ". "]
        elif k in _PREFIX:
            parts = [kids[0], _PREFIX[k]]
        else:
            raise ValueError(f"unknown node kind {k!r}")
        if item != node:
            parts = [")", *parts, "("]
        stack.extend(parts)
    return "".join(out)


# ---------------------------------------------------------------------------
# Transformations.

def _trees(s, kinds, nodes, names=None):
    """Nested-tuple trees of ``nodes``, given children before parents,
    with each node's kind from ``kinds`` and name from ``names`` (the
    sentence's by default): a dict from node id to its tree."""
    names = s.name if names is None else names
    children = s.children
    trees = {}
    for nid in nodes:
        trees[nid] = (kinds[nid], names[nid],
                      tuple([trees[c] for c in children[nid]]))
    return trees


def _label_binders(s):
    """The binder of every label node: the nearest Mu/Nu ancestor with
    the label's name, or None when the label is free in ``s``.  One
    pre-order pass that keeps the binders in scope per name."""
    end = [0] * s.size  # one past each node's last descendant
    for nid in range(s.size - 1, -1, -1):
        kids = s.children[nid]
        end[nid] = end[kids[-1]] if kids else nid + 1
    scope = {}
    open_binders = []
    out = {}
    for nid, kind in enumerate(s.kind):
        while open_binders and end[open_binders[-1]] <= nid:
            scope[s.name[open_binders.pop()]].pop()
        if kind in BINDER_KINDS:
            scope.setdefault(s.name[nid], []).append(nid)
            open_binders.append(nid)
        elif kind == LABEL:
            inner = scope.get(s.name[nid])
            out[nid] = inner[-1] if inner else None
    return out


def free_labels(s):
    """Names of label occurrences not bound inside ``s``."""
    return {s.name[nid] for nid, b in _label_binders(s).items() if b is None}


def is_normal(s):
    """True when binder label names are pairwise distinct."""
    seen = set()
    for nid, kind in enumerate(s.kind):
        if kind in BINDER_KINDS:
            if s.name[nid] in seen:
                return False
            seen.add(s.name[nid])
    return True


def _rename_binders(s, rename):
    """``s`` with each binder, in pre-order, renamed to ``rename(name)``
    and every label it binds renamed alike; free labels keep their
    names."""
    names = list(s.name)
    binder = _label_binders(s)
    for nid, kind in enumerate(s.kind):
        if kind in BINDER_KINDS:
            names[nid] = rename(s.name[nid])
        elif kind == LABEL and binder[nid] is not None:
            names[nid] = names[binder[nid]]
    return Sentence(_trees(s, s.kind, range(s.size - 1, -1, -1), names)[0])


def normalize(s):
    """Rename binders so that every binder label name occurs at most once.

    The first binder with a given name keeps it; later ones get suffixed
    fresh names (X -> X1, X2, ...), avoiding every name in the input.
    Idempotent, and the result is alpha-equivalent to the input.
    """
    taken = {s.name[nid] for nid, kind in enumerate(s.kind)
             if kind == LABEL or kind in BINDER_KINDS}
    assigned = set()
    # Suffixes below a name's cursor are taken or assigned for good, so
    # each search resumes where the last one for that name stopped.
    cursor = {}

    def rename(name):
        new = name
        if name in assigned:
            i = cursor.get(name, 1)
            while name + str(i) in taken or name + str(i) in assigned:
                i += 1
            cursor[name] = i + 1
            new = name + str(i)
        assigned.add(new)
        return new

    return _rename_binders(s, rename)


_DUAL_KIND = {PROP: NEGPROP, NEGPROP: PROP, LABEL: LABEL,
              OR: AND, AND: OR, DIAMOND: BOX, BOX: DIAMOND,
              MU: NU, NU: MU}


def dual(s):
    """De Morgan / fixpoint dual: p <-> !p, or <-> and, <> <-> [], mu <-> nu.

    An involution; on sentences it denotes the complement under the
    standard semantics.
    """

    kinds = [_DUAL_KIND[kind] for kind in s.kind]
    return Sentence(_trees(s, kinds, range(s.size - 1, -1, -1))[0])


def alpha_equal(a, b):
    """Structural equality up to consistent renaming of bound labels.

    Each kind has a fixed arity, so equal pre-order kinds mean equal
    shapes, with node ids matching.  Then literals must carry the same
    names, and each label the same binder, or the same name when free."""
    if a.kind != b.kind:
        return False
    binder_a = _label_binders(a)
    binder_b = _label_binders(b)
    for nid, kind in enumerate(a.kind):
        if kind == LABEL:
            if binder_a[nid] != binder_b[nid] or (
                    binder_a[nid] is None and a.name[nid] != b.name[nid]):
                return False
        elif kind in (PROP, NEGPROP) and a.name[nid] != b.name[nid]:
            return False
    return True


# ---------------------------------------------------------------------------
# Indexing.

class SyntaxIndex:
    """Static facts about one sentence used by the game engines.

    rf
        Maps each Label node to the binder node it refers to: the nearest
        Mu/Nu ancestor carrying the same label name.
    mu_nu_nodes
        All Mu/Nu node ids in pre-order.
    active_ancestors
        For each node, the tuple of its strict Mu/Nu ancestors from the
        root downward.  Clock tuples in game positions align with this.
    rf_slot
        For each Label node, the index of its rf node inside the label's
        active_ancestors tuple.
    node_path
        Human-readable tree path per node ("r", "r.0", "r.0.1", ...).
    """

    __slots__ = ("rf", "mu_nu_nodes", "active_ancestors", "rf_slot",
                 "node_path", "size")

    def __init__(self, sentence):
        s = sentence
        n = s.size
        rf = _label_binders(s)
        rf_slot = {}
        active = [()] * n
        paths = [""] * n

        stack = [(0, (), "r")]  # (node, binder ancestors, path)
        while stack:
            nid, anc, path = stack.pop()
            active[nid] = anc
            paths[nid] = path
            kind = s.kind[nid]
            if kind in BINDER_KINDS:
                anc += (nid,)
            elif kind == LABEL:
                if rf[nid] is None:
                    raise FreeLabelError(
                        f"label {s.name[nid]!r} has no enclosing binder")
                rf_slot[nid] = anc.index(rf[nid])
            for idx, kid in enumerate(s.children[nid]):
                stack.append((kid, anc, f"{path}.{idx}"))

        self.rf = rf
        self.rf_slot = rf_slot
        self.mu_nu_nodes = tuple(nid for nid, kind in enumerate(s.kind)
                                 if kind in BINDER_KINDS)
        self.active_ancestors = tuple(active)
        self.node_path = tuple(paths)
        self.size = n


def build_index(s):
    """Index ``s`` (callers normalize first when binder names may repeat).

    The index is built once per sentence and shared by every later call.
    """
    if s._index is None:
        s._index = SyntaxIndex(s)
    return s._index
