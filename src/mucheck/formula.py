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

ATOM_KINDS = (PROP, NEGPROP, LABEL)
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

        def walk(node, parent_id):
            kind, name, kids = node
            nid = len(kinds)
            kinds.append(kind)
            names.append(name)
            childlists.append(None)
            parents.append(parent_id)
            childlists[nid] = tuple(walk(kid, nid) for kid in kids)
            return nid

        walk(tree, None)
        self.kind = tuple(kinds)
        self.name = tuple(names)
        self.children = tuple(childlists)
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
        return (self.kind[node], self.name[node],
                tuple(self.tree(c) for c in self.children[node]))

    def subsentence(self, node):
        return Sentence(self.tree(node))

    def __eq__(self, other):
        if not isinstance(other, Sentence):
            return NotImplemented
        return self._tree == other._tree

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._tree)
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
    """Recursive-descent parser.

    Grammar (binder scope extends maximally to the right)::

        expr  := disj
        disj  := conj ("|" conj)*
        conj  := unary ("&" unary)*
        unary := "<>" unary | "[]" unary | "!" PROP
               | PROP | LABEL | "(" expr ")"
               | ("mu" | "nu") LABEL "." expr
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
        tree = self.expr()
        if self.peek() is not None:
            raise ParseError(f"unexpected token {self.peek()!r} after formula",
                             self.pos())
        return tree

    def expr(self):
        left = self.conj()
        while self.peek() == "|":
            self.take()
            left = lor(left, self.conj())
        return left

    def conj(self):
        left = self.unary()
        while self.peek() == "&":
            self.take()
            left = land(left, self.unary())
        return left

    def unary(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos())
        if tok == "<>":
            self.take()
            return dia(self.unary())
        if tok == "[]":
            self.take()
            return box(self.unary())
        if tok == "!":
            self.take()
            name = self.take()
            if not _is_prop_name(name):
                raise ParseError("'!' applies to proposition symbols only",
                                 self.tokens[self.i - 1][1])
            return negprop(name)
        if tok == "(":
            self.take()
            inner = self.expr()
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
            body = self.expr()
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

def _render(tree):
    kind, name, kids = tree
    if kind == PROP:
        return name
    if kind == NEGPROP:
        return "! " + name
    if kind == LABEL:
        return name
    if kind == OR:
        return _wrap(kids[0]) + " | " + _wrap(kids[1])
    if kind == AND:
        return _wrap(kids[0]) + " & " + _wrap(kids[1])
    if kind == DIAMOND:
        return "<> " + _wrap(kids[0])
    if kind == BOX:
        return "[] " + _wrap(kids[0])
    if kind == MU:
        return "mu " + name + ". " + _wrap(kids[0])
    if kind == NU:
        return "nu " + name + ". " + _wrap(kids[0])
    raise ValueError(f"unknown node kind {kind!r}")


def _wrap(tree):
    if tree[0] in ATOM_KINDS:
        return _render(tree)
    return "(" + _render(tree) + ")"


def render(s, node=0):
    """Canonical text for ``s`` (or for the subformula at ``node``)."""
    return _render(s.tree(node))


# ---------------------------------------------------------------------------
# Transformations.

def free_labels(s):
    """Names of label occurrences not bound inside ``s``."""
    out = set()

    def walk(tree, scope):
        kind, name, kids = tree
        if kind == LABEL:
            if name not in scope:
                out.add(name)
        elif kind in BINDER_KINDS:
            walk(kids[0], scope | {name})
        else:
            for kid in kids:
                walk(kid, scope)

    walk(s.tree(), frozenset())
    return out


def is_normal(s):
    """True when binder label names are pairwise distinct."""
    seen = set()
    for nid, kind in enumerate(s.kind):
        if kind in BINDER_KINDS:
            if s.name[nid] in seen:
                return False
            seen.add(s.name[nid])
    return True


def _all_label_names(tree, acc):
    kind, name, kids = tree
    if kind == LABEL or kind in BINDER_KINDS:
        acc.add(name)
    for kid in kids:
        _all_label_names(kid, acc)


def normalize(s):
    """Rename binders so that every binder label name occurs at most once.

    The first binder with a given name keeps it; later ones get suffixed
    fresh names (X -> X1, X2, ...), avoiding every name in the input.
    Idempotent, and the result is alpha-equivalent to the input.
    """
    taken = set()
    _all_label_names(s.tree(), taken)
    assigned = set()

    def fresh(base):
        i = 1
        while base + str(i) in taken or base + str(i) in assigned:
            i += 1
        return base + str(i)

    def walk(tree, env):
        kind, name, kids = tree
        if kind == LABEL:
            return (kind, env.get(name, name), ())
        if kind in BINDER_KINDS:
            new = name if name not in assigned else fresh(name)
            assigned.add(new)
            body = walk(kids[0], {**env, name: new})
            return (kind, new, (body,))
        return (kind, name, tuple(walk(kid, env) for kid in kids))

    return Sentence(walk(s.tree(), {}))


_DUAL_KIND = {PROP: NEGPROP, NEGPROP: PROP, LABEL: LABEL,
              OR: AND, AND: OR, DIAMOND: BOX, BOX: DIAMOND,
              MU: NU, NU: MU}


def dual(s):
    """De Morgan / fixpoint dual: p <-> !p, or <-> and, <> <-> [], mu <-> nu.

    An involution; on sentences it denotes the complement under the
    standard semantics.
    """

    def walk(tree):
        kind, name, kids = tree
        return (_DUAL_KIND[kind], name, tuple(walk(kid) for kid in kids))

    return Sentence(walk(s.tree()))


def alpha_equal(a, b):
    """Structural equality up to consistent renaming of bound labels."""

    def walk(ta, tb, stack):
        ka, na, kidsa = ta
        kb, nb, kidsb = tb
        if ka != kb or len(kidsa) != len(kidsb):
            return False
        if ka == LABEL:
            for i in range(len(stack) - 1, -1, -1):
                xa, xb = stack[i]
                if xa == na or xb == nb:
                    return xa == na and xb == nb
            return na == nb  # both free
        if ka in (PROP, NEGPROP):
            return na == nb
        if ka in BINDER_KINDS:
            stack.append((na, nb))
            ok = walk(kidsa[0], kidsb[0], stack)
            stack.pop()
            return ok
        return all(walk(x, y, stack) for x, y in zip(kidsa, kidsb))

    return walk(a.tree(), b.tree(), [])


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

    __slots__ = ("sentence", "rf", "mu_nu_nodes", "active_ancestors",
                 "rf_slot", "node_path", "size")

    def __init__(self, sentence):
        s = sentence
        n = s.size
        rf = {}
        rf_slot = {}
        active = [()] * n
        paths = [""] * n
        mu_nu = []

        stack = [(0, (), "r")]  # (node, binder ancestors, path)
        while stack:
            nid, anc, path = stack.pop()
            active[nid] = anc
            paths[nid] = path
            kind = s.kind[nid]
            child_anc = anc
            if kind in BINDER_KINDS:
                mu_nu.append(nid)
                child_anc = anc + (nid,)
            elif kind == LABEL:
                name = s.name[nid]
                slot = None
                for i in range(len(anc) - 1, -1, -1):
                    if s.name[anc[i]] == name:
                        slot = i
                        break
                if slot is None:
                    raise FreeLabelError(
                        f"label {name!r} has no enclosing binder")
                rf[nid] = anc[slot]
                rf_slot[nid] = slot
            for idx, kid in enumerate(s.children[nid]):
                stack.append((kid, child_anc, f"{path}.{idx}"))

        mu_nu.sort()
        self.sentence = s
        self.rf = rf
        self.rf_slot = rf_slot
        self.mu_nu_nodes = tuple(mu_nu)
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
