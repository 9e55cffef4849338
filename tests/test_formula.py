"""Formula layer: parsing, rendering, normalization, duality, indexing."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mucheck import formula as F
from mucheck.corpus import all_sentences, random_sentence, random_sentences
from mucheck.formula import (FreeLabelError, ParseError, alpha_equal,
                             build_index, dual, is_normal, normalize,
                             parse, render)


def test_parse_afp_shape(afp):
    assert afp.kind[0] == F.MU and afp.name[0] == "X"
    or_node = afp.children[0][0]
    assert afp.kind[or_node] == F.OR
    left, right = afp.children[or_node]
    assert afp.kind[left] == F.PROP and afp.name[left] == "p"
    assert afp.kind[right] == F.BOX
    assert afp.kind[afp.children[right][0]] == F.LABEL


def test_parse_phi_star_shape(phi_star):
    # nu X. [] mu Y. (<>Y | (p & X))
    s = phi_star
    assert s.kind[0] == F.NU and s.name[0] == "X"
    box = s.children[0][0]
    assert s.kind[box] == F.BOX
    mu_y = s.children[box][0]
    assert s.kind[mu_y] == F.MU and s.name[mu_y] == "Y"


def test_parse_atomic():
    s = parse("p")
    assert s.size == 1 and s.kind[0] == F.PROP and s.name[0] == "p"


def test_parse_free_label_rejected():
    with pytest.raises(FreeLabelError) as err:
        parse("mu X. Y")
    assert "Y" in str(err.value)


def test_parse_free_label_allowed_in_library_mode():
    s = parse("mu X. Y", allow_free=True)
    assert F.free_labels(s) == {"Y"}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("p | | q")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse("mu X.")
    with pytest.raises(ParseError):
        parse("(p & q")
    with pytest.raises(ParseError):
        parse("! X")  # negation is restricted to propositions
    with pytest.raises(ParseError):
        parse("p @ q")


def test_render_examples(afp, phi_star):
    assert render(parse("mu X. X")) == "mu X. X"
    assert render(phi_star) == "nu X. ([] (mu Y. ((<> Y) | (p & X))))"
    assert render(parse("p")) == "p"
    assert render(afp) == "mu X. (p | ([] X))"


def test_roundtrip_exhaustive_corpus():
    for s in all_sentences(4, 1):
        assert parse(render(s)) == s


def test_roundtrip_random():
    for s in random_sentences(120, 11, 10, 2):
        assert parse(render(s)) == s


def _deepen(tree, rng, depth):
    """``tree`` under ``depth`` random operators, each nesting it once
    more: modalities, either side of a connective, and binders whose
    label is used next to it."""
    for i in range(depth):
        op = rng.randrange(6)
        other = F.prop(rng.choice("pq"))
        if op == 0:
            tree = F.dia(tree)
        elif op == 1:
            tree = F.box(tree)
        elif op in (2, 3):
            join = F.lor if op == 2 else F.land
            tree = join(tree, other) if rng.random() < 0.5 \
                else join(other, tree)
        else:
            name = f"Z{i}"
            use = F.dia(F.label(name)) if op == 4 else F.box(F.label(name))
            tree = (F.mu if op == 4 else F.nu)(name, F.lor(use, tree))
    return tree


@settings(max_examples=100)
@given(seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(0, 1000))
@example(seed=0, depth=1000)
def test_parse_inverts_render(seed, depth):
    """Random sentences round-trip, also when nested 1,000 deep."""
    rng = random.Random(seed)
    s = F.Sentence(_deepen(random_sentence(rng, 9, 2).tree(), rng, depth))
    assert parse(render(s)) == s


def test_parse_deep_binders_and_parentheses():
    text = "p"
    for i in range(300):
        text = f"mu X{i}. (<>X{i} | {text})"
    s = parse(text)
    assert s.size == 1 + 4 * 300
    assert sum(kind == F.MU for kind in s.kind) == 300
    assert parse("(" * 400 + "p" + ")" * 400) == parse("p")


def test_normalize_already_normal(afp):
    assert normalize(afp) == afp


def test_normalize_renames_second_binder():
    s = parse("(mu X. p | X) & (mu X. q | X)")
    n = normalize(s)
    assert is_normal(n)
    assert alpha_equal(s, n)
    names = [n.name[i] for i in range(n.size) if n.kind[i] == F.MU]
    assert names == ["X", "X1"]


def test_normalize_shadowed_binder():
    s = parse("nu X. mu X. X")
    n = normalize(s)
    assert is_normal(n)
    assert alpha_equal(s, n)
    # the inner label follows the inner binder
    idx = build_index(n)
    label_node = [i for i in range(n.size) if n.kind[i] == F.LABEL][0]
    inner_binder = [i for i in range(n.size)
                    if n.kind[i] == F.MU][0]
    assert idx.rf[label_node] == inner_binder


def test_normalize_idempotent():
    for s in random_sentences(60, 5, 9, 2):
        shadow = parse(render(s).replace("Y", "X")) if "Y" in render(s) else s
        n = normalize(shadow)
        assert normalize(n) == n
        assert is_normal(n)


def test_normalize_fresh_names_avoid_existing():
    s = parse("(mu X. X) & (mu X. X & (mu X1. X1))")
    n = normalize(s)
    assert is_normal(n)
    binder_names = [n.name[i] for i in range(n.size)
                    if n.kind[i] in F.BINDER_KINDS]
    assert len(set(binder_names)) == len(binder_names)
    assert alpha_equal(s, n)


def test_dual_examples():
    assert render(dual(parse("p"))) == "! p"
    assert dual(parse("mu X. (p | []X)")) == parse("nu X. (!p & <>X)")
    from mucheck.reduction import chi
    assert dual(chi()) == parse("nu X. (!p_B & (!q_B | []X) & (q_B | <>X))")


def test_dual_involution():
    for s in all_sentences(4, 1) + random_sentences(40, 9, 9, 2):
        assert dual(dual(s)) == s


def _deep_shadowed(rng, depth):
    """A random sentence wrapped ``depth`` times in modalities,
    connectives and binders that reuse two names, so that normalizing
    renames most of them."""
    tree = random_sentence(rng, 9, 2).tree()
    for _ in range(depth):
        op = rng.randrange(5)
        if op == 0:
            tree = F.dia(tree)
        elif op == 1:
            tree = F.box(tree)
        elif op == 2:
            tree = F.lor(tree, F.negprop(rng.choice("pq")))
        else:
            name = rng.choice("XY")
            tree = (F.mu if op == 3 else F.nu)(
                name, F.land(F.dia(F.label(name)), tree))
    return F.Sentence(tree)


@settings(max_examples=8)
@given(seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(0, 10_000))
@example(seed=0, depth=10_000)
def test_dual_and_normalize_on_deep_sentences(seed, depth):
    """dual is an involution and normalize idempotent and alpha-equal to
    its input, on sentences nested up to 10,000 deep."""
    s = _deep_shadowed(random.Random(seed), depth)
    assert dual(dual(s)) == s
    assert dual(s) != s
    n = normalize(s)
    assert is_normal(n)
    assert normalize(n) == n
    assert alpha_equal(s, n)
    assert alpha_equal(dual(dual(n)), s)


def test_deep_sentences_do_not_recurse():
    """dual, alpha_equal, the subtree views and the hash walk no nested
    tree."""
    s = parse("<> " * 20_000 + "mu X. (p | <>X)")
    assert dual(s) == parse("[] " * 20_000 + "nu X. (!p & []X)")
    assert alpha_equal(s, parse("<> " * 20_000 + "mu Y. (p | <>Y)"))
    assert not alpha_equal(s, parse("<> " * 20_000 + "mu Y. (q | <>Y)"))
    assert s.subsentence(1) == parse("<> " * 19_999 + "mu X. (p | <>X)")
    assert F.Sentence(s.tree(20_000)) == parse("mu X. (p | <>X)")
    # Deep enough that hashing the nested tree would overflow the C stack.
    deep = F.prop("p")
    for _ in range(200_000):
        deep = F.dia(deep)
    assert isinstance(hash(F.Sentence(deep)), int)


def test_alpha_equal_basics():
    assert alpha_equal(parse("mu X. X"), parse("mu Y. Y"))
    assert not alpha_equal(parse("mu X. X"), parse("nu Y. Y"))
    assert not alpha_equal(parse("mu X. p"), parse("mu X. q"))
    a = parse("mu X. mu Y. (X | Y)", allow_free=False)
    b = parse("mu Y. mu X. (Y | X)")
    assert alpha_equal(a, b)
    c = parse("mu Y. mu X. (X | Y)")
    assert not alpha_equal(a, c)


def test_index_rf_phi_star(phi_star):
    idx = build_index(phi_star)
    labels = {phi_star.name[i]: i for i in range(phi_star.size)
              if phi_star.kind[i] == F.LABEL}
    # X refers to the whole sentence, Y to the inner mu
    assert idx.rf[labels["X"]] == 0
    mu_y = [i for i in range(phi_star.size)
            if phi_star.kind[i] == F.MU][0]
    assert idx.rf[labels["Y"]] == mu_y


def test_index_mu_x_x():
    s = parse("mu X. X")
    idx = build_index(s)
    assert idx.rf == {1: 0}
    assert idx.active_ancestors[1] == (0,)
    assert idx.mu_nu_nodes == (0,)


def test_index_afp_counts(afp):
    idx = build_index(afp)
    assert idx.mu_nu_nodes == (0,)
    assert idx.size == 5 == afp.size

    # independent node count by traversal of the rendered parse tree
    def count(tree):
        return 1 + sum(count(c) for c in tree[2])

    assert count(afp.tree()) == 5


def test_rf_uniqueness_brute_force():
    """Exactly one binder on the root path qualifies as each label's rf."""
    for s in random_sentences(80, 21, 10, 2):
        idx = build_index(s)
        for nid in range(s.size):
            if s.kind[nid] != F.LABEL:
                continue
            # walk up via parents, collecting binder candidates
            candidates = []
            cur = s.parent[nid]
            blocked = False
            while cur is not None:
                if s.kind[cur] in F.BINDER_KINDS \
                        and s.name[cur] == s.name[nid]:
                    if not blocked:
                        candidates.append(cur)
                    blocked = True
                cur = s.parent[cur]
            assert len(candidates) == 1
            assert idx.rf[nid] == candidates[0]


def test_active_ancestors_are_binders_on_path():
    for s in random_sentences(40, 33, 10, 2):
        idx = build_index(s)
        for nid in range(s.size):
            anc = []
            cur = s.parent[nid]
            while cur is not None:
                if s.kind[cur] in F.BINDER_KINDS:
                    anc.append(cur)
                cur = s.parent[cur]
            assert idx.active_ancestors[nid] == tuple(reversed(anc))


def test_sentence_equality_and_subsentence(phi_star):
    assert phi_star == parse(render(phi_star))
    mu_y = [i for i in range(phi_star.size)
            if phi_star.kind[i] == F.MU][0]
    sub = phi_star.subsentence(mu_y)
    assert sub.kind[0] == F.MU
    assert F.free_labels(sub) == {"X"}
