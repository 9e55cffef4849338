"""AR solving, chi, and the position-model transformations."""

import json
import random

import pytest

from mucheck import cli
from mucheck import formula as F
from mucheck.corpus import (AR_PROPS, all_models, all_sentences,
                            random_model, random_sentences)
from mucheck.formula import dual, parse, render
from mucheck.game import ELOISE, EvalGame, GameLimitError
from mucheck.kripke import KripkeModel, generate_family, load_model, save_model
from mucheck.reduction import (P_B, Q_B, VocabularyError,
                               _position_valuation, ar_winning_set,
                               build_position_model, chi, reduce_mc,
                               solve_ar)
from mucheck.semantics import OMEGA, eval_standard


def test_chi_round_trip():
    c = chi()
    assert F.parse(render(c)) == c
    assert c.size == 12
    assert chi() is chi()  # built once


def test_chi_defines_ar_on_two_state_models():
    for m in all_models(2, AR_PROPS):
        assert ar_winning_set(m) == eval_standard(m, chi())


def _random_ar_model(rng, n):
    """A seeded AR model on ``n`` named states with out-degree 0 to 3 and
    sparse p_B: random but deep enough that the attractor and chi's
    fixpoint take many rounds.  Valuation lists repeat some states."""
    states = [f"s{i}" for i in range(n)]
    edges = [(w, rng.choice(states)) for w in states
             for _ in range(rng.choice((0, 1, 1, 2, 2, 3)))]
    p_b = rng.choices(states, k=rng.randint(0, n // 20))
    q_b = rng.choices(states, k=rng.randint(0, n))
    return KripkeModel(states, edges, {P_B: p_b, Q_B: q_b})


def test_chi_defines_ar_on_larger_random_models():
    rng = random.Random(19)
    for _ in range(30):
        m = _random_ar_model(rng, rng.randint(50, 300))
        assert ar_winning_set(m) == eval_standard(m, chi())


def test_dual_chi_complements_winning_set():
    for m in list(all_models(2, AR_PROPS))[::3]:
        full = frozenset(m.states)
        assert eval_standard(m, dual(chi())) == full - ar_winning_set(m)


def test_solve_ar_micro_examples():
    m = KripkeModel(["s0", "s1"], [("s0", "s1")],
                    {"p_B": ["s1"], "q_B": ["s0"]})
    assert solve_ar(m, "s0") is True
    loop = KripkeModel(["s0"], [("s0", "s0")], {"p_B": [], "q_B": []})
    assert solve_ar(loop, "s0") is False
    dead = KripkeModel(["s0"], [], {"p_B": [], "q_B": []})
    assert solve_ar(dead, "s0") is True
    assert "s0" in eval_standard(dead, chi())


def test_solve_ar_vocabulary_violation(m1):
    with pytest.raises(VocabularyError):
        solve_ar(m1, "a")


def test_reduce_literal_examples(m1):
    reduced = build_position_model(m1, "a", parse("p"), 1)
    assert reduced.positions == 1
    m = reduced.model
    assert m.states_true("p_B") == frozenset()
    assert m.states_true("q_B") == frozenset({reduced.root})
    assert solve_ar(m, reduced.root) is False

    reduced = build_position_model(m1, "b", parse("p"), 1)
    assert reduced.model.states_true("p_B") == {reduced.root}
    assert solve_ar(reduced.model, reduced.root) is True


def test_reduce_afp_matches_game(m1, afp):
    reduced = build_position_model(m1, "a", afp, 2)
    assert solve_ar(reduced.model, reduced.root) is True
    winner, _ = EvalGame(m1, "a", afp, 2).solve()
    assert winner == ELOISE
    reduced1 = build_position_model(m1, "a", afp, 1)
    assert solve_ar(reduced1.model, reduced1.root) is False


def test_reduce_mc_examples(m1, afp, phi_star):
    reduced = reduce_mc(m1, "a", afp)
    assert solve_ar(reduced.model, reduced.root) is True
    reduced = reduce_mc(m1, "a", parse("mu X. X"))
    assert solve_ar(reduced.model, reduced.root) is False
    star3 = generate_family("starN", 3)
    reduced = reduce_mc(star3, "w_0", phi_star)
    assert solve_ar(reduced.model, reduced.root) \
        == ("w_0" in eval_standard(star3, phi_star))


def test_reduction_sweep_small():
    rng = random.Random(71)
    corpus = [s for s in all_sentences(4, 1)][::9] \
        + random_sentences(8, 14, 7, 2)
    for _ in range(6):
        m = random_model(rng, rng.randint(1, 2))
        for s in corpus:
            std = eval_standard(m, s)
            for w in m.states:
                for gamma in (1, 2, OMEGA):
                    red = build_position_model(m, w, s, gamma)
                    winner, _ = EvalGame(m, w, s, gamma).solve()
                    assert solve_ar(red.model, red.root) \
                        == (winner == ELOISE)
                red = reduce_mc(m, w, s)
                assert solve_ar(red.model, red.root) == (w in std)


def test_reduced_model_export_loadable(m1, afp, tmp_path):
    reduced = build_position_model(m1, "a", afp, 2)
    path = tmp_path / "red.json"
    reduced.save(path)
    data = json.loads(path.read_text())
    assert set(data) == {"states", "edges", "val", "root", "backmap"}
    again = load_model(path.read_bytes())
    assert set(again.valuation) == {"p_B", "q_B"}
    assert solve_ar(again, data["root"]) is True
    # back-map points each exported state at its game position
    entry = data["backmap"][data["root"]]
    assert entry["state"] == "a" and entry["node"] == "r"
    assert entry["clocks"] == {}


def test_reduced_names_are_stable(m1, afp):
    a = build_position_model(m1, "a", afp, 2)
    b = build_position_model(m1, "a", afp, 2)
    assert a.model == b.model and a.root == b.root
    assert a.root == "a|r|"


def test_reduced_graph_acyclic(m1, afp):
    reduced = build_position_model(m1, "a", afp, 3)
    index = {w: i for i, w in enumerate(reduced.model.states)}
    # DFS cycle check over the exported edges
    succ = {w: [] for w in reduced.model.states}
    for src, dst in reduced.model.relation:
        succ[src].append(dst)
    state = {}

    def visit(w):
        state[w] = "grey"
        for v in succ[w]:
            if state.get(v) == "grey":
                raise AssertionError("cycle in reduced model")
            if v not in state:
                visit(v)
        state[w] = "black"

    visit(reduced.root)
    assert index is not None


def test_tree_mode_unfolds(m1, afp):
    dag = build_position_model(m1, "a", afp, 2)
    tree = build_position_model(m1, "a", afp, 2, tree=True)
    assert tree.root == "t"
    assert tree.positions >= dag.positions
    in_deg = {}
    for _src, dst in tree.model.relation:
        in_deg[dst] = in_deg.get(dst, 0) + 1
    assert all(v == 1 for v in in_deg.values())  # a tree
    assert solve_ar(tree.model, tree.root) == solve_ar(dag.model, dag.root)


def test_tree_mode_respects_cap(m1, phi_star):
    with pytest.raises(GameLimitError):
        build_position_model(m1, "a", phi_star, 3, tree=True,
                             max_positions=40)


def test_ar_grid_family_solves():
    m = generate_family("ar-grid", 3)
    want = ar_winning_set(m)
    assert want == eval_standard(m, chi())


def _by_names(model, state, sentence, bound, tree):
    """The export as built through state names: ``KripkeModel(names,
    edges, val)`` over the explored graph, and the eager back-map dict."""
    game = EvalGame(model, state, sentence, bound)
    graph = game._explore([state])
    p_flags, q_flags = _position_valuation(game, graph)
    paths = game.index.node_path
    if tree:
        names, tree_pos, edges = [], [], []
        stack = [(0, "t")]
        while stack:
            i, name = stack.pop()
            names.append(name)
            tree_pos.append(i)
            for k, j in enumerate(graph.succs[i]):
                edges.append((name, f"{name}.{k}"))
                stack.append((j, f"{name}.{k}"))
    else:
        names = [f"{pos.state}|{paths[pos.node]}|"
                 + ",".join(map(str, pos.clocks))
                 for pos in map(game._public, graph.pos_list)]
        tree_pos = range(len(names))
        edges = [(names[i], names[j])
                 for i, row in enumerate(graph.succs) for j in row]
    val = {P_B: [nm for nm, i in zip(names, tree_pos) if p_flags[i]],
           Q_B: [nm for nm, i in zip(names, tree_pos) if q_flags[i]]}
    backmap = {}
    for nm, i in zip(names, tree_pos):
        pos = game._public(graph.pos_list[i])
        backmap[nm] = {
            "state": pos.state, "node": paths[pos.node],
            "clocks": {game.sentence.name[b]: v for b, v in
                       zip(game.index.active_ancestors[pos.node],
                           pos.clocks)}}
    return KripkeModel(names, edges, val), names[0], backmap


def _reduction_instances():
    m1 = KripkeModel(["a", "b"], [("a", "b"), ("b", "b")], {"p": ["b"]})
    afp = parse("mu X. (p | []X)")
    phi_star = parse("nu X. [] mu Y. (<>Y | (p & X))")
    yield m1, "a", parse("p"), 1
    yield m1, "b", parse("p"), 1
    for bound in (1, 2, 3):
        yield m1, "a", afp, bound
    yield m1, "a", parse("mu X. X"), 2
    yield generate_family("starN", 3), "w_0", phi_star, 4
    yield generate_family("ar-grid", 3), "g0_0", chi(), OMEGA
    rng = random.Random(71)
    corpus = all_sentences(4, 1)[::9] + random_sentences(8, 14, 7, 2)
    for _ in range(3):
        m = random_model(rng, rng.randint(1, 2))
        for s in corpus[::3]:
            yield m, m.states[-1], s, OMEGA


@pytest.mark.parametrize("tree", [False, True], ids=["dag", "tree"])
def test_integer_row_build_equals_the_build_by_names(tree):
    count = 0
    for model, state, sentence, bound in _reduction_instances():
        try:
            reduced = build_position_model(model, state, sentence, bound,
                                           tree=tree, max_positions=5000)
        except GameLimitError:
            assert tree  # only unfolded trees outgrow the cap
            continue
        ref, root, backmap = _by_names(model, state, sentence, bound, tree)
        got = reduced.model
        assert got == ref and reduced.root == root
        assert got.states == ref.states
        assert got.relation == ref.relation  # first-seen order
        assert got.valuation == ref.valuation
        assert got._index == ref._index
        assert got._succ == ref._succ
        assert got._val_mask == ref._val_mask
        assert got._full_mask == ref._full_mask
        assert got._masks is None
        assert reduced._backmap is None  # built only when read
        assert reduced.backmap == backmap
        assert reduced.backmap is reduced.backmap
        count += 1
    assert count > 90


def test_reduce_cli_builds_no_export_model(m1, afp, tmp_path, capsys,
                                          monkeypatch):
    path = tmp_path / "m1.json"
    save_model(m1, path)
    calls = []
    eager = KripkeModel._from_rows.__func__

    def counting(cls, *args):
        calls.append(args)
        return eager(cls, *args)

    monkeypatch.setattr(KripkeModel, "_from_rows", classmethod(counting))
    code = cli.main(["reduce", "--model", str(path), "--formula",
                     "mu X. (p | []X)", "--state", "a", "--gamma", "auto",
                     "--out", "-"])
    out = capsys.readouterr()
    assert code == 0 and calls == []
    assert load_model(out.out) == reduce_mc(m1, "a", afp).model
    assert len(calls) == 1  # the spy sees the build on first read


@pytest.mark.parametrize("tree", [False, True], ids=["dag", "tree"])
def test_export_model_is_built_on_first_read(tree):
    star = generate_family("starN", 3)
    phi_star = parse("nu X. [] mu Y. (<>Y | (p & X))")
    reduced = build_position_model(star, "w_0", phi_star, 3, tree=tree)
    assert reduced._model is None
    names, rows, val = reduced._names, reduced._rows, reduced._val_mask
    positions, root = reduced.positions, reduced.root
    text = reduced.json_text()
    assert reduced._model is None  # writing the file builds no model
    model = reduced.model
    assert model is reduced.model
    eager = KripkeModel._from_rows(names, rows, val)
    assert model == eager
    assert model.relation == eager.relation
    assert model._val_mask == eager._val_mask
    assert model._index == eager._index
    assert (reduced.positions, reduced.root) == (positions, root)
    assert positions == model.card and root == model.states[0]
    assert reduced.json_text() == text
    assert load_model(text) == model
