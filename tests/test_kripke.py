"""Kripke models: construction, JSON loading, validation, families."""

import gc
import json
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucheck.formula import parse
from mucheck.game import EvalGame
from mucheck.corpus import random_model
from mucheck.kripke import (KripkeModel, ModelError, _mask, generate_family,
                            load_model, save_model)
from mucheck.reduction import solve_ar
from mucheck.semantics import OMEGA, eval_standard
from naive_oracles import naive_generate_family


def test_load_model_basic():
    data = {"states": ["a", "b"], "edges": [["a", "b"], ["b", "b"]],
            "val": {"p": ["b"]}}
    m = load_model(json.dumps(data))
    assert m.states == ("a", "b")
    assert set(m.relation) == {("a", "b"), ("b", "b")}
    assert m.states_true("p") == frozenset({"b"})
    assert m.successors("a") == ("b",)
    assert m.card == 2


def test_load_model_dangling_edge():
    data = {"states": ["a"], "edges": [["a", "c"]], "val": {}}
    with pytest.raises(ModelError) as err:
        load_model(json.dumps(data))
    assert "c" in str(err.value)


def test_load_model_dangling_valuation():
    data = {"states": ["a"], "edges": [], "val": {"p": ["z"]}}
    with pytest.raises(ModelError):
        load_model(json.dumps(data))


def test_load_model_empty_states():
    with pytest.raises(ModelError):
        load_model('{"states": [], "edges": [], "val": {}}')


def test_load_model_bad_json_and_shapes():
    with pytest.raises(ModelError):
        load_model("{not json")
    with pytest.raises(ModelError):
        load_model('["a"]')
    with pytest.raises(ModelError):
        load_model('{"states": ["a"]}')
    with pytest.raises(ModelError):
        load_model('{"states": ["a"], "edges": [["a"]], "val": {}}')
    with pytest.raises(ModelError):
        load_model('{"states": [1], "edges": [], "val": {}}')


@pytest.mark.parametrize("text,message", [
    ('["a"]', "model file must contain a JSON object"),
    ('{"states": ["a"]}', "model file is missing the 'edges' key"),
    ('{"edges": []}', "model file is missing the 'states' key"),
    ('{"states": [1], "edges": []}', "'states' must be an array of strings"),
    ('{"states": "a", "edges": []}', "'states' must be an array of strings"),
    ('{"states": ["a"], "edges": {}}', "'edges' must be an array"),
    ('{"states": ["a"], "edges": [["a"]]}',
     "every edge must be a 2-array of state names"),
    ('{"states": ["a"], "edges": [["a", "a", "a"]]}',
     "every edge must be a 2-array of state names"),
    ('{"states": ["a"], "edges": [["a", 1]]}',
     "every edge must be a 2-array of state names"),
    ('{"states": ["a"], "edges": ["aa"]}',
     "every edge must be a 2-array of state names"),
    ('{"states": ["a"], "edges": [], "val": []}', "'val' must be an object"),
    ('{"states": ["a"], "edges": [], "val": {"p": "a"}}',
     "valuation of 'p' must be an array of states"),
    ('{"states": ["a"], "edges": [], "val": {"p": [null]}}',
     "valuation of 'p' must be an array of states"),
    ('{"states": [], "edges": []}', "a Kripke model needs at least one state"),
    ('{"states": ["a", "b", "a"], "edges": []}',
     "duplicate state identifiers"),
    ('{"states": ["a"], "edges": [["a", "a"], ["c", "a"]]}',
     "edge references unknown state 'c'"),
    ('{"states": ["a"], "edges": [["a", "d"]]}',
     "edge references unknown state 'd'"),
    ('{"states": ["a"], "edges": [["c", "d"]]}',
     "edge references unknown state 'c'"),
    ('{"states": ["a"], "edges": [], "val": {"p": ["a", "z"]}}',
     "valuation of 'p' references unknown state 'z'"),
    # Every shape is checked before any name is resolved.
    ('{"states": ["a"], "edges": [["c", "a"], ["a"]]}',
     "every edge must be a 2-array of state names"),
    ('{"states": ["a"], "edges": [["c", "a"]], "val": {"p": 1}}',
     "valuation of 'p' must be an array of states"),
    ('{"states": ["a", "a"], "edges": [["c", "a"]], "val": {"p": ["z"]}}',
     "duplicate state identifiers"),
    ('{"states": ["a"], "edges": [["c", "a"]], "val": {"p": ["z"]}}',
     "edge references unknown state 'c'"),
])
def test_load_model_error_messages(text, message):
    with pytest.raises(ModelError) as err:
        load_model(text)
    assert str(err.value) == message


# Every message load_model documents for a model file object that holds
# "states", "edges" and "val".
MESSAGES = re.compile("|".join([
    "'states' must be an array of strings",
    "'edges' must be an array",
    "every edge must be a 2-array of state names",
    "'val' must be an object",
    "valuation of .* must be an array of states",
    "a Kripke model needs at least one state",
    "duplicate state identifiers",
    "edge references unknown state .*",
    "valuation of .* references unknown state .*",
]), re.DOTALL)

NAME = st.sampled_from(["a", "b", "c"])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | NAME | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(NAME, inner, max_size=3), max_leaves=8)


@st.composite
def model_files(draw):
    """The "states", "edges" and "val" of a model file.  At most one of
    them is an arbitrary JSON value or a wrongly shaped array; the others
    hold names, some unknown or repeated, so that many files are models."""
    bad = draw(st.sampled_from([None, None, "states", "edges", "val"]))
    states = draw(JSON if bad == "states" else
                  st.lists(NAME, min_size=1, max_size=3))
    known = states if type(states) is list and states else ["a"]
    name = st.sampled_from(known) | st.sampled_from(known + ["z"])
    edges = draw(st.lists(st.lists(name, min_size=2, max_size=2),
                          max_size=6) if bad != "edges" else
                 JSON | st.lists(st.lists(name, max_size=3), max_size=3))
    val = draw(JSON if bad == "val" else st.dictionaries(
        st.text(max_size=2), st.lists(name, max_size=4), max_size=3))
    return states, edges, val


@settings(max_examples=400)
@given(model_files())
def test_malformed_model_files_fail_with_a_documented_message(drawn):
    states, edges, val = drawn
    try:
        model = load_model(json.dumps({"states": states, "edges": edges,
                                       "val": val}))
    except ModelError as err:
        assert MESSAGES.fullmatch(str(err)), str(err)
    else:
        ref = KripkeModel(states, edges, val)
        assert model == ref
        assert model.relation == ref.relation


def test_load_model_invalid_json_message():
    with pytest.raises(ModelError) as err:
        load_model(b"{not json")
    assert str(err.value).startswith("invalid JSON: Expecting property name")


def test_duplicate_edges_keep_their_first_seen_order():
    data = {"states": ["a", "b", "c"],
            "edges": [["b", "c"], ["a", "b"], ["b", "c"], ["c", "a"],
                      ["a", "b"], ["b", "a"]],
            "val": {"p": ["c", "a", "c"]}}
    m = load_model(json.dumps(data))
    assert m.relation == (("b", "c"), ("a", "b"), ("c", "a"), ("b", "a"))
    assert m._succ == ((1,), (0, 2), (0,))
    assert m.states_true("p") == frozenset({"a", "c"})
    assert m._val_mask == {"p": 0b101}
    assert m.to_json_dict()["val"] == {"p": ["a", "c"]}


def test_load_model_deeply_nested_json_is_a_model_error():
    with pytest.raises(ModelError):
        load_model("[" * 200_000)


def test_load_model_ignores_extra_keys():
    data = {"states": ["a"], "edges": [], "val": {},
            "root": "a", "backmap": {}}
    assert load_model(json.dumps(data)).card == 1


def test_duplicate_state_rejected():
    with pytest.raises(ModelError):
        KripkeModel(["a", "a"], [], {})


def test_roundtrip_save_load(tmp_path, m1):
    path = tmp_path / "m.json"
    save_model(m1, path)
    again = load_model(path.read_bytes())
    assert again == m1


def test_star2_family():
    m = generate_family("starN", 2)
    assert m.states == ("w_0", "w_1", "w_2")
    assert set(m.relation) == {("w_0", "w_1"), ("w_0", "w_2"),
                               ("w_1", "w_0"), ("w_2", "w_1")}
    assert m.states_true("p") == frozenset({"w_0"})


def test_dagger2_family():
    m = generate_family("daggerN", 2)
    star = generate_family("starN", 2)
    assert set(m.relation) == set(star.relation)
    assert m.states_true("p") == frozenset({"w_1"})


def test_chain_family():
    m = generate_family("chain", 1)
    assert m.states == ("w_0", "w_1")
    assert set(m.relation) == {("w_0", "w_1")}
    assert m.states_true("p") == frozenset({"w_1"})


def test_clique_family():
    m = generate_family("clique", 1)
    assert len(m.relation) == 4  # complete with self-loops on 2 states


def test_ar_grid_family():
    m = generate_family("ar-grid", 2)
    assert set(m.valuation) == {"p_B", "q_B"}
    assert m.states_true("p_B") == frozenset({"g1_1"})


def test_family_errors():
    with pytest.raises(ModelError):
        generate_family("starN", 0)
    with pytest.raises(ModelError):
        generate_family("unknown", 2)


def test_family_size_limit_is_met_exactly_at_the_limit(monkeypatch):
    """The closed-form count of states plus edges that generate_family
    checks before it builds a model is that model's real count: with the
    limit set to the count of a family's third member, the third member
    is built and the fourth refused, and one below it refuses the
    third."""
    from mucheck import kripke
    models = {fam: generate_family(fam, 3) for fam in kripke.FAMILIES}
    for fam, model in models.items():
        size = model.card + len(model.relation)
        monkeypatch.setattr(kripke, "FAMILY_MAX_SIZE", size)
        assert generate_family(fam, 3) == model
        with pytest.raises(ModelError, match="states plus edges"):
            generate_family(fam, 4)
        monkeypatch.setattr(kripke, "FAMILY_MAX_SIZE", size - 1)
        with pytest.raises(ModelError, match="states plus edges"):
            generate_family(fam, 3)


@pytest.mark.parametrize("fam", ["starN", "daggerN", "chain", "clique",
                                 "ar-grid"])
def test_families_equal_the_name_built_families(fam):
    """generate_family builds each family from successor rows and
    valuation masks; the model is the one built from name pairs."""
    for n in range(1, 7):
        model, ref = generate_family(fam, n), naive_generate_family(fam, n)
        assert model == ref
        assert model.relation == ref.relation
        assert model.valuation == ref.valuation
        assert model.json_text() == ref.json_text()


def test_family_determinism():
    for fam in ("starN", "daggerN", "chain", "clique", "ar-grid"):
        assert generate_family(fam, 3) == generate_family(fam, 3)


def test_successor_order_is_state_order():
    m = KripkeModel(["b", "a"], [("b", "a"), ("b", "b")], {})
    # declaration order rules, so successors of b list b first
    assert m.successors("b") == ("b", "a")


def test_game_paths_leave_the_semantic_masks_unbuilt():
    grid = load_model(json.dumps(generate_family("ar-grid", 4).to_json_dict()))
    solve_ar(grid, "g0_0")
    assert grid._masks is None
    star = generate_family("starN", 4)
    EvalGame(star, "w_0", parse("nu X. [] mu Y. (<>Y | (p & X))"),
             OMEGA).solve()
    assert star._masks is None


def test_semantic_masks_are_built_once_and_correct():
    m = generate_family("daggerN", 5)
    sent = parse("mu X. (p | []X)")
    first = eval_standard(m, sent)
    masks = m.succ_pred_masks()
    assert eval_standard(m, sent) == first
    assert m.succ_pred_masks() is masks
    succ, pred, live = masks
    for i, lst in enumerate(m._succ):
        assert succ[i] == sum(1 << v for v in lst)
        assert pred[i] == sum(1 << u for u, row in enumerate(m._succ)
                              if i in row)
        assert (live >> i & 1) == bool(lst)


def test_model_pickles_before_and_after_its_masks_are_built():
    m = generate_family("clique", 3)
    sent = parse("nu X. ([]X & mu Y. (p | <>Y))")
    fresh = pickle.loads(pickle.dumps(m))
    assert fresh == m and fresh._masks is None
    assert eval_standard(fresh, sent) == eval_standard(m, sent)
    assert m._masks is not None
    built = pickle.loads(pickle.dumps(m))
    assert built == m and built._masks is not None
    assert built.succ_pred_masks() == m.succ_pred_masks()
    assert eval_standard(built, sent) == eval_standard(m, sent)


def test_mask_sets_one_bit_per_distinct_id():
    rng = random.Random(19)
    assert _mask([], 0) == 0
    for _ in range(300):
        n = rng.randint(1, 200)
        ids = [rng.randrange(n) for _ in range(rng.randint(0, 2 * n))]
        assert _mask(ids, n) == sum(1 << i for i in set(ids))
        assert _mask(iter(ids), n) == _mask(ids, n)


def test_state_masks_round_trip_on_random_models():
    rng = random.Random(23)
    for _ in range(60):
        model = random_model(rng, rng.randint(1, 40))
        for _ in range(5):
            ws = rng.sample(model.states, rng.randint(0, model.card))
            ws += rng.choices(model.states, k=rng.randint(0, 3))  # repeats
            mask = model.states_to_mask(ws)
            assert mask == sum(1 << model.state_index(w) for w in set(ws))
            assert model.mask_to_states(mask) == frozenset(ws)
        for p, ws in model.valuation.items():
            assert model.states_to_mask(ws) == model._val_mask[p]
    with pytest.raises(ModelError):
        model.states_to_mask(["nowhere"])


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_load_model_restores_the_collector_state(enabled):
    good = json.dumps(generate_family("chain", 3).to_json_dict())
    bad = ['{"states": ["a"], "edges": [["a", "b"]]}', "{not json"]
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert load_model(good) == generate_family("chain", 3)
        assert gc.isenabled() is enabled
        for text in bad:
            with pytest.raises(ModelError):
                load_model(text)
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
