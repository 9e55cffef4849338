"""Model files are written without ``json.dumps(..., indent=2)``.

``KripkeModel.json_text`` and ``ReducedModel.json_text`` lay the file out
themselves, so their text is compared here with what ``json.dumps`` makes
of a dict built from the drawn names, or of ``to_json_dict()`` for
reduced models: on arbitrary text names (quotes, backslashes, control
characters, non-ASCII text, lone surrogates), on empty edge lists and
valuations, and on the exports of random small instances, DAG and tree.
"""

import json
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mucheck import kripke
from mucheck.corpus import random_model, random_sentences
from mucheck.formula import parse
from mucheck.game import GameLimitError
from mucheck.kripke import (KripkeModel, generate_family, load_model,
                            save_model)
from mucheck.reduction import build_position_model, reduce_mc
from mucheck.semantics import OMEGA

# Every code point, surrogates included: ``json.dumps`` escapes them all.
NAMES = st.text(st.characters(exclude_categories=()), max_size=6)


def dumps(model):
    return json.dumps(model.to_json_dict(), indent=2) + "\n"


@st.composite
def drawn_models(draw):
    """States, edges and valuation by name, as ``KripkeModel`` takes them."""
    states = draw(st.lists(NAMES, min_size=1, max_size=8, unique=True))
    n = len(states)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=20))
    val = draw(st.dictionaries(
        NAMES, st.lists(st.integers(0, n - 1), max_size=2 * n), max_size=4))
    return (states, [(states[i], states[j]) for i, j in pairs],
            {p: [states[i] for i in ids] for p, ids in val.items()})


@settings(max_examples=300)
@given(drawn_models())
def test_model_text_is_json_dumps(drawn):
    """The file is that of a dict built here from the drawn names: each
    edge once, where it first appears, and each proposition's states
    once, in state order."""
    states, edges, val = drawn
    model = KripkeModel(states, edges, val)
    relation = tuple(dict.fromkeys(edges))
    expected = {"states": states, "edges": [list(e) for e in relation],
                "val": {p: sorted(set(ws), key=states.index)
                        for p, ws in sorted(val.items())}}
    text = model.json_text()
    assert text == json.dumps(expected, indent=2) + "\n"
    assert model.to_json_dict() == expected
    assert model.relation == relation
    assert model.valuation == {p: frozenset(ws) for p, ws in val.items()}
    again = load_model(text)
    assert again == model
    assert again.relation == model.relation
    assert again._val_mask == model._val_mask


def test_save_model_writes_the_model_text(tmp_path):
    model = KripkeModel(["a", "é\"\\\n", "c"],
                        [("a", "c"), ("c", "a"), ("a", "c")],
                        {"q": [], "p": ["c", "a"]})
    save_model(model, tmp_path / "m.json")
    assert (tmp_path / "m.json").read_bytes() == dumps(model).encode()


@st.composite
def instances(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    model = random_model(rng, draw(st.integers(1, 3)))
    sent = random_sentences(1, draw(st.integers(0, 10 ** 6)), 7, 2)[0]
    state = draw(st.sampled_from(model.states))
    bound = draw(st.sampled_from((1, 2, 3, OMEGA, "auto")))
    return model, state, sent, bound, draw(st.booleans())


@settings(max_examples=200)
@given(instances())
def test_reduced_model_text_is_json_dumps(instance):
    model, state, sent, bound, tree = instance
    try:
        if bound == "auto":
            reduced = reduce_mc(model, state, sent, tree=tree,
                                max_positions=3000)
        else:
            reduced = build_position_model(model, state, sent, bound,
                                           tree=tree, max_positions=3000)
    except GameLimitError:
        assume(False)
    text = reduced.json_text()
    assert text == dumps(reduced)
    assert load_model(text) == reduced.model


def test_reduced_model_save_writes_its_text(tmp_path, m1, phi_star):
    reduced = build_position_model(m1, "a", phi_star, 2)
    reduced.save(tmp_path / "r.json")
    assert (tmp_path / "r.json").read_bytes() == dumps(reduced).encode()


@pytest.mark.parametrize("size", [1, 2, 3])
def test_files_written_in_slices_are_json_dumps(tmp_path, monkeypatch,
                                                size):
    """A member is written in chunks of ``kripke._SLICE`` items.  With
    chunks of one, two and three items, so that the states, edges,
    valuation and back-map members all break between chunks and in
    every phase, the file is still ``json.dumps`` of the dict."""
    monkeypatch.setattr(kripke, "_SLICE", size)
    model = KripkeModel(["a", "b", "c", "d"],
                        [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"),
                         ("d", "d"), ("b", "a"), ("c", "d")],
                        {"q": [], "p": ["c", "a", "d"], "r": ["b"]})
    phi_star = parse("nu X. [] mu Y. (<>Y | (p & X))")
    exports = [model,
               build_position_model(generate_family("starN", 3), "w_0",
                                    phi_star, OMEGA),
               build_position_model(generate_family("daggerN", 3), "w_0",
                                    phi_star, 2, tree=True),
               reduce_mc(generate_family("daggerN", 2), "w_0", phi_star)]
    for k, exported in enumerate(exports):
        expected = dumps(exported)
        assert exported.json_text() == expected
        save_model(exported, tmp_path / f"{k}.json")
        assert (tmp_path / f"{k}.json").read_bytes() == expected.encode()


def test_export_writer_peak_stays_under_its_text():
    """The writer holds one slice of each member, not its whole values:
    writing the daggerN(12) nu-mu omega export to a sink that drops every
    chunk peaks, traced, below the length of the text it writes."""
    reduced = build_position_model(generate_family("daggerN", 12), "w_0",
                                   parse("nu X. ([]X & mu Y. (p | <>Y))"),
                                   OMEGA)
    length = len(reduced.json_text())
    tracemalloc.start()
    try:
        for _ in kripke._json_document(reduced._json_members()):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < length
