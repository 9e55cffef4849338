"""``load_model`` against the whole-tree reader it replaced.

``load_model`` reads the top-level object one member at a time.  On any
text it must return the model that ``naive_load_model`` (one
``json.loads``, the shape checks, then ``KripkeModel``) returns, or raise
a ``ModelError`` with the same message, and it must hold much less
memory than ``json.loads`` does on a reduced-model export.
"""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucheck.formula import parse
from mucheck.kripke import ModelError, generate_family, load_model
from mucheck.reduction import build_position_model
from mucheck.semantics import OMEGA
from naive_oracles import naive_load_model

NAME = st.sampled_from(["a", "b", "c"])
SCALAR = (st.none() | st.booleans() | st.integers()
          | st.floats(allow_nan=False) | NAME | st.text(max_size=3))
JSON = st.recursive(SCALAR, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(NAME, inner, max_size=3),
                    max_leaves=6)
# Separators between tokens: none, spaces, tabs and CRLF line ends.
SPACE = st.sampled_from(["", " ", "\t", "\r\n", "\n  ", " \t\r\n"])

# A member value: well-shaped model data with some unknown or repeated
# names, or at times any JSON value.
STATES = st.lists(NAME, min_size=1, max_size=3)
EDGES = st.lists(st.lists(NAME | st.just("z"), min_size=2, max_size=2),
                 max_size=4)
VAL = st.dictionaries(NAME, st.lists(NAME | st.just("z"), max_size=3),
                      max_size=2)
VALUES = {"states": STATES, "edges": EDGES, "val": VAL}


@st.composite
def documents(draw):
    """Model file text: the members in any order, some repeated, at times
    one missing, extra members of every JSON type, any whitespace, and
    at times a trailing comma, another top-level value, text cut short
    or one character changed."""
    keys = ["states", "edges"] + draw(st.lists(st.sampled_from(
        ["val", "root", "backmap", "x", "states", "edges"]), max_size=4))
    keys = draw(st.permutations(keys))
    if draw(st.integers(0, 9)) == 9:
        keys.remove(draw(st.sampled_from(["states", "edges"])))
    space = draw(SPACE)
    sep_item = draw(SPACE) + "," + draw(SPACE)
    sep_key = draw(SPACE) + ":" + draw(SPACE)

    def value(key):
        odd = key not in VALUES or draw(st.integers(0, 7)) == 7
        return json.dumps(draw(JSON if odd else VALUES[key]),
                          separators=(sep_item, sep_key))

    items = [json.dumps(key) + sep_key + value(key) for key in keys]
    text = space + "{" + space + sep_item.join(items)
    if draw(st.integers(0, 19)) == 19:
        text += sep_item
    text += space + "}" + space
    kind = draw(st.sampled_from(["keep"] * 6 + ["other", "cut", "change"]))
    if kind == "other":
        text = json.dumps(draw(JSON | st.just({})))
    elif kind == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif kind == "change":
        i = draw(st.integers(0, len(text) - 1))
        text = (text[:i] + draw(st.sampled_from('{}[]":,0a \\\t'))
                + text[i + 1:])
    return text


def _same_outcome(text):
    """load_model returns the model the whole-tree reader returns, or
    raises the same message."""
    try:
        expected = naive_load_model(text)
    except ModelError as err:
        with pytest.raises(ModelError) as got:
            load_model(text)
        assert str(got.value) == str(err)
        return str(err)
    model = load_model(text)
    assert model == expected
    assert model.relation == expected.relation
    assert model.valuation == expected.valuation
    return None


@settings(max_examples=600)
@given(documents())
def test_load_model_equals_the_whole_tree_reader(text):
    _same_outcome(text)


@pytest.mark.parametrize("text,message", [
    # "states" repeated after "edges" were resolved through the first.
    ('{"states": ["a", "b"], "edges": [["a", "b"], ["b", "b"]], '
     '"states": ["c", "b", "a"]}', None),
    ('{"states": ["a", "b"], "edges": [["a", "b"]], "states": ["a"]}',
     "edge references unknown state 'b'"),
    ('{"states": ["a", "b"], "edges": [["a", "b"]], "states": [1]}',
     "'states' must be an array of strings"),
    ('{"states": ["a"], "edges": [["a", "b"]], "states": ["b", "a"]}', None),
    # "edges" before "states", and repeated.
    ('{"edges": [["b", "a"]], "val": {"p": ["b"]}, "states": ["a", "b"]}',
     None),
    ('{"edges": [["a", "a"]], "states": ["a"], "edges": [["a", "x"]]}',
     "edge references unknown state 'x'"),
    # A bad "states", then a syntax error in a member that is dropped:
    # the syntax error wins.
    ('{"states": 1, "edges": [], "backmap": {"x": [1,]}}', "invalid JSON"),
    ('{"states": ["a", "a"], "edges": [["z", "a"]], "root": tru}',
     "invalid JSON"),
    ('{"states": ["a"], "edges": []}  x', "invalid JSON"),
    ('{"states": ["a"], "edges": [],}', "invalid JSON"),
    ("{}", "model file is missing the 'states' key"),
    ('["a"]', "model file must contain a JSON object"),
    ("\ufeff{}", "invalid JSON"),
])
def test_load_model_explicit_documents(text, message):
    got = _same_outcome(text)
    if message is None:
        assert got is None
    else:
        assert got.startswith(message)


def _peak(fn, text):
    """Traced memory at the peak of ``fn(text)``, above what was held
    before the call."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    fn(text)
    return tracemalloc.get_traced_memory()[1] - before


def test_load_model_holds_less_than_the_json_tree():
    """On a reduced-model export (whose "backmap" member load_model
    drops) the reader's peak stays well below that of ``json.loads``
    alone: the whole-tree reader peaked at 1.34 times it here."""
    sent = parse("nu X. ([]X & mu Y. (p | <>Y))")
    text = build_position_model(generate_family("daggerN", 6), "w_0", sent,
                                OMEGA).json_text()
    tracemalloc.start()
    try:
        tree = _peak(json.loads, text)
        reader = _peak(load_model, text)
    finally:
        tracemalloc.stop()
    assert reader <= 0.85 * tree, (reader, tree)
