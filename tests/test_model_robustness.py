"""``load_model`` on oversized and odd model JSON.

Whatever the document holds (thousands of states, long and non-ASCII
names, repeated edges, unknown top-level keys, values nested far past
the parser's recursion limit, integers past Python's digit limit, text
that is not UTF-8), ``load_model`` returns a model or raises
``ModelError``, never any other exception.  When it returns a model,
that model has exactly the drawn states and each drawn edge once.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from mucheck.kripke import ModelError, load_model

# Every code point, surrogates included.
LONG_NAMES = st.text(st.characters(exclude_categories=()), min_size=100,
                     max_size=1000)


def _deep(rng, depth):
    """A JSON value nested ``depth`` levels deep, as text."""
    if rng.random() < 0.5:
        return "[" * depth + '"a"' + "]" * depth
    return '{"k": ' * depth + "1" + "}" * depth


@st.composite
def odd_documents(draw):
    """A model document as text or bytes, plus the states and edges it
    names, or None for a document that has no model to return."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    ascii_only = draw(st.booleans())

    def dumps(value):
        return json.dumps(value, ensure_ascii=ascii_only)

    n = draw(st.sampled_from((1, 2, 50, 2000, 6000)))
    states = [f"s{i}" for i in range(n)]
    states += draw(st.lists(LONG_NAMES, max_size=3, unique=True))
    states += ["été → \U0001f600", "\u0000\n\"\\"]
    odd = draw(st.sets(st.sampled_from(
        ("extra-keys", "deep-val", "deep-extra", "huge-int", "surrogate",
         "duplicate-state", "unknown-state", "bad-edge")), max_size=3))
    if "surrogate" in odd:
        states.append("lone \udc80")
    rng.shuffle(states)
    edges = [[rng.choice(states), rng.choice(states)]
             for _ in range(rng.randrange(3 * n + 1))]
    edges += edges[:rng.randrange(len(edges) + 1)]  # repeated edges
    rng.shuffle(edges)
    val = {f"p{k}": rng.sample(states, rng.randrange(min(len(states), 40)))
           for k in range(rng.randrange(4))}
    members = {"states": dumps(states), "edges": dumps(edges),
               "val": dumps(val)}
    valid = True
    if "extra-keys" in odd:
        for k in range(rng.randrange(1, 4)):
            members[f"x{k}ü"] = dumps(
                rng.choice([None, 1.5e308, "x" * 10_000, [[]] * 100,
                            {"states": []}]))
    if "deep-val" in odd:
        members["val"] = dumps(val)[:-1] + (", " if val else "") \
            + '"deep": ' + _deep(rng, draw(st.sampled_from(
                (2, 900, 5000, 200_000)))) + "}"
        valid = False
    if "deep-extra" in odd:
        depth = draw(st.sampled_from((2, 200_000)))
        members["deep"] = _deep(rng, depth)
        valid = valid and depth == 2
    if "huge-int" in odd:
        members["count"] = "9" * rng.choice((4000, 4301, 50_000))
        valid = valid and len(members["count"]) <= 4300
    if "duplicate-state" in odd:
        members["states"] = dumps(states + [rng.choice(states)])
        valid = False
    if "unknown-state" in odd:
        members["edges"] = dumps(edges + [[states[0], "nowhere"]])
        valid = False
    if "bad-edge" in odd:
        members["edges"] = dumps(
            edges + [rng.choice([[states[0]], [states[0]] * 3, [1, 2],
                                 states[0]])])
        valid = False
    items = list(members.items())
    rng.shuffle(items)
    text = "{" + ", ".join(f"{dumps(k)}: {v}" for k, v in items) + "}"
    if ascii_only or draw(st.booleans()):
        data = text
    else:
        # Lone surrogates in names cannot be UTF-8.
        data = text.encode("utf-8", "surrogatepass")
        valid = valid and data == text.encode("utf-8", "replace")
    return data, (states, edges) if valid else None


@settings(max_examples=60)
@given(odd_documents())
def test_load_model_returns_a_model_or_raises_model_error(document):
    data, expected = document
    try:
        model = load_model(data)
    except ModelError:
        assert expected is None
        return
    assert expected is not None
    states, edges = expected
    assert model.states == tuple(states)
    assert model.relation == tuple(dict.fromkeys(map(tuple, edges)))
