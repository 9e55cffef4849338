"""The full-map game's public positions carry every binder's slot.

``compare._FullMapGame`` keeps one clock slot per Mu/Nu node, and an
untouched slot holds the clock cap.  Its public codec speaks the same
slots, so play, status and strategy validation start from its own root.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucheck import formula as F
from mucheck.compare import _FullMapGame
from mucheck.corpus import random_model, random_sentence
from mucheck.game import Position


def test_initial_position_is_the_root(m1, afp):
    game = _FullMapGame(m1, "a", afp, 2, 10 ** 6)
    assert game.initial_position() == Position("a", 0, (2,))
    assert game._internal(game.initial_position()) == game._root(0)
    assert game.validate_strategy(*game.solve("exhaustive")) > 0


@settings(max_examples=100)
@given(st.integers(0, 2 ** 32), st.integers(1, 4))
def test_fullmap_codec_inverts(seed, cap):
    rng = random.Random(seed)
    model = random_model(rng, rng.randint(1, 3))
    sent = F.normalize(random_sentence(rng, 9, 3))
    game = _FullMapGame(model, model.states[0], sent, cap, 10 ** 6)
    slots = len(game.index.mu_nu_nodes)
    for _ in range(20):
        clocks = tuple(rng.randint(0, cap) for _ in range(slots))
        pos = Position(rng.choice(model.states), rng.randrange(sent.size),
                       clocks)
        assert game._public(game._internal(pos)) == pos
        for wrong in (clocks + (0,), tuple(v - cap - 1 for v in clocks),
                      tuple(v + cap + 1 for v in clocks)):
            if wrong != clocks:
                with pytest.raises(ValueError):
                    game._internal(pos._replace(clocks=wrong))


def test_fullmap_strategies_validate():
    rng = random.Random("full-map strategies")
    for _ in range(12):
        model = random_model(rng, rng.randint(1, 3))
        sent = F.normalize(random_sentence(rng, 9, 3))
        game = _FullMapGame(model, model.states[0], sent,
                            rng.randint(1, 3), 10 ** 6)
        assert game.validate_strategy(*game.solve("exhaustive")) > 0


def test_descriptions_name_each_slots_binder(m1):
    """Sibling binders: a position under the second one names its own
    slot, not the first binder's."""
    sent = F.parse("(mu X. (p | <>X)) & (nu Y. []Y)")
    game = _FullMapGame(m1, "a", sent, 2, 10 ** 6)
    _, y = game.index.mu_nu_nodes
    pos = Position("a", y + 1, (2, 1))
    assert game.clock_dict(pos) == {"Y": 1}
    assert game.describe_position(pos) == "(a, r.1.0, {Y=1})"
    assert game.position_json(pos)["clocks"] == {"Y": 1}
    assert game.clock_dict(pos._replace(clocks=(0, 2))) == {"X": 0}
