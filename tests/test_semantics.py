"""Compositional engines against hand-rolled fixpoint iteration oracles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucheck import compare, semantics
from mucheck import formula as F
from mucheck.corpus import (all_models, all_sentences, random_model,
                            random_sentences)
from mucheck.formula import dual, parse
from mucheck.kripke import KripkeModel
from mucheck.semantics import (OMEGA, BoundError, UnboundLabelError,
                               approximant, eval_bounded, eval_standard,
                               parse_bound)


def brute_afp_states(model):
    """Independent oracle for mu X.(p | []X): iterate from the empty set."""
    current = set()
    while True:
        nxt = set(model.states_true("p"))
        for w in model.states:
            if all(v in current for v in model.successors(w)):
                nxt.add(w)
        if nxt == current:
            return current
        current = nxt


def test_eval_standard_afp(m1, afp):
    assert eval_standard(m1, afp) == frozenset({"a", "b"})
    assert eval_standard(m1, afp) == brute_afp_states(m1)


def test_eval_standard_afp_oracle_on_random_models():
    import random
    rng = random.Random(3)
    afp = parse("mu X. (p | []X)")
    from mucheck.corpus import random_model
    for _ in range(60):
        m = random_model(rng, rng.randint(1, 4))
        assert eval_standard(m, afp) == brute_afp_states(m)


def test_eval_standard_atomic(m1):
    assert eval_standard(m1, parse("p")) == frozenset({"b"})


def test_eval_standard_mu_identity(m1):
    assert eval_standard(m1, parse("mu X. X")) == frozenset()


def test_eval_standard_nu_diamond(m1):
    # gfp iteration from {a, b} is already stable: both states have a
    # successor inside the set
    assert eval_standard(m1, parse("nu X. <>X")) == frozenset({"a", "b"})


def test_eval_standard_open_formula(m1):
    s = parse("X", allow_free=True)
    assert eval_standard(m1, s, assignment={"X": {"a"}}) == frozenset({"a"})
    with pytest.raises(UnboundLabelError):
        eval_standard(m1, s)


def test_approximant_steps(m1, afp):
    binder = 0
    assert approximant(m1, afp, binder, 2, 0) == frozenset()
    assert approximant(m1, afp, binder, 2, 1) == frozenset({"b"})
    assert approximant(m1, afp, binder, 2, 2) == frozenset({"a", "b"})
    nu_s = parse("nu X. <>X")
    assert approximant(m1, nu_s, 0, 2, 0) == frozenset({"a", "b"})


def test_approximant_requires_binder(m1, afp):
    with pytest.raises(ValueError):
        approximant(m1, afp, 1, 2, 1)


def test_eval_bounded_afp(m1, afp):
    assert eval_bounded(m1, afp, 1) == frozenset({"b"})
    assert eval_bounded(m1, afp, 2) == frozenset({"a", "b"})
    assert eval_bounded(m1, afp, 2) == eval_standard(m1, afp)
    assert eval_bounded(m1, afp, OMEGA) == eval_standard(m1, afp)


def test_omega_survives_pickling():
    import pickle
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(OMEGA, protocol)) is OMEGA


def test_bound_validation(m1, afp):
    for bad in (0, -1, "2", 1.5, True):
        with pytest.raises(BoundError):
            eval_bounded(m1, afp, bad)
    assert parse_bound("omega") is OMEGA
    assert parse_bound("3") == 3
    with pytest.raises(BoundError):
        parse_bound("x")
    with pytest.raises(BoundError):
        parse_bound("0")


def test_mu_chain_monotone_nu_chain_antitone():
    corpus = all_sentences(4, 1)
    binder_corpus = [s for s in corpus if s.kind[0] in F.BINDER_KINDS][:40]
    models = [m for m in all_models(2)][::17]
    for m in models:
        for s in binder_corpus:
            prev = None
            for gamma in range(m.card + 2):
                cur = approximant(m, s, 0, m.card + 2, gamma)
                if prev is not None:
                    if s.kind[0] == F.MU:
                        assert prev <= cur
                    else:
                        assert prev >= cur
                prev = cur


def test_stabilization_within_card():
    models = [m for m in all_models(2)]
    binder_corpus = [s for s in all_sentences(4, 1)
                     if s.kind[0] in F.BINDER_KINDS][::5]
    for m in models[::11]:
        for s in binder_corpus:
            a = approximant(m, s, 0, OMEGA, m.card)
            b = approximant(m, s, 0, OMEGA, m.card + 1)
            assert a == b


def test_collapse_and_omega_equal_standard_sweep():
    models = [m for m in all_models(2)][::7]
    corpus = all_sentences(4, 1)[::13] + random_sentences(25, 2, 9, 2)
    for m in models:
        for s in corpus:
            std = eval_standard(m, s)
            assert eval_bounded(m, s, max(1, m.card)) == std
            assert eval_bounded(m, s, OMEGA) == std


def test_duality_sweep():
    models = [m for m in all_models(2)][::7]
    corpus = all_sentences(4, 1)[::13] + random_sentences(25, 4, 9, 2)
    for m in models:
        full = frozenset(m.states)
        for s in corpus:
            assert eval_standard(m, dual(s)) == full - eval_standard(m, s)


def test_bounded_monotone_in_bound():
    models = [m for m in all_models(2)][::19]
    mu_corpus = [s for s in all_sentences(5, 1) if s.kind[0] == F.MU][::9]
    for m in models:
        for s in mu_corpus:
            prev = frozenset()
            for g in (1, 2, 3):
                cur = eval_bounded(m, s, g)
                assert prev <= cur
                prev = cur


def test_shadowing_handled_by_assignment_scoping():
    m = KripkeModel(["a", "b"], [("a", "b")], {"p": ["b"]})
    s = parse("nu X. mu X. (p | <>X)")  # inner binder shadows the outer
    assert eval_standard(m, s) == eval_standard(m, F.normalize(s))


@settings(max_examples=300)
@given(card=st.integers(1, 4), count=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_group_evaluation_slices_are_each_members_own(card, count, seed):
    """On a disjoint union of same-card models, each member's slice of
    eval_group's mask is that model's own result, under the standard
    semantics and every bound, for a sentence and its dual."""
    rng = random.Random(seed)
    models = [random_model(rng, card) for _ in range(count)]
    union = compare._disjoint_union(models)
    member = models[seed % count]
    full = (1 << card) - 1
    sent = random_sentences(1, seed, 9, 2)[0]
    for s in (sent, dual(sent)):
        for bound in (None, 1, 2, 3, 4, OMEGA):
            mask = semantics.eval_group(union, member, s, bound)
            for k, model in enumerate(models):
                want = (eval_standard(model, s) if bound is None
                        else eval_bounded(model, s, bound))
                assert mask >> k * card & full == model.states_to_mask(want)
