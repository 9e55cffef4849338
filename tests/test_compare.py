"""The agreement harness itself: self-tests and counterexample machinery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucheck import compare, corpus, semantics
from mucheck.semantics import OMEGA
from naive_oracles import union_by_names


def small_sentences():
    return corpus.all_sentences(3, 1)[::4] + corpus.random_sentences(6, 1, 7, 2)


def test_main_sweep_all_pass():
    tallies = compare.run_main_sweep(small_sentences(), max_states=2,
                                     gammas=(1, 2, OMEGA), workers=1)
    for name, tally in tallies.items():
        assert tally.failures == 0, name
        assert tally.instances > 0, name


def test_broken_bounded_engine_is_caught(monkeypatch):
    """Harness self-test: a deliberately wrong engine must produce failures
    and a counterexample."""
    _flip_bound_two(monkeypatch)
    tallies = compare.run_main_sweep(small_sentences()[:10], max_states=1,
                                     gammas=(2,), workers=1)
    tally = tallies["game-vs-bounded"]
    assert tally.failures > 0
    assert tally.cex is not None
    assert tally.cex["property"] == "game-vs-bounded"


def test_broken_game_rule_is_caught(monkeypatch):
    _lying_literals(monkeypatch)
    tallies = compare.run_main_sweep(small_sentences()[:12], max_states=1,
                                     gammas=(1, 2), workers=1)
    assert tallies["game-vs-bounded"].failures > 0


def test_minimizer_shrinks_counterexample(monkeypatch):
    _flip_bound_two(monkeypatch)
    tallies = compare.run_main_sweep(small_sentences()[:10], max_states=2,
                                     gammas=(2,), workers=1)
    cex = tallies["game-vs-bounded"].cex
    assert cex is not None
    smaller = compare.minimize_counterexample(cex)
    assert len(smaller["model"]["edges"]) <= len(cex["model"]["edges"])
    # the minimized instance still reproduces the disagreement
    assert compare._rerun(smaller).failures > 0


def test_ar_sweep_small():
    tallies = compare.run_ar_sweep(max_states=2, workers=1)
    for name in ("ar-chi", "fbounded-chi", "fbounded-decrements"):
        assert tallies[name].failures == 0
        assert tallies[name].instances > 0


def _flip_arbitrary_decrements(monkeypatch):
    """A two-counter game whose every-choice graph gives each terminal to
    the player who should lose it; the unit-decrement graph is sound.
    The sweep refines its unit graph into the every-choice graph after it
    has read the unit winners, so the fault flips what the refinement
    returns."""
    from mucheck.game import _WON_A, _WON_E
    from mucheck.variants import FBoundedGame
    real = FBoundedGame._refine
    flip = {_WON_E: _WON_A, _WON_A: _WON_E}

    def broken(self, graph):
        graph = real(self, graph)
        graph.status = [flip.get(st, st) for st in graph.status]
        return graph

    monkeypatch.setattr(FBoundedGame, "_refine", broken)


@pytest.mark.parametrize("fault", [False, True])
def test_ar_sweep_counts_do_not_depend_on_the_worker_count(monkeypatch,
                                                            fault):
    """The runner cuts the one- and two-state AR models into jobs of
    mixed sizes; each model's card decides its decrement check, so one
    worker and a pool of two give the same tallies."""
    if fault:
        _flip_arbitrary_decrements(monkeypatch)
    one = compare.run_ar_sweep(max_states=2, workers=1)
    two = compare.run_ar_sweep(max_states=2, workers=2)
    assert _fingerprint(one) == _fingerprint(two)
    # 8 one-state and 256 two-state models, one instance per state.
    assert one["fbounded-decrements"].instances == 520
    assert (one["fbounded-decrements"].failures > 0) == fault


class _RecordingContext:
    """A stand-in for a multiprocessing context whose pool records the
    size it is asked for and runs its jobs in this process."""

    def __init__(self):
        self.sizes = []

    def Pool(self, processes):
        self.sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, jobs):
        return list(map(func, jobs))


@pytest.mark.parametrize("workers, items, cpus, size", [
    (5000, 10, 4, 4), (5000, 10, 64, 10), (3, 10, 64, 3), (2, 10, 1, None),
    (5000, 1, 64, None)])
def test_the_sweep_pool_has_at_most_one_process_per_job_and_cpu(
        monkeypatch, workers, items, cpus, size):
    """A pool starts every process up front, so it is sized at the
    fewest of the workers asked for, the jobs and the CPUs; a pool of
    one would be this process, so none is opened.  The context only
    records the size, so no process starts."""
    import multiprocessing

    ctx = _RecordingContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    monkeypatch.setattr(compare.os, "cpu_count", lambda: cpus)
    seen = []

    def worker(job):
        seen.extend(job[0])
        return {}

    compare._run_sweep((), worker, list(range(items)), workers, 1)
    assert ctx.sizes == ([] if size is None else [size])
    assert seen == list(range(items))


def test_decrement_counterexample_reruns_on_its_two_state_model(
        monkeypatch):
    """The rerun of an AR counterexample checks decrements exactly when
    its model has at most DECREMENT_MAX_STATES states, as the sweep did."""
    from mucheck import formula as F, reduction
    _flip_arbitrary_decrements(monkeypatch)
    chi = F.render(reduction.chi())
    two = corpus.model_from_code(2, 0, 0b1100, corpus.AR_PROPS)
    tally = compare._rerun(_cex_on(two, "fbounded-decrements", None, None,
                                   chi))
    assert (tally.instances, tally.failures) == (2, 2)
    assert tally.cex["property"] == "fbounded-decrements"
    three = corpus.model_from_code(3, 0, 0b110000, corpus.AR_PROPS)
    tally = compare._rerun(_cex_on(three, "fbounded-decrements", None, None,
                                   chi))
    assert (tally.instances, tally.failures) == (0, 0)


def test_mode_sweep_small():
    sents = corpus.all_sentences(2, 1)
    tallies = compare.run_mode_sweep(sents, max_states=2, gammas=(1, 2),
                                     workers=1)
    assert tallies["greedy-exhaustive"].failures == 0
    assert tallies["canonical-fullmap"].failures == 0


def _fullmap_winner(model, w, sent, gamma,
                    max_positions=compare.FULLMAP_MAX_POSITIONS):
    """Winner code at ``w`` of the full-clock-map game, solved as the
    clock-policy sweep solves it."""
    game = compare._FullMapGame(model, w, sent, gamma, max_positions)
    return game._explore([w]).winners(1)[0]


def test_fullmap_winner_matches_solver(m1, afp):
    from mucheck.game import ELOISE, EvalGame, _E
    for gamma in (1, 2, 3):
        for w in m1.states:
            winner, _ = EvalGame(m1, w, afp, gamma).solve("exhaustive")
            assert (_fullmap_winner(m1, w, afp, gamma) == _E) \
                == (winner == ELOISE)


def test_fullmap_winner_respects_its_position_cap(m1, afp):
    from mucheck.game import GameLimitError
    with pytest.raises(GameLimitError):
        _fullmap_winner(m1, "a", afp, 3, max_positions=5)


def test_fullmap_oracle_owns_its_clock_rule(monkeypatch):
    """A broken label rule in the canonical game must not reach the
    full-map oracle, which checks that rule."""
    from mucheck import formula as F
    from mucheck.game import EvalGame, _WON_A
    real = EvalGame._label_rule

    def broken(self, node):
        unit, radix, codes = real(self, node)
        if self._rf_is_mu[node] and 1 < self.clock_cap:
            # A mu-label with clock 1 is lost by Eloise: digit 1 gets
            # its own code, and the digits above keep the last one.
            codes = (codes[0], _WON_A, codes[-1])
        return unit, radix, codes

    monkeypatch.setattr(EvalGame, "_label_rule", broken)
    tallies = compare.run_mode_sweep([F.parse("mu X. (p | <>X)")],
                                     max_states=2, gammas=(2,), workers=1)
    tally = tallies["canonical-fullmap"]
    assert tally.instances == 520
    assert tally.failures > 0
    assert tally.cex["property"] == "canonical-fullmap"


@pytest.mark.parametrize("workers", [1, 2])
def test_sweeps_on_empty_inputs_return_zero_tallies(workers):
    for props, tallies in (
            (compare.MAIN_PROPERTIES,
             compare.run_main_sweep([], workers=workers)),
            (compare.MODE_PROPERTIES,
             compare.run_mode_sweep([], workers=workers)),
            (compare.AR_PROPERTIES,
             compare.run_ar_sweep(max_states=0, workers=workers))):
        assert sorted(tallies) == sorted(name for name, _ in props)
        for tally in tallies.values():
            assert (tally.instances, tally.failures, tally.cex) \
                == (0, 0, None)


def test_normalize_checks_pass():
    sents = corpus.random_sentences(6, 2, 8, 2)
    models = [corpus.random_model(__import__("random").Random(4), 2)]
    tallies = compare.run_normalize_checks(sents, models)
    assert tallies["normalize-soundness"].failures == 0


def test_sampled_larger_models_deterministic():
    sents = small_sentences()[:6]
    a = compare.run_main_sweep(sents, max_states=4, gammas=(1, 2),
                               workers=1, seed=7, samples_per_size=5)
    b = compare.run_main_sweep(sents, max_states=4, gammas=(1, 2),
                               workers=1, seed=7, samples_per_size=5)
    for name in a:
        assert (a[name].instances, a[name].failures) \
            == (b[name].instances, b[name].failures)
        assert a[name].failures == 0


def test_broken_engine_fails_compare_cli(monkeypatch, capsys):
    from mucheck.cli import main
    _flip_bound_two(monkeypatch)
    code = main(["compare", "--max-states", "1", "--max-nodes", "2",
                 "--random-count", "2", "--gammas", "2",
                 "--ar-max-states", "1", "--workers", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "counterexample" in out


def test_run_compare_report_and_budget():
    report = compare.run_compare(max_states=1, max_nodes=2, random_count=4,
                                 gammas=(1, 2), ar_max_states=1,
                                 mode_max_nodes=1, mode_random=2,
                                 mode_extra_models=1, workers=1)
    assert report.all_passed()
    text = report.format_text()
    assert "game-vs-bounded" in text
    data = report.to_json_dict()
    assert data["all_passed"] is True
    # an exhausted budget yields a partial report
    partial = compare.run_compare(max_states=1, max_nodes=2, random_count=4,
                                  gammas=(1, 2), ar_max_states=1,
                                  mode_max_nodes=1, mode_random=2,
                                  mode_extra_models=1, workers=1,
                                  budget=0.0)
    assert partial.caps_hit


# ---------------------------------------------------------------------------
# The sweep kernel: one tagged graph, every clock bound at once.

def _kernel_instances():
    from mucheck import formula as F
    from mucheck.kripke import generate_family
    out = [(generate_family("starN", 3),
            F.parse("nu X. [] mu Y. (<>Y | (p & X))")),
           (generate_family("chain", 2),
            F.parse("nu X. ([]X & mu Y. (p | <>Y))")),
           (generate_family("daggerN", 2), F.parse("mu X. (p | []X)"))]
    models = list(corpus.all_models(2))[::53]
    for sent in (corpus.all_sentences(4, 1)[::41]
                 + corpus.random_sentences(3, 5, 9, 2)):
        out.extend((m, sent) for m in models)
    return out


def _kernel(model, sent, gammas):
    """The sweep's graph at the largest cap, its edge tags and its bit
    layout: bit b < len(gammas) is gammas[b], the last bit the collapse
    bound max(1, card)."""
    from mucheck import reduction
    from mucheck.game import EvalGame
    bounds = list(gammas) + [max(1, model.card)]
    caps = [semantics.clock_cap(g, model) for g in bounds]
    game = EvalGame(model, model.states[0], sent, max(caps))
    graph = game._explore(model.states)
    tags = compare._edge_tags(game, graph)
    p_flags, q_flags = reduction._position_valuation(game, graph)
    inits = [graph.pos_id[game._root(si)] for si in range(model.card)]
    return bounds, caps, graph, tags, p_flags, q_flags, inits


def test_kernel_agrees_with_per_bound_solving():
    from mucheck import reduction
    from mucheck.game import ELOISE, EvalGame, _E
    gammas = (1, 2, 3, OMEGA)
    checked = 0
    for model, sent in _kernel_instances():
        bounds, caps, graph, tags, p_flags, q_flags, inits = _kernel(
            model, sent, gammas)
        win, ar, diff = compare._replay(graph, tags, caps, p_flags, q_flags)
        bad = compare._playouts(graph, tags, caps, win, inits)
        assert diff == 0 and bad == 0
        for b, bound in enumerate(bounds):
            for si, init in enumerate(inits):
                w = model.states[si]
                game = EvalGame(model, w, sent, bound)
                alone = game._explore([w])
                eloise = alone.winners()[alone.pos_id[game._root(si)]] == _E
                assert bool(win[init] >> b & 1) == eloise
                reduced = reduction.build_position_model(model, w, sent,
                                                         bound)
                assert bool(ar[init] >> b & 1) == reduction.solve_ar(
                    reduced.model, reduced.root)
                winner, strategy = game.solve("exhaustive")
                assert (winner == ELOISE) == eloise
                game.validate_strategy(winner, strategy)
                checked += 1
    assert checked > 100


def test_playout_pass_catches_a_wrong_winner():
    """A winner mask naming the loser at one start must fail exactly that
    playout; a pass that never fails would otherwise go unnoticed."""
    flipped = 0
    for model, sent in _kernel_instances()[:8]:
        _, caps, graph, tags, p_flags, q_flags, inits = _kernel(
            model, sent, (1, 2, OMEGA))
        win, _, _ = compare._replay(graph, tags, caps, p_flags, q_flags)
        nb = len(caps)
        for si, init in enumerate(inits):
            for b in range(nb):
                wrong = list(win)
                wrong[init] ^= 1 << b
                bad = compare._playouts(graph, tags, caps, wrong, inits)
                assert bad >> (si * nb + b) & 1
                flipped += 1
    assert flipped > 0


def test_replay_consistency_bit_catches_ar_mismatch():
    """Marking a position p_B where Abelard wins makes AR differ from the
    winners there, under exactly the caps where Abelard wins."""
    hits = 0
    for model, sent in _kernel_instances()[:8]:
        _, caps, graph, tags, p_flags, q_flags, _ = _kernel(
            model, sent, (1, 2, OMEGA))
        win, _, diff = compare._replay(graph, tags, caps, p_flags, q_flags)
        assert diff == 0
        full = (1 << len(caps)) - 1
        for i in range(len(graph)):
            if win[i] != full and not p_flags[i]:
                wrong = list(p_flags)
                wrong[i] = True
                _, _, diff = compare._replay(graph, tags, caps, wrong,
                                             q_flags)
                assert diff & ~win[i] & full == ~win[i] & full
                hits += 1
                break
    assert hits > 0


# Flags that agree with each status code (0 won by Eloise, 1 won by
# Abelard, 2 Eloise's turn, 3 Abelard's turn) as (p_B, q_B) pairs.
_AGREEING_FLAGS = {0: [(True, False), (True, True), (False, False)],
                   1: [(False, True)], 2: [(False, True)],
                   3: [(False, False)]}


@st.composite
def _replay_instances(draw):
    """A random DAG as the explorer builds it (edges go to later
    positions, and a terminal's row is empty), with tags, caps, a state
    count and component card, and p_B / q_B flags that agree with every
    status or are drawn freely."""
    from mucheck.game import _Graph
    n = draw(st.integers(1, 14))
    status = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    caps = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    succs, tags = [], []
    for i, code in enumerate(status):
        row = [] if code < 2 or i == n - 1 else draw(st.lists(
            st.integers(i + 1, n - 1), max_size=3, unique=True))
        succs.append(tuple(row))
        tags.append(draw(st.none() | st.lists(
            st.integers(0, max(caps) - 1), min_size=len(row),
            max_size=len(row))))
    states = draw(st.sampled_from([1, 2, 4, 6]))
    card = draw(st.none() | st.sampled_from(
        [c for c in (1, 2, 3) if states % c == 0]))
    pos_list = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n,
                             unique=True))
    agree = draw(st.booleans())
    if agree:
        pairs = [draw(st.sampled_from(_AGREEING_FLAGS[code]))
                 for code in status]
    else:
        pairs = draw(st.lists(st.tuples(st.booleans(), st.booleans()),
                              min_size=n, max_size=n))
    graph = _Graph(pos_list, {p: i for i, p in enumerate(pos_list)},
                   status, succs, states)
    p_flags = [p for p, _ in pairs]
    q_flags = [q for _, q in pairs]
    return graph, tags, caps, p_flags, q_flags, card, agree


@settings(max_examples=200)
@given(_replay_instances())
def test_replay_matches_the_reference_recurrence(instance):
    """Winners, AR masks and the disagreement mask equal a plain recursion
    per cap, whether the flags agree with every status (where the replay
    copies the winners) or not; the AR list never aliases the winners,
    and flags of None stand for agreeing ones."""
    from naive_oracles import reference_replay
    graph, tags, caps, p_flags, q_flags, card, agree = instance
    ref = reference_replay(graph, tags, caps, p_flags, q_flags, card)
    win, ar, diff = compare._replay(graph, tags, caps, p_flags, q_flags,
                                    card)
    assert (win, ar, diff) == ref
    assert ar is not win
    if agree:
        assert diff == 0
        win, ar, diff = compare._replay(graph, tags, caps, None, None, card)
        assert (win, ar, diff) == ref and ar is not win


def test_failures_are_read_from_union_state_bits():
    """One recorder maps the failing bits of a union-state mask back to
    the card group's members: bit u is state u % card of member
    u // card.  Each failing instance counts its member's multiplicity, a
    per-model property counts each failing member once, and the
    counterexample is the one with the smallest key."""
    from mucheck import formula as F
    members = [(idx, corpus.model_from_code(2, edges, 0b01, ("p",)), mult)
               for idx, edges, mult in ((3, 0b0001, 1), (5, 0b0110, 4),
                                        (8, 0b1111, 2))]
    sent = F.parse("mu X. (p | <> X)")
    mask = 0b110010  # member 3 at state 1, member 8 at states 0 and 1
    tallies = compare._new_tallies(compare.MAIN_PROPERTIES)
    compare._record(tallies, members, sent, 7, "game-vs-bounded", mask,
                    2, 1)
    # Member 3 at state 0 under bound index 2 sorts after its state 1
    # under bound index 1: keys order bounds before states.
    compare._record(tallies, members, sent, 7, "game-vs-bounded", 0b01,
                    3, 2)
    compare._record(tallies, members, sent, 7, "reduction-I", mask)
    compare._record(tallies, members, sent, 7, "card-collapse", mask, 2,
                    per_model=True)
    got = {name: (t.failures, t.cex_key, t.cex and t.cex["state"])
           for name, t in tallies.items() if t.failures}
    assert got == {"game-vs-bounded": (1 + 2 + 2 + 1, (7, 3, 1, 1), "s1"),
                   "reduction-I": (1 + 2 + 2, (7, 3, 1), "s1"),
                   "card-collapse": (1 + 2, (7, 3), None)}
    assert tallies["game-vs-bounded"].cex["gamma"] == "2"
    assert all(t.instances == 0 for t in tallies.values())


def test_an_ar_disagreement_fails_every_state_of_its_model(monkeypatch):
    """reduction-J: a position where the AR recurrence and the game differ
    fails, under that bound, every start state of the component it lies
    in, and no other component's."""
    from mucheck import formula as F
    real = compare._replay

    def one_diff(graph, tags, caps, p_flags=None, q_flags=None, card=None):
        win, ar, diff = real(graph, tags, caps, p_flags, q_flags, card)
        return win, ar, diff | 1 << len(caps)  # component 1, first bound

    monkeypatch.setattr(compare, "_replay", one_diff)
    pairs = [(corpus.model_from_code(2, edges, val, ("p",)), mult)
             for edges, val, mult in ((0b0001, 0b01, 1), (0b0110, 0b10, 4),
                                      (0b1111, 0b11, 2))]
    tallies = compare._new_tallies(compare.MAIN_PROPERTIES)
    for union, members in compare._card_groups(pairs):
        compare._check_games(F.parse("p"), 0, union, members, tallies,
                             (1, 2), compare.SWEEP_MAX_POSITIONS)
    t = tallies["reduction-J"]
    assert (t.instances, t.failures, t.cex_key) == (7 * 2 * 2, 4 * 2,
                                                    (0, 1, 0, 0))
    assert sum(t.failures for t in tallies.values()) == 4 * 2


def test_a_sweep_job_leaves_no_reference_cycles():
    """Sweep jobs run with the cyclic GC paused, so what a job builds must
    be freed by reference counting alone: after a main-sweep job and
    after a clock-policy job, a collection finds nothing unreachable."""
    import gc
    trees = [s.tree() for s in small_sentences()[:20]]
    extra = (((3, 0b101100011, 0b011010), ("p", "q")),)
    jobs = [(trees, 0, compare.MAIN_PROPERTIES, compare._check_games, 2,
             {"seed": 0, "samples_per_size": 60}, (1, 2, OMEGA),
             compare.SWEEP_MAX_POSITIONS),
            (trees, 0, compare.MODE_PROPERTIES, compare._check_policies, 2,
             {"extra": extra}, (1, 2, OMEGA))]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for job in jobs:
            tallies = compare._union_job(job)
            assert gc.collect() == 0
            assert all(t.instances for t in tallies.values())
    finally:
        if enabled:
            gc.enable()


def test_fbounded_shared_graph_matches_per_state_solves():
    from mucheck import reduction, variants
    from mucheck.game import ELOISE, _E
    chi = reduction.chi()
    codes = (list(corpus.all_model_codes(2, corpus.AR_PROPS))[::37]
             + list(corpus.all_model_codes(3, corpus.AR_PROPS))[::4099])
    models = [corpus.model_from_code(*code, corpus.AR_PROPS)
              for code in codes]
    assert len(models) > 5
    for model in models:
        game = variants.FBoundedGame(model, model.states[0], chi, 1)
        unit = game._explore(model.states, True, True)
        full = game._explore(model.states)
        unit_win, full_win = unit.winners(), full.winners()
        for si, w in enumerate(model.states):
            start = game._root(si)
            for graph, win, mode in ((unit, unit_win, "greedy"),
                                     (full, full_win, "exhaustive")):
                verdict, _ = variants.solve_fbounded(model, w, chi, 1,
                                                     mode=mode)
                assert (win[graph.pos_id[start]] == _E) \
                    == (verdict == ELOISE)


# ---------------------------------------------------------------------------
# Rechecks: a crash is not the property failing.

def _flip_bound_two(monkeypatch):
    """A bounded engine that flips each model's first state at bound 2,
    at both seams: the per-model ``eval_bounded`` (read by the
    normalize-soundness check) and the per-card-group ``eval_group`` (read
    by the main sweep), where it flips the first state of every member of
    the union.  Returns the broken ``eval_group``."""
    real = semantics.eval_bounded
    real_group = semantics.eval_group

    def broken(model, sent, bound, node=0, assignment=None):
        out = real(model, sent, bound, node, assignment)
        if bound == 2:
            return out ^ frozenset({model.states[0]})
        return out

    def broken_group(union, member, sent, bound=None):
        out = real_group(union, member, sent, bound)
        if bound == 2:
            for k in range(union.card // member.card):
                out ^= 1 << k * member.card
        return out

    monkeypatch.setattr(semantics, "eval_bounded", broken)
    monkeypatch.setattr(semantics, "eval_group", broken_group)
    return broken_group


def test_recheck_propagates_crashes_and_minimizer_rejects_them(m1,
                                                              monkeypatch):
    import pytest
    broken = _flip_bound_two(monkeypatch)

    def crashing(union, member, sent, bound=None):
        # A counterexample reruns on its one model, its own union.
        if len(union.relation) < len(m1.relation):
            raise RuntimeError("engine crash on a smaller model")
        return broken(union, member, sent, bound)

    monkeypatch.setattr(semantics, "eval_group", crashing)
    cex = {"property": "game-vs-bounded", "model": m1.to_json_dict(),
           "formula": "mu X. (p | [] X)", "gamma": "2", "state": "a"}
    assert compare._rerun(cex).failures > 0
    trial = dict(cex, model=dict(cex["model"],
                                 edges=cex["model"]["edges"][1:]))
    with pytest.raises(RuntimeError):
        compare._rerun(trial)
    smaller = compare.minimize_counterexample(cex)
    # no edge could go without crashing the engine, so none went
    assert len(smaller["model"]["edges"]) == len(m1.relation)
    assert compare._rerun(smaller).failures > 0


def _cex_on(model, prop, gamma="2", state="a", formula="mu X. (p | [] X)"):
    return {"property": prop, "model": model.to_json_dict(),
            "formula": formula, "gamma": gamma, "state": state}


def test_recheck_runs_the_sweeps_own_playouts(m1, monkeypatch):
    """A wrong winner fails the sweep's playout pass; the recheck runs
    that pass, so it sees the failure and the minimizer can shrink."""
    _wrong_first_winner(monkeypatch)
    cex = _cex_on(m1, "strategy-playouts")
    assert compare._rerun(cex).failures > 0
    smaller = compare.minimize_counterexample(cex)
    assert smaller["model"]["edges"] == [] and smaller["formula"] == "p"
    assert smaller["gamma"] == "1" and smaller["state"] == "a"


def _cyclic_graphs(monkeypatch):
    from mucheck.game import _CYCLE, _Graph

    def cyclic(self):
        raise RuntimeError(_CYCLE)

    monkeypatch.setattr(_Graph, "topo_order", cyclic)


def test_termination_counterexample_reruns_as_failing(monkeypatch):
    _cyclic_graphs(monkeypatch)
    tallies = compare.run_main_sweep(small_sentences()[:4], max_states=1,
                                     gammas=(1,), workers=1)
    tally = tallies["termination"]
    assert tally.failures == tally.instances > 0
    assert tally.cex["property"] == "termination"
    assert compare._rerun(tally.cex).failures > 0


@pytest.mark.parametrize("fault", ["winner", "cycle"])
def test_minimized_counterexamples_fail_where_they_say(m1, monkeypatch,
                                                       fault):
    """Started from a state and bound where nothing fails, every minimized
    counterexample names a state and bound at which the sweep's own
    check fails."""
    if fault == "winner":
        _wrong_first_winner(monkeypatch)
        starts = [_cex_on(m1, prop, state="b")
                  for prop in ("game-vs-bounded", "reduction-J",
                               "strategy-playouts")]
    else:
        _cyclic_graphs(monkeypatch)
        starts = [_cex_on(m1, "termination", gamma=None, state=None)]
    for cex in starts:
        smaller = compare.minimize_counterexample(cex)
        assert smaller != cex
        rerun = compare._rerun(smaller)
        assert rerun.failures > 0
        assert (rerun.cex["state"], rerun.cex["gamma"]) \
            == (smaller["state"], smaller["gamma"])
        if fault == "winner":
            assert smaller["state"] == "a"


def test_every_property_rechecks_as_holding_on_a_sound_build(m1):
    from mucheck import formula as F, reduction
    ar_model = corpus.model_from_code(2, 0b1011, 0b0110, corpus.AR_PROPS)
    chi = F.render(reduction.chi())
    gammas = {"card-collapse": "2", "omega-standard": "omega",
              "termination": None, "reduction-I": None, "duality": None}
    props = (compare.MAIN_PROPERTIES + compare.AR_PROPERTIES
             + compare.MODE_PROPERTIES + compare.EXTRA_PROPERTIES)
    assert len(props) == 14
    for prop, _ in props:
        if prop in dict(compare.AR_PROPERTIES):
            cex = _cex_on(ar_model, prop, None, None, chi)
        elif prop == "normalize-soundness":
            cex = _cex_on(m1, prop, None, None,
                          "nu X. ((mu X. (p | <> X)) & [] X)")
        else:
            cex = _cex_on(m1, prop, gammas.get(prop, "2"))
        tally = compare._rerun(cex)
        assert tally.instances > 0 and tally.failures == 0, prop


# ---------------------------------------------------------------------------
# Golden output: `mucheck compare --json` with the elapsed time dropped.  A
# speedup of the sweeps must leave it byte-identical.

def _compare_json(argv, capsys):
    import re
    from mucheck.cli import main
    code = main(["compare", "--json", "--workers", "1"] + argv)
    out = capsys.readouterr().out
    return code, re.sub(r'"elapsed_s": [^,\n]+', '"elapsed_s": 0', out)


def _golden(name):
    import pathlib
    return (pathlib.Path(__file__).parent / "golden" / name).read_text()


def test_compare_json_is_pinned(capsys):
    code, out = _compare_json(
        ["--max-states", "2", "--max-binders", "1", "--max-nodes", "3",
         "--random-count", "4", "--gammas", "1,omega",
         "--ar-max-states", "2"], capsys)
    assert code == 0
    assert out == _golden("compare_clean.json")


def test_compare_json_counterexamples_are_pinned(monkeypatch, capsys):
    """Failure counts and the earliest raw counterexample of every
    property under a broken bounded engine; each names its own model."""
    _flip_bound_two(monkeypatch)
    code, out = _compare_json(
        ["--max-states", "2", "--max-binders", "1", "--max-nodes", "2",
         "--random-count", "2", "--gammas", "2,omega",
         "--ar-max-states", "1", "--no-minimize"], capsys)
    assert code == 1
    assert out == _golden("compare_flip_bound_two.json")


# ---------------------------------------------------------------------------
# Card groups: one game per (sentence, card) on the disjoint union of the
# group's models, mapped back to per-model tallies.

def _one_model_groups(pairs):
    """_card_groups with every model in a group of its own."""
    return [(model, [(model_idx, model, mult)])
            for model_idx, (model, mult) in enumerate(pairs)]


def _lying_literals(monkeypatch):
    """A canonical game whose negated literals are won by the player who
    should lose them: the status table flips at every negated literal."""
    from mucheck import formula as F
    from mucheck.game import EvalGame, _WON_A, _WON_E
    real = EvalGame._status_row

    def broken(self, node):
        row = real(self, node)
        if self._kind[node] == F.NEGPROP:
            return tuple(_WON_E if st == _WON_A else _WON_A for st in row)
        return row

    monkeypatch.setattr(EvalGame, "_status_row", broken)


def _wrong_first_winner(monkeypatch):
    """A backward pass that names the wrong winner under the first bound
    at the first start state of every model."""
    real = compare._replay

    def broken(graph, tags, caps, p_flags, q_flags, card=None):
        win, ar, diff = real(graph, tags, caps, p_flags, q_flags, card)
        # A position below S is a root: state index p, node 0, no clocks.
        for i, p in enumerate(graph.pos_list):
            if p < graph.states and p % card == 0:
                win[i] ^= 1
        return win, ar, diff

    monkeypatch.setattr(compare, "_replay", broken)


def _fingerprint(tallies):
    return {name: (t.instances, t.failures, t.cex, t.cex_key)
            for name, t in tallies.items()}


def _main_and_mode_sweeps(**main_kwargs):
    sents = small_sentences()
    extra = [((3, 0b101100011, 0b011010), ("p", "q")),
             ((3, 0b111000101, 0b100101), ("p", "q"))]
    main = compare.run_main_sweep(sents, max_states=2,
                                  gammas=(1, 2, OMEGA), workers=1,
                                  **main_kwargs)
    mode = compare.run_mode_sweep(sents[:12], max_states=2,
                                  extra_models=extra, gammas=(1, 2, OMEGA),
                                  workers=1)
    return _fingerprint(main), _fingerprint(mode)


@pytest.mark.parametrize("fault", [None, "bounded", "literals", "winner"])
def test_card_groups_match_one_model_groups(monkeypatch, fault):
    """Tallies, failure counts and earliest counterexamples are the same
    whether each card group shares one game or every model has its own,
    with no fault, under a broken bounded engine (which flips the first
    state of each model, not of the union), under a broken game rule
    (where the AR comparison must fail per model, not per group) and
    under a wrong winner (whose playouts must fail per model)."""
    if fault == "bounded":
        _flip_bound_two(monkeypatch)
    elif fault == "literals":
        _lying_literals(monkeypatch)
    elif fault == "winner":
        _wrong_first_winner(monkeypatch)
    grouped = _main_and_mode_sweeps()
    monkeypatch.setattr(compare, "_card_groups", _one_model_groups)
    assert _main_and_mode_sweeps() == grouped
    main, mode = grouped
    failures = {name: fp[1] for name, fp in {**main, **mode}.items()}
    if fault is None:
        assert not any(failures.values())
    elif fault == "bounded":
        assert failures["game-vs-bounded"] > 0
    elif fault == "winner":
        assert 0 < failures["strategy-playouts"] \
            < main["strategy-playouts"][0]
    else:
        assert failures["game-vs-bounded"] > 0
        assert 0 < failures["reduction-J"] < main["reduction-J"][0]
        assert failures["canonical-fullmap"] > 0


def test_omega_off_by_one_is_caught(monkeypatch):
    """Each model's OMEGA bound runs card(model) iterations, never the
    card of its group's union, so an iteration count one short fails."""
    real = semantics.bound_iterations

    def short(bound, model):
        return real(bound, model) - (bound is OMEGA)

    monkeypatch.setattr(semantics, "bound_iterations", short)
    tallies = compare.run_main_sweep(small_sentences(), max_states=2,
                                     gammas=(1, 2, OMEGA), workers=1)
    t = tallies["omega-standard"]
    assert (t.instances, t.failures) == (8976, 75)


def _count_calls(monkeypatch, name, owner=compare):
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_main_sweep_evaluates_once_per_card_group(monkeypatch):
    """The compositional engines run on each card group's union model:
    no per-model call, and per (sentence, card group) one call for the
    sentence, one for its dual and one per distinct bound."""
    gammas = (1, 2, OMEGA)
    per_model = [_count_calls(monkeypatch, name, semantics)
                 for name in ("eval_standard", "eval_bounded")]
    groups = _count_calls(monkeypatch, "_check_games")
    per_group = {}
    real = semantics.eval_group

    def counted(union, member, sent, bound=None):
        # The sent_idx of the _check_games call under way.
        key = (groups[-1][1], id(union), member.card)
        per_group[key] = per_group.get(key, 0) + 1
        return real(union, member, sent, bound)

    monkeypatch.setattr(semantics, "eval_group", counted)
    compare.run_main_sweep(small_sentences()[:10], max_states=2,
                           gammas=gammas, workers=1)
    assert per_model == [[], []]
    assert len({args[1] for args in groups}) == 10
    assert len(per_group) == 10 * 2  # cards 1 and 2
    for (_, _, card), calls in per_group.items():
        assert 0 < calls <= 2 + len({max(1, card), OMEGA, *gammas})


def test_union_over_the_position_cap_runs_one_model_at_a_time(monkeypatch):
    """No model's game of these sentences exceeds 50 positions, but most
    card groups' union games do: those groups run one model at a time,
    and every count is that of an uncapped run."""
    uncapped = _fingerprint(compare.run_main_sweep(
        small_sentences(), max_states=2, gammas=(1, 2, OMEGA), workers=1))
    calls = _count_calls(monkeypatch, "_check_games")
    capped = _fingerprint(compare.run_main_sweep(
        small_sentences(), max_states=2, gammas=(1, 2, OMEGA), workers=1,
        max_positions=50))
    assert capped == uncapped
    assert capped["termination"][1] == 0
    assert sum(len(args[3]) == 1 for args in calls) > len(calls) // 2
    # A cap that one model's own game exceeds still stops the sweep.
    from mucheck.game import GameLimitError
    with pytest.raises(GameLimitError):
        compare.run_main_sweep(small_sentences(), max_states=2,
                               gammas=(1, 2, OMEGA), workers=1,
                               max_positions=20)


def test_mode_union_over_the_fullmap_cap_runs_one_model_at_a_time(
        monkeypatch):
    sents = small_sentences()[:12]
    uncapped = _fingerprint(compare.run_mode_sweep(
        sents, max_states=2, gammas=(1, 2), workers=1))
    calls = _count_calls(monkeypatch, "_check_policies")
    monkeypatch.setattr(compare, "FULLMAP_MAX_POSITIONS", 10)
    capped = _fingerprint(compare.run_mode_sweep(
        sents, max_states=2, gammas=(1, 2), workers=1))
    assert capped == uncapped
    assert sum(len(args[3]) == 1 for args in calls) > len(calls) // 2
    # A cap that one model's own game exceeds still stops the sweep.
    from mucheck import formula as F
    from mucheck.game import GameLimitError
    monkeypatch.setattr(compare, "FULLMAP_MAX_POSITIONS", 2)
    with pytest.raises(GameLimitError):
        compare.run_mode_sweep(sents, max_states=2, gammas=(1, 2),
                               workers=1)
    # A card group of one model is its own union: it is not run again.
    calls = _count_calls(monkeypatch, "_check_policies")
    extra = (((3, 0b101100011, 0b011010), ("p", "q")),)
    with pytest.raises(GameLimitError):
        compare.run_mode_sweep([F.parse("mu X. (p | <>X)")], max_states=0,
                               extra_models=extra, gammas=(1,), workers=1)
    assert [len(args[3]) for args in calls] == [1]


@settings(max_examples=200)
@given(st.integers(0, 2 ** 32), st.integers(1, 4), st.integers(1, 5))
def test_union_from_rows_matches_the_union_by_names(seed, card, count):
    rng = random.Random(seed)
    models = [corpus.random_model(rng, card) for _ in range(count)]
    got = compare._disjoint_union(models)
    ref = union_by_names(models)
    assert got.states == ref.states
    assert got._succ == ref._succ
    assert got._val_mask == ref._val_mask


def test_start_winners_check_the_whole_graph():
    """The sweeps solve from their start positions only, the first ones
    numbered, but a cycle anywhere in an explored graph still fails the
    sweep."""
    from mucheck.game import _Graph
    # "s" and "t" are won terminals; "x" and "y" form a cycle that no
    # start reaches.
    pos = ["s", "t", "x", "y"]
    status = [1, 0, 2, 3]
    graph = _Graph(pos, {p: i for i, p in enumerate(pos)}, status,
                   [(), (), (3,), (2,)])
    with pytest.raises(RuntimeError):
        graph.winners(2)
    graph.succs[3] = ()
    assert graph.winners(2) == [1, 0]
