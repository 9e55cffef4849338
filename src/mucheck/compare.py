"""Cross-engine agreement sweeps.

One harness runs every engine-agreement property over exhaustively
enumerated small models and formula corpora: game solving against the
bounded compositional semantics, the card(M) collapse against the
standard semantics, the AR reductions, chi against the AR solver, the
two-counter game against AR, greedy against exhaustive clock policies,
canonical clock tuples against full clock maps, duality, and
normalization soundness.

The main and clock-policy sweeps group the models by card and play one
game per (sentence, card group), on the disjoint union of the group's
models.  Play follows the model's edges and never leaves a component, so
that game is the disjoint union of the models' games, and its results
map back to each model.  The main sweep runs the compositional engines
on that union too, once per bound, and keeps their results as state
bitmasks: each model reads its own slice, and states get names only in
a counterexample.
The main sweep builds its position graph at the largest clock bound and
replays it under every bound at once: each position carries a bitmask
with one bit per bound, so one backward pass yields the winners and AR
membership under all bounds and one forward pass replays every winning
strategy.  The full-clock-map oracle is a position codec for the shared
game explorer, and every sweep shares one model enumerator, one job
splitter and one worker pool runner.

Models that agree on the propositions a sentence actually mentions are
indistinguishable to every engine, so the sweep runs one representative
per such class and scales the instance counts by the class size.

A counterexample is rechecked and minimized with the sweep's own code:
its model, sentence and bound are rebuilt and the property's per-instance
check runs on that one model.  Each shrink the minimizer keeps is one on
which that code still fails, and the reported state and bound are the
ones at which it fails there.
"""

import functools
import json
import multiprocessing
import os
import random
import time

from . import corpus
from . import formula as F
from . import reduction
from . import semantics
from . import variants
from .game import (EvalGame, GameCore, GameLimitError, Position, _E, _TURN_A,
                   _TURN_E, _WON_A, _WON_E)
from .kripke import KripkeModel
from .semantics import OMEGA

MAIN_PROPERTIES = (
    ("game-vs-bounded", "game winner matches bounded compositional truth"),
    ("card-collapse", "bound card(M) matches the standard semantics"),
    ("omega-standard", "bound omega matches the standard semantics"),
    ("termination", "reachable position graphs are acyclic"),
    ("strategy-playouts", "solved strategies win every opponent playout"),
    ("reduction-J", "AR verdict of the position model matches the game"),
    ("reduction-I", "AR verdict at the collapse bound matches standard"),
    ("duality", "dual sentence denotes the complement (standard)"),
)

AR_PROPERTIES = (
    ("ar-chi", "chi membership equals the AR winning set"),
    ("fbounded-chi", "two-counter verdict on chi equals the AR verdict"),
    ("fbounded-decrements", "unit decrements agree with arbitrary ones"),
)

MODE_PROPERTIES = (
    ("greedy-exhaustive", "greedy and exhaustive clock policies agree"),
    ("canonical-fullmap", "canonical clocks agree with full clock maps"),
)

EXTRA_PROPERTIES = (
    ("normalize-soundness", "verdicts survive binder renaming"),
)


class _Tally:
    """Instance/failure counters plus the earliest counterexample."""

    __slots__ = ("instances", "failures", "cex", "cex_key")

    def __init__(self):
        self.instances = 0
        self.failures = 0
        self.cex = None
        self.cex_key = None

    def add(self, count, ok, key=None, cex=None):
        """``cex`` is either a ready dict or the argument tuple for _cex,
        materialized only when a failure is actually recorded."""
        self.instances += count
        if not ok:
            self.fail(count, key, cex)

    def fail(self, count, key=None, cex=None):
        """Record ``count`` failures of instances already counted."""
        self.failures += count
        if self.cex is None or (key is not None and key < self.cex_key):
            self.cex = _materialize(cex)
            self.cex_key = key

    def merge(self, other):
        self.instances += other.instances
        self.failures += other.failures
        if other.cex is not None and (self.cex is None
                                      or other.cex_key < self.cex_key):
            self.cex = other.cex
            self.cex_key = other.cex_key


class CompareReport:
    def __init__(self, properties, elapsed, params, caps_hit=False):
        self.properties = properties  # list of (name, desc, inst, fail, cex)
        self.elapsed = elapsed
        self.params = params
        self.caps_hit = caps_hit

    def all_passed(self):
        return all(fail == 0 for _, _, _, fail, _ in self.properties)

    def counterexamples(self):
        return [(name, cex) for name, _, _, fail, cex in self.properties
                if fail and cex is not None]

    def format_text(self):
        lines = ["property                 instances   failures   status"]
        for name, _desc, inst, fail, _cex in self.properties:
            status = "ok" if fail == 0 else "FAIL"
            lines.append(f"{name:<24} {inst:>9}  {fail:>9}   {status}")
        lines.append(f"elapsed: {self.elapsed:.1f}s"
                     + ("  (resource cap hit, partial report)"
                        if self.caps_hit else ""))
        return "\n".join(lines)

    def to_json_dict(self):
        return {
            "properties": [
                {"name": n, "description": d, "instances": i,
                 "failures": f, "counterexample": c}
                for n, d, i, f, c in self.properties
            ],
            "elapsed_s": self.elapsed,
            "params": self.params,
            "partial": self.caps_hit,
            "all_passed": self.all_passed(),
        }


@functools.lru_cache(maxsize=64)
def _admit_masks(caps):
    """Per edge tag, the mask of the cap bits whose graph has that edge.

    An edge tagged t announces clock value t, so it exists under every cap
    above t.  Tags run from 0 to max(caps) - 1; the trailing entry is the
    all-bits mask, so indexing with an untagged edge's -1 admits every bit.
    """
    masks = [0] * (max(caps) + 1)
    for t in range(max(caps)):
        for b, cap in enumerate(caps):
            if cap > t:
                masks[t] |= 1 << b
    masks[-1] = (1 << len(caps)) - 1
    return tuple(masks)


def _edge_tags(game, graph):
    """Per position, the clock value each out-edge announces: a binder
    edge carries the value it writes, every other edge -1.

    A binder's row is the game's clock choices in order (its first one
    under a greedy policy), so the tags come from one table over
    ``p % (S * N)``."""
    S = game._S
    SN = game._SN
    choices = game._clock_choices
    by_key = [choices if kind in F.BINDER_KINDS else None
              for kind in game._kind for _ in range(S)]
    untagged = [(-1,) * k for k in range(max(map(len, graph.succs),
                                             default=0) + 1)]
    return [t or untagged[len(row)] for t, row in zip(
        map(by_key.__getitem__, map(SN.__rmod__, graph.pos_list)),
        graph.succs)]


def _replay(graph, tags, caps, p_flags, q_flags, card=None):
    """Winners and AR membership under every cap in one backward pass.

    Bit b of a position's mask stands for clock-choice cap ``caps[b]``;
    ``tags`` are the graph's edge tags as _edge_tags gives them.
    Returns per-position masks of the caps under which Eloise wins and
    under which the position is in the AR winning set of the position
    model, plus the mask of caps under which the two differ anywhere.
    When the model is a disjoint union of components of ``card`` states
    each (position p at state index ``p % graph.states`` lies in component
    ``p % graph.states // card``), bit ``c * len(caps) + b`` of that last
    mask marks cap b in component c.
    """
    full = (1 << len(caps)) - 1
    admit = _admit_masks(tuple(caps))
    block = [full ^ m for m in admit]
    status = graph.status
    succs = graph.succs
    n = len(status)
    win = [0] * n
    ar = [0] * n
    diff = 0
    for i in reversed(graph.topo_order()):
        st = status[i]
        # A stuck mover loses: an empty OR is 0, an empty AND all ones.
        if st == _WON_E:
            w = full
        elif st == _WON_A:
            w = 0
        elif st == _TURN_E:
            w = 0
            for j, t in zip(succs[i], tags[i]):
                w |= admit[t] & win[j]
        else:
            w = full
            for j, t in zip(succs[i], tags[i]):
                w &= win[j] | block[t]
        if p_flags[i]:
            a = full
        elif q_flags[i]:
            a = 0
            for j, t in zip(succs[i], tags[i]):
                a |= admit[t] & ar[j]
        else:
            a = full
            for j, t in zip(succs[i], tags[i]):
                a &= ar[j] | block[t]
        win[i] = w
        ar[i] = a
        if w != a:
            c = graph.pos_list[i] % graph.states // card if card else 0
            diff |= (w ^ a) << (c * len(caps))
    return win, ar, diff


def _playouts(graph, tags, caps, win, inits, card=None):
    """Replay every first-winning-move strategy against all opponent moves.

    One forward pass over the topological order serves every start and
    cap.  ``inits[s]`` is the start position at state index s, and
    ``win`` holds masks over ``caps`` as _replay returns them.  The
    playout from ``inits[s]`` under ``caps[b]`` is played for the player
    whom ``win`` names the winner there: that player follows the first
    admitted edge into a position ``win`` says they win; the opponent
    follows every admitted edge.  Returns the mask whose bit
    ``s * len(caps) + b`` marks a playout that reaches a terminal lost for
    its player or a turn of that player with no such edge.

    When the model is a disjoint union of components of ``card`` states
    each, no playout leaves its start's component, so the reach masks
    give the starts of each component the same bits and stay
    ``card * len(caps)`` bits wide however many components there are.
    """
    nb = len(caps)
    full = (1 << nb) - 1
    period = card or len(inits)
    rep = 0  # one copy of the cap bits per start of a component
    for s in range(period):
        rep |= 1 << (s * nb)
    admit = [m * rep for m in _admit_masks(tuple(caps))]
    status = graph.status
    succs = graph.succs
    pos_list = graph.pos_list
    S = graph.states
    # Reaching playouts, split by the player each is played for.
    reach_e = [0] * len(status)
    reach_a = [0] * len(status)
    for s, init in enumerate(inits):
        shift = s % period * nb
        reach_e[init] |= win[init] << shift
        reach_a[init] |= (full ^ win[init]) << shift
    bad = 0
    for i in graph.topo_order():
        mine_e = reach_e[i]
        mine_a = reach_a[i]
        if not (mine_e or mine_a):
            continue
        st = status[i]
        if st == _WON_E:
            lost = mine_a
        elif st == _WON_A:
            lost = mine_e
        elif st == _TURN_E:
            for j, t in zip(succs[i], tags[i]):
                a = admit[t]
                take = mine_e & a & win[j] * rep
                reach_e[j] |= take
                reach_a[j] |= mine_a & a
                mine_e ^= take
            lost = mine_e
        else:
            for j, t in zip(succs[i], tags[i]):
                a = admit[t]
                take = mine_a & a & ~(win[j] * rep)
                reach_a[j] |= take
                reach_e[j] |= mine_e & a
                mine_a ^= take
            lost = mine_a
        if lost:
            bad |= lost << (pos_list[i] % S // period * period * nb)
    return bad


EXHAUSTIVE_STATES = 2  # sizes enumerated in full; larger sizes are sampled


def _model_classes(max_states, vocab_key, seed=0, samples_per_size=60,
                   extra=()):
    """Representative models plus class sizes for a proposition subset.

    Sizes up to EXHAUSTIVE_STATES cover every graph and valuation; larger
    sizes contribute ``samples_per_size`` seeded random models each, and
    ``extra`` (code, props) pairs one model each, last.
    """
    out = []
    props = tuple(sorted(vocab_key))
    for n in range(1, min(max_states, EXHAUSTIVE_STATES) + 1):
        ignored = 2 - len(props)  # dropped propositions: p and/or q
        mult = (1 << n) ** ignored
        for code in corpus.all_model_codes(n, props):
            out.append((corpus.model_from_code(*code, props), mult))
    for n in range(EXHAUSTIVE_STATES + 1, max_states + 1):
        rng = random.Random(f"models:{seed}:{n}")
        for _ in range(samples_per_size):
            out.append((corpus.random_model(rng, n, props or ("p", "q")), 1))
    out.extend((corpus.model_from_code(*code, p), 1) for code, p in extra)
    return out


# The proposition subsets a sentence can mention; models are enumerated
# once per subset.
_VOCABS = (frozenset(), frozenset({"p"}), frozenset({"q"}),
           frozenset({"p", "q"}))


def _sentence_vocab(sent):
    used = set()
    for nid, kind in enumerate(sent.kind):
        if kind in (F.PROP, F.NEGPROP):
            used.add(sent.name[nid])
    return frozenset(used & {"p", "q"})


def _disjoint_union(models):
    """The models side by side in one model: state index si of the k-th
    is state index ``k * card + si`` when every model has ``card``
    states.  A model on its own is its own union."""
    if len(models) == 1:
        return models[0]
    states, rows, val = [], [], {}
    for k, model in enumerate(models):
        offset = k * model.card
        states += [f"{k}:{w}" for w in model.states]
        rows += [[j + offset for j in row] for row in model._succ]
        for p, mask in model._val_mask.items():
            val[p] = val.get(p, 0) | mask << offset
    return KripkeModel._from_rows(states, rows, val)


def _card_groups(pairs):
    """Model classes of one vocabulary, as _model_classes gives them,
    grouped by card: one ``(union, members)`` pair per card, where
    ``members`` lists ``(model_idx, model, mult)`` in component order and
    ``union`` is their disjoint union.

    Play follows the model's edges, so it never leaves a component, and
    the game on a union is the disjoint union of its components' games.
    Every member of a group has the same card, so every clock cap the
    sweeps derive from a bound (semantics.clock_cap) is the same for all
    of them.
    """
    by_card = {}
    for model_idx, (model, mult) in enumerate(pairs):
        by_card.setdefault(model.card, []).append((model_idx, model, mult))
    return [(_disjoint_union([m for _, m, _ in members]), members)
            for members in by_card.values()]


def _check_sentence(sent, sent_idx, groups_by_vocab, gammas, max_positions,
                    tallies):
    """All main-sweep properties for one sentence across its model classes,
    per card group: the compositional engines run once on the group's
    union model (semantics.eval_group), one call per distinct bound, and
    each member reads its own slice of the resulting state bitmasks."""
    dual_sent = F.dual(sent)
    for union, members in groups_by_vocab[_sentence_vocab(sent)]:
        model0 = members[0][1]
        card = model0.card
        full = model0._full_mask
        cap0 = max(1, card)  # the collapse bound
        std = semantics.eval_group(union, model0, sent)
        dual = semantics.eval_group(union, model0, dual_sent)
        # Keyed by bound, not by iteration count: the standard result is
        # never derived from a bounded one, nor one bound's from another's.
        bounded = {}
        for g in (cap0, OMEGA) + gammas:
            if g not in bounded:
                bounded[g] = semantics.eval_group(union, model0, sent, g)
        rows = []
        for k, (model_idx, model, mult) in enumerate(members):
            shift = k * card
            std_k = std >> shift & full
            bounded_k = {g: mask >> shift & full
                         for g, mask in bounded.items()}
            key0 = (sent_idx, model_idx)
            tallies["card-collapse"].add(
                mult, bounded_k[cap0] == std_k, key0,
                (model, sent, cap0, None, "card-collapse"))
            tallies["omega-standard"].add(
                mult, bounded_k[OMEGA] == std_k, key0,
                (model, sent, OMEGA, None, "omega-standard"))
            tallies["duality"].add(
                mult, dual >> shift & full == full & ~std_k, key0,
                (model, sent, None, None, "duality"))
            rows.append((model_idx, model, mult, std_k, bounded_k))
        _check_games(sent, sent_idx, union, rows, gammas, max_positions,
                     tallies)


def _check_games(sent, sent_idx, union, rows, gammas, max_positions,
                 tallies):
    """The game properties of one sentence on one card group, from one
    game on the group's union model.

    ``rows`` holds per member ``(model_idx, model, mult, std, bounded)``:
    its standard truth mask and its truth mask per bound, over the
    member's own states (bit si for state index si).  When the union's
    game trips the position cap or has a cycle, the group runs again one
    member at a time, so termination and the cap stay per (sentence,
    model): there a cycle fails termination, and a cap hit propagates.
    """
    nb = len(gammas)
    gbits = (1 << nb) - 1
    model0 = rows[0][1]
    card = model0.card
    # Bit b < nb of the replay masks is gammas[b]; bit nb is the collapse
    # bound.  The game at the largest cap holds every smaller cap's game
    # as the edges whose announced clock value lies below that cap.
    caps = (tuple(semantics.clock_cap(g, model0) for g in gammas)
            + (max(1, card),))
    ncaps = len(caps)
    game = EvalGame(union, union.states[0], sent, max(caps),
                    max_positions=max_positions)
    try:
        graph = game._explore(union.states)
        graph.topo_order()
        acyclic = True
    except (RuntimeError, GameLimitError) as exc:
        if len(rows) == 1 and isinstance(exc, GameLimitError):
            raise GameLimitError(
                f"{exc}: {F.render(sent)} on the model "
                f"{json.dumps(model0.to_json_dict())}") from None
        acyclic = False
    if not acyclic and len(rows) > 1:
        for row in rows:
            _check_games(sent, sent_idx, row[1], [row], gammas,
                         max_positions, tallies)
        return
    for model_idx, model, mult, _, _ in rows:
        tallies["termination"].add(
            mult, acyclic, (sent_idx, model_idx),
            (model, sent, None, None, "termination"))
    if not acyclic:
        return
    p_flags, q_flags = reduction._position_valuation(game, graph)
    tags = _edge_tags(game, graph)
    inits = [graph.pos_id[game._root(u)] for u in range(union.card)]
    win, ar, diff = _replay(graph, tags, caps, p_flags, q_flags, card)
    bad = _playouts(graph, tags, caps, win, inits, card)

    # Per start state, bit gi of each mask marks a failure at gammas[gi].
    for k, (model_idx, model, mult, std, bounded) in enumerate(rows):
        model_diff = diff >> (k * ncaps)
        truths = [bounded[g] for g in gammas]
        for si in range(card):
            u = k * card + si
            init = inits[u]
            truth = 0
            for gi, mask in enumerate(truths):
                truth |= (mask >> si & 1) << gi
            w = win[init]
            for name, fail in (
                    ("game-vs-bounded", w ^ truth),
                    ("reduction-J", model_diff | (w ^ ar[init])),
                    ("strategy-playouts", bad >> (u * ncaps))):
                tally = tallies[name]
                tally.instances += mult * nb
                if fail & gbits:
                    for gi, g in enumerate(gammas):
                        if fail >> gi & 1:
                            tally.fail(mult, (sent_idx, model_idx, gi, si),
                                       (model, sent, g, model.states[si],
                                        name))
            tallies["reduction-I"].add(
                mult, ar[init] >> nb & 1 == std >> si & 1,
                (sent_idx, model_idx, si),
                (model, sent, None, model.states[si], "reduction-I"))


def _materialize(cex):
    if cex is None or isinstance(cex, dict):
        return cex
    return _cex(*cex)


def _cex(model, sent, gamma, state, prop):
    return {
        "property": prop,
        "model": model.to_json_dict(),
        "formula": F.render(sent),
        "gamma": None if gamma is None else semantics.format_bound(gamma),
        "state": state,
    }


def _new_tallies(names):
    return {name: _Tally() for name, _ in names}


def _main_worker(args):
    (trees, start_idx, max_states, gammas, max_positions, seed,
     samples_per_size) = args
    groups_by_vocab = {v: _card_groups(_model_classes(
        max_states, v, seed, samples_per_size)) for v in _VOCABS}
    tallies = _new_tallies(MAIN_PROPERTIES)
    for k, tree in enumerate(trees):
        sent = F.Sentence(tree)
        _check_sentence(sent, start_idx + k, groups_by_vocab, gammas,
                        max_positions, tallies)
    return tallies


def _split(items, workers, min_parallel, chunks_per_worker=1):
    """Worker count and job size for a sweep runner.

    ``workers`` defaults to one per CPU, at most 8.  One job takes every
    item when there is one worker or fewer than ``min_parallel`` items;
    otherwise each worker gets ``chunks_per_worker`` jobs.
    """
    if workers is None:
        workers = min(os.cpu_count() or 1, 8)
    if workers <= 1 or len(items) < min_parallel:
        return workers, max(1, len(items))
    return workers, max(1, -(-len(items) // (workers * chunks_per_worker)))


def _pool_map(worker, jobs, workers):
    """Run ``worker`` on every job and merge the _Tally dicts it returns.

    Jobs run in a fork pool of ``workers`` processes when there are more
    than one of each, and in this process otherwise.
    """
    if workers <= 1 or len(jobs) <= 1:
        results = map(worker, jobs)
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            results = pool.map(worker, jobs)
    tallies = {}
    for res in results:
        for name, tally in res.items():
            tallies.setdefault(name, _Tally()).merge(tally)
    return tallies


SWEEP_MAX_POSITIONS = 1_000_000  # position cap of one main-sweep game


def run_main_sweep(sentences, max_states=2, gammas=(1, 2, 3, 4, OMEGA),
                   workers=None, max_positions=SWEEP_MAX_POSITIONS, seed=0,
                   samples_per_size=60):
    """Main-sweep tallies over the given sentence corpus."""
    trees = [s.tree() for s in sentences]
    workers, chunk = _split(trees, workers, 64)
    jobs = [(trees[i:i + chunk], i, max_states, gammas, max_positions,
             seed, samples_per_size)
            for i in range(0, len(trees), chunk)]
    tallies = _new_tallies(MAIN_PROPERTIES)
    tallies.update(_pool_map(_main_worker, jobs, workers))
    return tallies


def _start_winners(graph, starts):
    """Winner codes at the positions ``starts`` of ``graph``, solved from
    those positions only, once the whole graph is checked for a cycle:
    a sweep asserts termination of every game it explores."""
    graph.topo_order()
    ids = [graph.pos_id[p] for p in starts]
    win = graph.solve(ids)[0]
    return [win[i] for i in ids]


# ---------------------------------------------------------------------------
# AR sweep: chi agreement and the two-counter game.

def _ar_worker(args):
    codes, check_decrements = args
    tallies = _new_tallies(AR_PROPERTIES)
    for code in codes:
        _check_ar(corpus.model_from_code(*code, corpus.AR_PROPS), code,
                  check_decrements, tallies)
    return tallies


def _check_ar(model, key, check_decrements, tallies):
    """The AR properties of one AR model: chi against the AR winning set,
    and the two-counter game on chi with unit decrements against AR and,
    when ``check_decrements``, against arbitrary decrements."""
    chi_sent = reduction.chi()
    ar_set = reduction.ar_winning_set(model)
    chi_set = semantics.eval_standard(model, chi_sent)
    tallies["ar-chi"].add(
        model.card, ar_set == chi_set, key,
        (model, chi_sent, None, None, "ar-chi"))
    # Counters start at f for every state, so one graph per clock policy
    # holds every start state's game.
    fb = variants.FBoundedGame(model, model.states[0], chi_sent, 1)
    starts = [fb._root(si) for si in range(model.card)]
    unit_win = _start_winners(fb._explore(model.states, True, True), starts)
    if check_decrements:
        full_win = _start_winners(fb._explore(model.states), starts)
    for si, state in enumerate(model.states):
        verdict_e = unit_win[si] == _E
        tallies["fbounded-chi"].add(
            1, verdict_e == (state in ar_set), key,
            (model, chi_sent, None, state, "fbounded-chi"))
        if check_decrements:
            tallies["fbounded-decrements"].add(
                1, (full_win[si] == _E) == verdict_e, key,
                (model, chi_sent, None, state, "fbounded-decrements"))


AR_SAMPLES_PER_SIZE = 200  # seeded AR models per size above three states
DECREMENT_MAX_STATES = 2  # largest AR models checked for arbitrary decrements


def run_ar_sweep(max_states=3, workers=None, seed=0):
    """chi / AR / two-counter agreement over small AR models.

    Exhaustive through three states; larger sizes are seeded samples.
    """
    codes = []
    for n in range(1, min(max_states, 3) + 1):
        codes.extend(corpus.all_model_codes(n, corpus.AR_PROPS))
    for n in range(4, max_states + 1):
        rng = random.Random(f"ar:{seed}:{n}")
        codes.extend((n, rng.getrandbits(n * n), rng.getrandbits(n * 2))
                     for _ in range(AR_SAMPLES_PER_SIZE))
    workers, chunk = _split(codes, workers, 1, chunks_per_worker=4)
    # decrement agreement only runs on the small models; split accordingly
    jobs = []
    small = [c for c in codes if c[0] <= DECREMENT_MAX_STATES]
    large = [c for c in codes if c[0] > DECREMENT_MAX_STATES]
    for src, flag in ((small, True), (large, False)):
        for i in range(0, len(src), chunk):
            jobs.append((src[i:i + chunk], flag))
    tallies = _new_tallies(AR_PROPERTIES)
    tallies.update(_pool_map(_ar_worker, jobs, workers))
    return tallies


# ---------------------------------------------------------------------------
# Clock-policy sweep: greedy vs exhaustive, canonical vs full clock maps.

FULLMAP_MAX_POSITIONS = 500_000


class _FullMapGame(EvalGame):
    """The evaluation game over explicit clock maps of every binder.

    A position keeps one clock slot per Mu/Nu node, in pre-order, and an
    untouched slot holds the clock cap: its codec keeps every slot in
    ``rest``, slot k with weight ``(cap + 1)**k``.  A binder writes its
    own slot; a label jump writes its binder's slot and resets the slots
    of every binder inside the binder's body.  This is the literal clock
    bookkeeping that the canonical truncated tuples compress, kept as an
    oracle for them: it owns its label rules and shares only the
    clock-free rules of GameCore, so binder and label rows both come from
    its ``_decision_row``.  Only winners are read from it, so it always
    offers every clock choice.  Its public positions carry every slot,
    the untouched ones at the clock cap, so ``play``, ``status`` and
    ``validate_strategy`` start from its own root, ``make_position``
    builds them at any node, and its descriptions name each touched
    slot's binder.
    """

    def __init__(self, model, state, sentence, bound, max_positions):
        super().__init__(model, state, sentence, bound, max_positions)
        binders = self.index.mu_nu_nodes
        anc = self.index.active_ancestors
        # The position unit of each binder's slot.
        self._unit = {b: self._SN * self._R ** k
                      for k, b in enumerate(binders)}
        self._resets = {b: tuple(self._unit[x] for x in binders
                                 if b in anc[x])
                        for b in binders}
        self._top = sum(self.clock_cap * u for u in self._unit.values())

    def _root(self, si):
        return si + self._top

    def initial_position(self):
        return self._public(self._root(self.model.state_index(self.start)))

    def make_position(self, state, node, clocks=None):
        """Build a Position from a clock map keyed by binder label name
        (or binder node id), with one slot per binder in pre-order;
        binders left out, or given None, carry the untouched bound."""
        clocks = dict(clocks or {})
        values = []
        for b in self._unit:
            if b in clocks:
                v = clocks.pop(b)
            else:
                v = clocks.pop(self._name[b], None)
            values.append(self.clock_cap if v is None else v)
        if clocks:
            raise ValueError(
                f"clock entries {sorted(map(str, clocks))} do not name "
                f"binders of the sentence")
        pos = Position(state, node, tuple(values))
        self._internal(pos)  # validate
        return pos

    def _internal(self, pos):
        si = self.model.state_index(pos.state)
        if not 0 <= pos.node < self._N:
            raise ValueError(f"node {pos.node} is not in the sentence")
        clocks = tuple(pos.clocks)
        if len(clocks) != len(self._unit):
            raise ValueError(f"a full-map position needs {len(self._unit)} "
                             f"clock values, got {len(clocks)}")
        cap = self.clock_cap
        if any(not isinstance(v, int) or not 0 <= v <= cap for v in clocks):
            raise ValueError(f"full-map clock values must be integers from "
                             f"0 to {cap}, the untouched bound")
        return si + self._S * pos.node + sum(
            v * u for v, u in zip(clocks, self._unit.values()))

    def _public(self, p):
        q, si = divmod(p, self._S)
        return Position(self.model.states[si], q % self._N,
                        tuple(p // u % self._R for u in self._unit.values()))

    def clock_dict(self, pos):
        return {self._name[b]: v for b, v in zip(self._unit, pos.clocks)
                if v != self.clock_cap}

    # The shared clock-free rules with this class's own label rule, so
    # that nothing done to EvalGame's rules reaches this oracle.
    _status_row = GameCore._status_row

    def _label_status(self, p, node):
        gamma = p // self._unit[self._rf[node]] % self._R
        if self._rf_is_mu[node]:
            return _TURN_E if gamma else _WON_A
        return _TURN_A if gamma else _WON_E

    def _fixed_row(self, node, eloise_greedy, abelard_greedy):
        return None

    def _decision_row(self, p, node, eloise_greedy=False,
                      abelard_greedy=False):
        R = self._R
        cap = self.clock_cap
        if self._kind[node] == F.LABEL:
            binder = self._rf[node]
            unit = self._unit[binder]
            top = p // unit % R
            base = self._S * (self._rf_body[node] - node)
            for u in self._resets[binder]:
                base += (cap - p // u % R) * u
        else:
            binder = node
            unit = self._unit[binder]
            top = cap
            base = self._S * (self._children[node][0] - node)
        base -= p // unit % R * unit  # the slot is overwritten
        return [base + g * unit for g in range(top - 1, -1, -1)]

    def _decision_label(self, p, dst):
        node = p // self._S % self._N
        binder = self._rf[node] if self._kind[node] == F.LABEL else node
        return ("set-clock", dst // self._unit[binder] % self._R)


def _mode_worker(args):
    trees, start_idx, max_states, extra, gammas = args
    groups_by_vocab = {v: _card_groups(_model_classes(max_states, v,
                                                      extra=extra))
                       for v in _VOCABS}
    tallies = _new_tallies(MODE_PROPERTIES)
    for k, tree in enumerate(trees):
        sent = F.Sentence(tree)
        for union, members in groups_by_vocab[_sentence_vocab(sent)]:
            for gi, g in enumerate(gammas):
                _check_policies(sent, start_idx + k, union, members, gi, g,
                                tallies)
    return tallies


def _check_policies(sent, sent_idx, union, members, gi, g, tallies):
    """Greedy against exhaustive and canonical against full-map winners
    of one sentence at ``gammas[gi] = g`` on one card group, from one
    graph of each kind on the group's union model.  When one of them
    trips its position cap or has a cycle, the group runs again one
    member at a time, where the error propagates as it always has."""
    model0 = members[0][1]
    cap = semantics.clock_cap(g, model0)  # OMEGA means the member's card
    game = EvalGame(union, union.states[0], sent, cap)
    fm = _FullMapGame(union, union.states[0], sent, cap,
                      FULLMAP_MAX_POSITIONS)
    units = range(len(union.states))
    starts = [game._root(u) for u in units]
    try:
        win_g = _start_winners(game._explore(union.states, True, True),
                               starts)
        win_f = _start_winners(game._explore(union.states, False, False),
                               starts)
        win_m = _start_winners(fm._explore(union.states),
                               [fm._root(u) for u in units])
    except (RuntimeError, GameLimitError):
        if len(members) == 1:
            raise
        for member in members:
            _check_policies(sent, sent_idx, member[1], [member], gi, g,
                            tallies)
        return
    card = model0.card
    for k, (model_idx, model, mult) in enumerate(members):
        for si, state in enumerate(model.states):
            u = k * card + si
            key = (sent_idx, model_idx, gi, si)
            b = win_f[u]
            tallies["greedy-exhaustive"].add(
                mult, win_g[u] == b, key,
                (model, sent, g, state, "greedy-exhaustive"))
            m = win_m[u]
            tallies["canonical-fullmap"].add(
                mult, m == b, key,
                (model, sent, g, state, "canonical-fullmap"))


def run_mode_sweep(sentences, max_states=2, extra_models=(),
                   gammas=(1, 2, 3), workers=None):
    """Greedy/exhaustive and canonical/full-map agreement sweep.

    ``extra_models`` supplies sampled larger models as (code, props)
    pairs, run after the main sweep's model classes up to ``max_states``.
    """
    trees = [s.tree() for s in sentences]
    workers, chunk = _split(trees, workers, 8)
    jobs = [(trees[i:i + chunk], i, max_states, tuple(extra_models), gammas)
            for i in range(0, len(trees), chunk)]
    tallies = _new_tallies(MODE_PROPERTIES)
    tallies.update(_pool_map(_mode_worker, jobs, workers))
    return tallies


# ---------------------------------------------------------------------------
# Normalization soundness.

def run_normalize_checks(sentences, models, gammas=(2,)):
    """Evaluate shadowed-binder variants against their normal forms."""
    tallies = _new_tallies(EXTRA_PROPERTIES)
    for sent_idx, sent in enumerate(sentences):
        shadowed = _shadow_binders(sent)
        norm = F.normalize(shadowed)
        for model_idx, model in enumerate(models):
            ok = (semantics.eval_standard(model, shadowed)
                  == semantics.eval_standard(model, norm))
            for g in gammas:
                bset = semantics.eval_bounded(model, norm, g)
                ok = ok and semantics.eval_bounded(model, shadowed, g) == bset
                if ok:
                    game = EvalGame(model, model.states[0], shadowed, g)
                    win = _start_winners(
                        game._explore(model.states),
                        [game._root(si) for si in range(model.card)])
                    ok = all((w == _E) == (state in bset)
                             for w, state in zip(win, model.states))
            tallies["normalize-soundness"].add(
                1, ok, (sent_idx, model_idx),
                (model, shadowed, None, None, "normalize-soundness"))
    return tallies


def _shadow_binders(sent):
    """Rename every binder to the same label, keeping references intact."""
    return F._rename_binders(sent, lambda name: "X")


# ---------------------------------------------------------------------------
# Counterexample minimization.

def _rerun(cex):
    """Run the sweep's own check of a counterexample dict's property on
    its one model, sentence and bound; returns that property's _Tally.

    Main properties run with the bound as their only gamma, or none when
    the counterexample names no bound.  Any exception propagates.
    """
    model = KripkeModel(cex["model"]["states"],
                        [tuple(e) for e in cex["model"]["edges"]],
                        cex["model"]["val"])
    sent = F.parse(cex["formula"])
    prop = cex["property"]
    gamma = cex["gamma"]
    bound = None if gamma is None else semantics.parse_bound(gamma)
    groups = _card_groups([(model, 1)])
    if prop in dict(MAIN_PROPERTIES):
        tallies = _new_tallies(MAIN_PROPERTIES)
        _check_sentence(sent, 0, {_sentence_vocab(sent): groups},
                        () if bound is None else (bound,),
                        SWEEP_MAX_POSITIONS, tallies)
    elif prop in dict(MODE_PROPERTIES):
        tallies = _new_tallies(MODE_PROPERTIES)
        _check_policies(sent, 0, *groups[0], 0, bound, tallies)
    elif prop in dict(AR_PROPERTIES):
        tallies = _new_tallies(AR_PROPERTIES)
        _check_ar(model, 0, model.card <= DECREMENT_MAX_STATES, tallies)
    else:
        tallies = run_normalize_checks([sent], [model])
    return tallies[prop]


def _recheck(cex):
    """True when the sweep's own check finds no failure on ``cex``; a
    crash propagates."""
    return _rerun(cex).failures == 0


def _failing(cex):
    """The rerun's own counterexample when the property fails on ``cex``
    by its own verdict, else None.  A crash is a different fault, so it
    never counts as reproducing this one."""
    try:
        tally = _rerun(cex)
    except Exception:
        return None
    return tally.cex if tally.failures else None


MINIMIZE_ROUNDS = 50  # shrink steps tried on one counterexample


def _shrinks(cex):
    """Smaller variants of a counterexample dict, in the order tried: drop
    one edge, drop one state from one valuation, take a closed strict
    subsentence, lower a finite bound by one."""
    model = cex["model"]
    edges = model["edges"]
    for i in range(len(edges)):
        yield {**cex, "model": {**model, "edges": edges[:i] + edges[i + 1:]}}
    for p, ws in model["val"].items():
        for i in range(len(ws)):
            val = {**model["val"], p: ws[:i] + ws[i + 1:]}
            yield {**cex, "model": {**model, "val": val}}
    sent = F.parse(cex["formula"])
    for node in range(1, sent.size):
        sub = sent.subsentence(node)
        if not F.free_labels(sub):
            yield {**cex, "formula": F.render(sub)}
    g = cex["gamma"]
    if g is not None and g != "omega" and int(g) > 1:
        yield {**cex, "gamma": str(int(g) - 1)}


def minimize_counterexample(cex):
    """Greedy shrink of a failing instance: drop edges, shrink valuations,
    move to closed subsentences, and lower finite bounds while the
    sweep's own check keeps failing.  Each step keeps the rerun's own
    counterexample, so the state and bound reported are ones at which
    that check fails.  A trial that crashes is not accepted."""
    current = _failing(cex)
    if current is None:
        return cex  # not reproducible in isolation; report as-is
    for _ in range(MINIMIZE_ROUNDS):
        smaller = next((f for f in map(_failing, _shrinks(current))
                        if f is not None and f != current), None)
        if smaller is None:
            break
        current = smaller
    return current


# ---------------------------------------------------------------------------
# Top-level harness.

def run_compare(max_states=2, max_binders=1, gammas=(1, 2, 3, 4, OMEGA),
                seed=0, max_nodes=5, random_count=200, workers=None,
                ar_max_states=3, mode_max_nodes=3, mode_random=60,
                mode_extra_models=12, minimize=True, budget=None):
    """Run every agreement property; returns a CompareReport.

    Models up to ``max_states`` states are enumerated exhaustively; from
    three states up the clock-policy sweep samples ``mode_extra_models``
    models from ``seed``.  The sentence corpus is every normal-form
    sentence with ``max_nodes`` nodes and one binder plus
    ``random_count`` seeded random sentences with up to ``max_binders``
    binders.  A wall-clock ``budget`` (seconds) or a position-cap hit
    cuts later phases and marks the report partial.
    """
    t0 = time.time()
    caps_hit = False
    tallies = _new_tallies(MAIN_PROPERTIES + AR_PROPERTIES + MODE_PROPERTIES
                           + EXTRA_PROPERTIES)

    def over_budget():
        return budget is not None and time.time() - t0 > budget

    try:
        sentences = corpus.all_sentences(max_nodes, 1)
        sentences += corpus.random_sentences(random_count, seed, 9,
                                             max_binders)
        tallies.update(run_main_sweep(sentences, max_states, gammas, workers,
                                      seed=seed))
        if over_budget():
            raise _BudgetExceeded
        tallies.update(run_ar_sweep(ar_max_states, workers, seed=seed))
        if over_budget():
            raise _BudgetExceeded
        rng = random.Random(seed + 1)
        extra = [((3, rng.getrandbits(9), rng.getrandbits(6)), ("p", "q"))
                 for _ in range(mode_extra_models)]
        mode_sents = corpus.all_sentences(mode_max_nodes, 1)
        mode_sents += corpus.random_sentences(mode_random, seed + 2, 9,
                                              max_binders)
        mode_gammas = tuple(g for g in gammas
                            if g is not OMEGA and g <= 3) or (1, 2, 3)
        tallies.update(run_mode_sweep(mode_sents, min(max_states, 2), extra,
                                      mode_gammas, workers))
        if over_budget():
            raise _BudgetExceeded
        norm_sents = corpus.random_sentences(24, seed + 3, 9, 2)
        norm_models = [corpus.random_model(random.Random(seed + 4), n)
                       for n in (1, 2, 2, 3)]
        tallies.update(run_normalize_checks(norm_sents, norm_models))
    except (_BudgetExceeded, GameLimitError):
        caps_hit = True

    properties = []
    for name, desc in (MAIN_PROPERTIES + AR_PROPERTIES + MODE_PROPERTIES
                       + EXTRA_PROPERTIES):
        t = tallies[name]
        cex = t.cex
        if cex is not None and minimize:
            cex = minimize_counterexample(cex)
        properties.append((name, desc, t.instances, t.failures, cex))
    params = {
        "max_states": max_states,
        "max_binders": max_binders,
        "gammas": [semantics.format_bound(g) for g in gammas],
        "seed": seed,
        "max_nodes": max_nodes,
        "random_count": random_count,
        "ar_max_states": ar_max_states,
    }
    return CompareReport(properties, time.time() - t0, params, caps_hit)


class _BudgetExceeded(Exception):
    pass
