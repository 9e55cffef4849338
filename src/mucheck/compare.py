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
map back to each model; the compositional engines still run per model.
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
"""

import functools
import multiprocessing
import os
import random
import time

from . import corpus
from . import formula as F
from . import reduction
from . import semantics
from . import variants
from .game import (ABELARD, ELOISE, EvalGame, GameCore, GameLimitError,
                   StrategyError, _E, _TURN_A, _TURN_E, _WON_A, _WON_E)
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


def _cap_for(bound, model):
    return model.card + 1 if bound is OMEGA else bound


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
    edge carries the value it writes, every other edge -1."""
    kind = game._kind
    pos_list = graph.pos_list
    tags = []
    for (_, node, _), row in zip(pos_list, graph.succs):
        if kind[node] in F.BINDER_KINDS:
            tags.append(tuple(pos_list[j][2][-1] for j in row))
        else:
            tags.append((-1,) * len(row))
    return tags


def _replay(graph, tags, caps, p_flags, q_flags, card=None):
    """Winners and AR membership under every cap in one backward pass.

    Bit b of a position's mask stands for clock-choice cap ``caps[b]``;
    ``tags`` are the graph's edge tags as _edge_tags gives them.
    Returns per-position masks of the caps under which Eloise wins and
    under which the position is in the AR winning set of the position
    model, plus the mask of caps under which the two differ anywhere.
    When the model is a disjoint union of components of ``card`` states
    each (state index si lies in component si // card), bit
    ``c * len(caps) + b`` of that last mask marks cap b in component c.
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
            c = graph.pos_list[i][0] // card if card else 0
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
            bad |= lost << (pos_list[i][0] // period * period * nb)
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
    states, edges, val = [], [], {}
    for k, model in enumerate(models):
        name = {w: f"{k}:{w}" for w in model.states}
        states.extend(name[w] for w in model.states)
        edges.extend((name[a], name[b]) for a, b in model.relation)
        for p, ws in model.valuation.items():
            val.setdefault(p, []).extend(name[w] for w in ws)
    return KripkeModel(states, edges, val)


def _card_groups(pairs):
    """Model classes of one vocabulary, as _model_classes gives them,
    grouped by card: one ``(union, members)`` pair per card, where
    ``members`` lists ``(model_idx, model, mult)`` in component order and
    ``union`` is their disjoint union.

    Play follows the model's edges, so it never leaves a component, and
    the game on a union is the disjoint union of its components' games.
    Every member of a group has the same card, so every clock cap the
    sweeps derive from a bound (_cap_for) is the same for all of them.
    """
    by_card = {}
    for model_idx, (model, mult) in enumerate(pairs):
        by_card.setdefault(model.card, []).append((model_idx, model, mult))
    return [(_disjoint_union([m for _, m, _ in members]), members)
            for members in by_card.values()]


def _check_sentence(sent, sent_idx, groups_by_vocab, gammas, max_positions,
                    tallies):
    """All main-sweep properties for one sentence across its model classes:
    the compositional ones per model, the game ones per card group."""
    dual_sent = F.dual(sent)
    for union, members in groups_by_vocab[_sentence_vocab(sent)]:
        rows = []
        for model_idx, model, mult in members:
            key0 = (sent_idx, model_idx)
            cap0 = max(1, model.card)  # the collapse bound
            std = semantics.eval_standard(model, sent)
            bounded = {}
            for g in (cap0, OMEGA) + gammas:
                if g not in bounded:
                    bounded[g] = semantics.eval_bounded(model, sent, g)
            tallies["card-collapse"].add(
                mult, bounded[cap0] == std, key0,
                (model, sent, cap0, None, "card-collapse"))
            tallies["omega-standard"].add(
                mult, bounded[OMEGA] == std, key0,
                (model, sent, OMEGA, None, "omega-standard"))
            dual_set = semantics.eval_standard(model, dual_sent)
            tallies["duality"].add(
                mult, dual_set == frozenset(model.states) - std, key0,
                (model, sent, None, None, "duality"))
            rows.append((model_idx, model, mult, std, bounded))
        _check_games(sent, sent_idx, union, rows, gammas, max_positions,
                     tallies)


def _check_games(sent, sent_idx, union, rows, gammas, max_positions,
                 tallies):
    """The game properties of one sentence on one card group, from one
    game on the group's union model.

    ``rows`` holds per member ``(model_idx, model, mult, std, bounded)``:
    its standard and bounded truth sets.  When the union's game trips the
    position cap or has a cycle, the group runs again one member at a
    time, so termination and the cap stay per (sentence, model).
    """
    nb = len(gammas)
    gbits = (1 << nb) - 1
    model0 = rows[0][1]
    card = model0.card
    # Bit b < nb of the replay masks is gammas[b]; bit nb is the collapse
    # bound.  The game at the largest cap holds every smaller cap's game
    # as the edges whose announced clock value lies below that cap.
    caps = tuple(_cap_for(g, model0) for g in gammas) + (max(1, card),)
    ncaps = len(caps)
    game = EvalGame(union, union.states[0], sent, max(caps),
                    max_positions=max_positions)
    try:
        graph = game._explore(union.states)
        graph.topo_order()
        acyclic = True
    except (RuntimeError, GameLimitError):
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
        for si, state in enumerate(model.states):
            u = k * card + si
            init = inits[u]
            truth = 0
            for gi, g in enumerate(gammas):
                if state in bounded[g]:
                    truth |= 1 << gi
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
                                       (model, sent, g, state, name))
            tallies["reduction-I"].add(
                mult, bool(ar[init] >> nb & 1) == (state in std),
                (sent_idx, model_idx, si),
                (model, sent, None, state, "reduction-I"))


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


def run_main_sweep(sentences, max_states=2, gammas=(1, 2, 3, 4, OMEGA),
                   workers=None, max_positions=1_000_000, seed=0,
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
    win = graph.winners(ids)
    return [win[i] for i in ids]


def _root_winner(graph):
    """Winner code at the root of a one-state exploration, position 0."""
    return _start_winners(graph, graph.pos_list[:1])[0]


# ---------------------------------------------------------------------------
# AR sweep: chi agreement and the two-counter game.

def _ar_worker(args):
    codes, check_decrements = args
    tallies = _new_tallies(AR_PROPERTIES)
    chi_sent = reduction.chi()
    for n, edge_bits, val_bits in codes:
        model = corpus.model_from_code(n, edge_bits, val_bits,
                                       corpus.AR_PROPS)
        ar_set = reduction.ar_winning_set(model)
        chi_set = semantics.eval_standard(model, chi_sent)
        key = (n, edge_bits, val_bits)
        tallies["ar-chi"].add(
            model.card, ar_set == chi_set, key,
            (model, chi_sent, None, None, "ar-chi"))
        # Counters start at f for every state, so one graph per clock
        # policy holds every start state's game.
        fb = variants.FBoundedGame(model, model.states[0], chi_sent, 1)
        starts = [fb._root(si) for si in range(model.card)]
        unit_win = _start_winners(fb._explore(model.states, True, True),
                                  starts)
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
    return tallies


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
    untouched slot holds the clock cap.  A binder writes its own slot; a
    label jump writes its binder's slot and resets the slots of every
    binder inside the binder's body.  This is the literal clock
    bookkeeping that the canonical truncated tuples compress, kept as an
    oracle for them: it owns its label rules and shares only the
    clock-free rules of GameCore.  Only winners are read from it, so it
    always offers every clock choice.
    """

    def __init__(self, model, state, sentence, bound, max_positions):
        super().__init__(model, state, sentence, bound, max_positions)
        binders = self.index.mu_nu_nodes
        anc = self.index.active_ancestors
        self._slot = {b: k for k, b in enumerate(binders)}
        self._resets = {b: tuple(self._slot[x] for x in binders
                                 if b in anc[x])
                        for b in binders}

    def _root(self, si):
        return (si, 0, (self.clock_cap,) * len(self._slot))

    # The shared clock-free rules with this class's own label rule, so
    # that nothing done to EvalGame's label rule reaches this oracle.
    _status = GameCore._status

    def _label_status(self, ipos):
        node = ipos[1]
        gamma = ipos[2][self._slot[self._rf[node]]]
        if self._rf_is_mu[node]:
            return _TURN_E if gamma else _WON_A
        return _TURN_A if gamma else _WON_E

    def _moves(self, ipos, eloise_greedy=False, abelard_greedy=False):
        si, node, clocks = ipos
        kind = self._kind[node]
        cap = self.clock_cap
        if kind == F.MU or kind == F.NU:
            slot = self._slot[node]
            body = self._children[node][0]
            top = cap
            resets = ()
        elif kind == F.LABEL:
            binder = self._rf[node]
            slot = self._slot[binder]
            body = self._rf_body[node]
            top = clocks[slot]
            resets = self._resets[binder]
        else:
            return EvalGame._moves(self, ipos, eloise_greedy, abelard_greedy)
        out = []
        for g in range(top - 1, -1, -1):
            c2 = list(clocks)
            c2[slot] = g
            for r in resets:
                c2[r] = cap
            out.append((si, body, tuple(c2)))
        return out

    def _decision_label(self, ipos, dst):
        node = ipos[1]
        binder = self._rf[node] if self._kind[node] == F.LABEL else node
        return ("set-clock", dst[2][self._slot[binder]])


def fullmap_winner(model, state, sentence, bound,
                   max_positions=FULLMAP_MAX_POSITIONS):
    """Winner computed with explicit clock maps over every binder."""
    game = _FullMapGame(model, state, sentence, bound, max_positions)
    return ELOISE if _root_winner(game._explore([state])) == _E else ABELARD


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
    cap = _cap_for(g, model0)  # an OMEGA bound means the member's card
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
                ok = ok and (semantics.eval_bounded(model, shadowed, g)
                             == semantics.eval_bounded(model, norm, g))
                game = EvalGame(model, model.states[0], shadowed, g)
                bset = semantics.eval_bounded(model, norm, g)
                for state in model.states:
                    ok = ok and ((_root_winner(game._explore([state])) == _E)
                                 == (state in bset))
            tallies["normalize-soundness"].add(
                1, ok, (sent_idx, model_idx),
                (model, shadowed, None, None, "normalize-soundness"))
    return tallies


def _shadow_binders(sent):
    """Rename every binder to the same label, keeping references intact."""
    return F._rename_binders(sent, lambda name: "X")


# ---------------------------------------------------------------------------
# Counterexample minimization.

def _policy_winners(game, w):
    """Winner codes at ``w`` when both players make only the largest clock
    or counter choice, and when they make every choice: the comparison the
    sweeps run, without the solver's own consistency check."""
    greedy = _root_winner(game._explore([w], True, True))
    full = _root_winner(game._explore([w]))
    return greedy, full


def _recheck(cex):
    """Re-run the failed property on a counterexample dict; True = holds.

    Only a property's own failure signal reads as False (a strategy that
    loses a playout raises StrategyError); any other exception is a crash
    and propagates.
    """
    model = KripkeModel(cex["model"]["states"],
                        [tuple(e) for e in cex["model"]["edges"]],
                        cex["model"]["val"])
    sent = F.parse(cex["formula"])
    prop = cex["property"]
    gamma = cex["gamma"]
    if gamma is not None:
        gamma = semantics.parse_bound(gamma)
    state = cex["state"]
    states = [state] if state else list(model.states)
    if prop == "card-collapse":
        return (semantics.eval_bounded(model, sent, max(1, model.card))
                == semantics.eval_standard(model, sent))
    if prop == "omega-standard":
        return (semantics.eval_bounded(model, sent, OMEGA)
                == semantics.eval_standard(model, sent))
    if prop == "duality":
        return (semantics.eval_standard(model, F.dual(sent))
                == frozenset(model.states)
                - semantics.eval_standard(model, sent))
    if prop == "normalize-soundness":
        norm = F.normalize(sent)
        return (semantics.eval_standard(model, sent)
                == semantics.eval_standard(model, norm))
    if prop == "ar-chi":
        return (reduction.ar_winning_set(model)
                == semantics.eval_standard(model, reduction.chi()))
    for w in states:
        if prop == "game-vs-bounded":
            game = EvalGame(model, w, sent, gamma)
            winner, _ = game.solve("exhaustive")
            bset = semantics.eval_bounded(model, sent, gamma)
            if (winner == ELOISE) != (w in bset):
                return False
        elif prop == "strategy-playouts":
            game = EvalGame(model, w, sent, gamma)
            winner, strat = game.solve("exhaustive")
            try:
                game.validate_strategy(winner, strat)
            except StrategyError:
                return False
        elif prop == "reduction-J":
            game = EvalGame(model, w, sent, gamma)
            winner, _ = game.solve("exhaustive")
            reduced = reduction.build_position_model(model, w, sent, gamma)
            if reduction.solve_ar(reduced.model, reduced.root) \
                    != (winner == ELOISE):
                return False
        elif prop == "reduction-I":
            reduced = reduction.reduce_mc(model, w, sent)
            std = semantics.eval_standard(model, sent)
            if reduction.solve_ar(reduced.model, reduced.root) \
                    != (w in std):
                return False
        elif prop == "greedy-exhaustive":
            greedy, full = _policy_winners(EvalGame(model, w, sent, gamma), w)
            if greedy != full:
                return False
        elif prop == "canonical-fullmap":
            game = EvalGame(model, w, sent, gamma)
            if game.solve("exhaustive")[0] != fullmap_winner(
                    model, w, sent, gamma):
                return False
        elif prop == "fbounded-chi":
            verdict, _ = variants.solve_fbounded(model, w,
                                                 reduction.chi(), 1)
            if (verdict == ELOISE) != reduction.solve_ar(model, w):
                return False
        elif prop == "fbounded-decrements":
            unit, full = _policy_winners(
                variants.FBoundedGame(model, w, reduction.chi(), 1), w)
            if unit != full:
                return False
    return True


def _fails(cex):
    """True when the property fails on ``cex`` by its own verdict.  A crash
    is a different fault, so it never counts as reproducing this one."""
    try:
        return not _recheck(cex)
    except Exception:
        return False


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
    property keeps failing.  A trial that crashes is not accepted."""
    if not _fails(cex):
        return cex  # not reproducible in isolation; report as-is
    current = dict(cex)
    for _ in range(MINIMIZE_ROUNDS):
        smaller = next((t for t in _shrinks(current) if _fails(t)), None)
        if smaller is None:
            break
        current = smaller
    return current


# ---------------------------------------------------------------------------
# Top-level harness.

def run_compare(max_states=2, max_binders=1, gammas=(1, 2, 3, 4, OMEGA),
                seed=0, max_nodes=5, random_count=200, workers=None,
                ar_max_states=3, mode_max_nodes=3, mode_random=60,
                mode_extra_models=12, max_positions=1_000_000,
                minimize=True, budget=None):
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
                                      max_positions, seed=seed))
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
