"""Cross-engine agreement sweeps.

One harness runs every engine-agreement property over exhaustively
enumerated small models and formula corpora: game solving against the
bounded compositional semantics, the card(M) collapse against the
standard semantics, the AR reductions, chi against the AR solver, the
two-counter game against AR, greedy against exhaustive clock policies,
canonical clock tuples against full clock maps, duality, and
normalization soundness.  The main sweep builds one tagged position
graph per (model, sentence) and replays it under every clock bound at
once: each position carries a bitmask with one bit per bound, so one
backward pass yields the winners and AR membership under all bounds and
one forward pass replays every winning strategy.

Models that agree on the propositions a sentence actually mentions are
indistinguishable to every engine, so the sweep runs one representative
per such class and scales the instance counts by the class size.
"""

import functools
import multiprocessing
import os
import time

from . import corpus
from . import formula as F
from . import reduction
from . import semantics
from . import variants
from .game import (ABELARD, ELOISE, EvalGame, GameLimitError, StrategyError,
                   _E, _Graph, _TURN_A, _TURN_E, _WON_A, _WON_E)
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


def _replay(graph, caps, p_flags, q_flags):
    """Winners and AR membership under every cap in one backward pass.

    Bit b of a position's mask stands for clock-choice cap ``caps[b]``.
    Returns per-position masks of the caps under which Eloise wins and
    under which the position is in the AR winning set of the position
    model, plus the mask of caps under which the two differ anywhere.
    """
    full = (1 << len(caps)) - 1
    admit = _admit_masks(tuple(caps))
    block = [full ^ m for m in admit]
    status = graph.status
    succs = graph.succs
    tags = graph.tags
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
        diff |= w ^ a
    return win, ar, diff


def _playouts(graph, caps, win, inits):
    """Replay every first-winning-move strategy against all opponent moves.

    One forward pass over the topological order serves every start and
    cap: bit ``s * len(caps) + b`` of a reach mask stands for the playout
    from ``inits[s]`` under ``caps[b]`` by the player whom ``win`` (masks
    over the same caps, as _replay returns them) names the winner there.
    That player follows the first admitted edge into a position ``win``
    says they win; the opponent follows every admitted edge.
    Returns the mask of playout bits that reach a terminal lost for their
    player or a turn of that player with no such edge.
    """
    nb = len(caps)
    full = (1 << nb) - 1
    rep = 0  # one copy of the cap bits per start
    for s in range(len(inits)):
        rep |= 1 << (s * nb)
    admit = [m * rep for m in _admit_masks(tuple(caps))]
    status = graph.status
    succs = graph.succs
    tags = graph.tags
    reach = [0] * len(status)
    for_e = 0  # playouts Eloise is to win
    for s, init in enumerate(inits):
        for_e |= win[init] << (s * nb)
        reach[init] |= full << (s * nb)
    for_a = (full * rep) ^ for_e
    bad = 0
    for i in graph.topo_order():
        r = reach[i]
        if not r:
            continue
        st = status[i]
        if st == _WON_E:
            bad |= r & for_a
            continue
        if st == _WON_A:
            bad |= r & for_e
            continue
        if st == _TURN_E:
            mine = r & for_e
            theirs = r & for_a
        else:
            mine = r & for_a
            theirs = r & for_e
        for j, t in zip(succs[i], tags[i]):
            a = admit[t]
            wins_e = win[j] * rep
            take = mine & a & (wins_e if st == _TURN_E else ~wins_e)
            reach[j] |= take | (theirs & a)
            mine ^= take
        bad |= mine
    return bad


EXHAUSTIVE_STATES = 2  # sizes enumerated in full; larger sizes are sampled


def _model_classes(max_states, vocab_key, seed=0, samples_per_size=60):
    """Representative models plus class sizes for a proposition subset.

    Sizes up to EXHAUSTIVE_STATES cover every graph and valuation; larger
    sizes contribute ``samples_per_size`` seeded random models each.
    """
    out = []
    props = tuple(sorted(vocab_key))
    for n in range(1, min(max_states, EXHAUSTIVE_STATES) + 1):
        ignored = 2 - len(props)  # dropped propositions: p and/or q
        mult = (1 << n) ** ignored
        for code in corpus.all_model_codes(n, props):
            out.append((corpus.model_from_code(*code, props), mult))
    import random as _random
    for n in range(EXHAUSTIVE_STATES + 1, max_states + 1):
        rng = _random.Random(f"models:{seed}:{n}")
        for _ in range(samples_per_size):
            out.append((corpus.random_model(rng, n, props or ("p", "q")), 1))
    return out


def _sentence_vocab(sent):
    used = set()
    for nid, kind in enumerate(sent.kind):
        if kind in (F.PROP, F.NEGPROP):
            used.add(sent.name[nid])
    return frozenset(used & {"p", "q"})


def _check_sentence(sent, sent_idx, models_by_vocab, gammas, max_positions,
                    tallies):
    """All main-sweep properties for one sentence across its model classes."""
    dual_sent = F.dual(sent)
    vocab = _sentence_vocab(sent)
    nb = len(gammas)
    gbits = (1 << nb) - 1
    pairs = models_by_vocab[vocab]
    for model_idx, (model, mult) in enumerate(pairs):
        card = model.card
        key0 = (sent_idx, model_idx)
        cap0 = max(1, card)  # the collapse bound
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

        # Bit b < nb of the replay masks is gammas[b]; bit nb is cap0.
        caps = tuple(_cap_for(g, model) for g in gammas) + (cap0,)
        game = EvalGame(model, model.states[0], sent, OMEGA,
                        max_positions=max_positions)
        try:
            graph = game._explore(model.states,
                                  binder_choices=tuple(
                                      range(max(caps) - 1, -1, -1)))
            graph.topo_order()
            acyclic = True
        except (RuntimeError, GameLimitError):
            acyclic = False
        tallies["termination"].add(
            mult, acyclic, key0, (model, sent, None, None, "termination"))
        if not acyclic:
            continue
        p_flags, q_flags = reduction._position_valuation(game, graph)
        inits = [graph.pos_id[(si, 0, ())] for si in range(card)]
        win, ar, diff = _replay(graph, caps, p_flags, q_flags)
        bad = _playouts(graph, caps, win, inits)

        # Per start state, bit gi of each mask marks a failure at gammas[gi].
        for si, init in enumerate(inits):
            state = model.states[si]
            truth = 0
            for gi, g in enumerate(gammas):
                if state in bounded[g]:
                    truth |= 1 << gi
            w = win[init]
            for name, fail in (
                    ("game-vs-bounded", w ^ truth),
                    ("reduction-J", diff | (w ^ ar[init])),
                    ("strategy-playouts", bad >> (si * len(caps)))):
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
    (trees, start_idx, max_states, gammas_enc, max_positions, seed,
     samples_per_size) = args
    gammas = tuple(OMEGA if g == "omega" else g for g in gammas_enc)
    vocabs = [frozenset(), frozenset({"p"}), frozenset({"q"}),
              frozenset({"p", "q"})]
    models_by_vocab = {v: _model_classes(max_states, v, seed,
                                         samples_per_size) for v in vocabs}
    tallies = _new_tallies(MAIN_PROPERTIES)
    for k, tree in enumerate(trees):
        sent = F.Sentence(tree)
        _check_sentence(sent, start_idx + k, models_by_vocab, gammas,
                        max_positions, tallies)
    return {name: (t.instances, t.failures, t.cex, t.cex_key)
            for name, t in tallies.items()}


def run_main_sweep(sentences, max_states=2, gammas=(1, 2, 3, 4, OMEGA),
                   workers=None, max_positions=1_000_000, seed=0,
                   samples_per_size=60):
    """Main-sweep tallies over the given sentence corpus."""
    tallies = _new_tallies(MAIN_PROPERTIES)
    gammas_enc = tuple("omega" if g is OMEGA else g for g in gammas)
    trees = [s.tree() for s in sentences]
    if workers is None:
        workers = min(os.cpu_count() or 1, 8)
    if workers <= 1 or len(trees) < 64:
        results = [_main_worker((trees, 0, max_states, gammas_enc,
                                 max_positions, seed, samples_per_size))]
    else:
        chunk = (len(trees) + workers - 1) // workers
        jobs = [(trees[i:i + chunk], i, max_states, gammas_enc,
                 max_positions, seed, samples_per_size)
                for i in range(0, len(trees), chunk)]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            results = pool.map(_main_worker, jobs)
    for res in results:
        for name, (inst, fail, cex, key) in res.items():
            other = _Tally()
            other.instances = inst
            other.failures = fail
            other.cex = cex
            other.cex_key = key
            tallies[name].merge(other)
    return tallies


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
        unit = fb._explore(model.states, True, True)
        unit_win = unit.winners()
        if check_decrements:
            full = fb._explore(model.states)
            full_win = full.winners()
        for si, state in enumerate(model.states):
            start = (si, 0, fb.f, fb.f)
            verdict_e = unit_win[unit.pos_id[start]] == _E
            tallies["fbounded-chi"].add(
                1, verdict_e == (state in ar_set), key,
                (model, chi_sent, None, state, "fbounded-chi"))
            if check_decrements:
                tallies["fbounded-decrements"].add(
                    1, (full_win[full.pos_id[start]] == _E) == verdict_e, key,
                    (model, chi_sent, None, state, "fbounded-decrements"))
    return {name: (t.instances, t.failures, t.cex, t.cex_key)
            for name, t in tallies.items()}


def run_ar_sweep(max_states=3, workers=None, decrement_max_states=2,
                 seed=0, samples_per_size=200):
    """chi / AR / two-counter agreement over small AR models.

    Exhaustive through three states; larger sizes are seeded samples.
    """
    import random as _random
    codes = []
    for n in range(1, min(max_states, 3) + 1):
        codes.extend(corpus.all_model_codes(n, corpus.AR_PROPS))
    for n in range(4, max_states + 1):
        rng = _random.Random(f"ar:{seed}:{n}")
        codes.extend((n, rng.getrandbits(n * n), rng.getrandbits(n * 2))
                     for _ in range(samples_per_size))
    if workers is None:
        workers = min(os.cpu_count() or 1, 8)
    tallies = _new_tallies(AR_PROPERTIES)
    # decrement agreement only runs on the small models; split accordingly
    chunk = max(1, (len(codes) + (workers * 4) - 1) // (workers * 4))
    jobs = []
    small = [c for c in codes if c[0] <= decrement_max_states]
    large = [c for c in codes if c[0] > decrement_max_states]
    for src, flag in ((small, True), (large, False)):
        for i in range(0, len(src), chunk):
            jobs.append((src[i:i + chunk], flag))
    if workers <= 1 or len(jobs) <= 1:
        results = [_ar_worker(job) for job in jobs]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            results = pool.map(_ar_worker, jobs)
    for res in results:
        for name, (inst, fail, cex, key) in res.items():
            other = _Tally()
            other.instances = inst
            other.failures = fail
            other.cex = cex
            other.cex_key = key
            tallies[name].merge(other)
    return tallies


# ---------------------------------------------------------------------------
# Clock-policy sweep: greedy vs exhaustive, canonical vs full clock maps.

_TOP = None


def fullmap_winner(model, state, sentence, bound, max_positions=500_000):
    """Winner computed with explicit clock maps over every binder.

    Keeps one slot per Mu/Nu node, initially untouched; a label jump
    writes the binder's slot and resets every slot inside the binder's
    body.  This is the literal clock bookkeeping that the canonical
    truncated tuples compress, kept as an oracle for them.
    """
    semantics.check_bound(bound)
    if not F.is_normal(sentence):
        sentence = F.normalize(sentence)
    index = F.build_index(sentence)
    kind = sentence.kind
    children = sentence.children
    binders = index.mu_nu_nodes
    slot = {b: i for i, b in enumerate(binders)}
    cap = _cap_for(bound, model)

    # subtree spans in pre-order: node x lies under y iff y <= x < end[y]
    size = sentence.size
    end = [0] * size
    def span(nid):
        stop = nid + 1
        for c in children[nid]:
            stop = span(c)
        end[nid] = stop
        return stop
    span(0)
    reset_slots = {b: tuple(slot[x] for x in binders
                            if children[b][0] <= x < end[children[b][0]])
                   for b in binders}

    val = model._val_mask
    succ = model._succ
    name = sentence.name
    rf = index.rf

    def status(ipos):
        si, node, clocks = ipos
        k = kind[node]
        if k == F.PROP:
            return _WON_E if val.get(name[node], 0) >> si & 1 else _WON_A
        if k == F.NEGPROP:
            return _WON_A if val.get(name[node], 0) >> si & 1 else _WON_E
        if k == F.OR:
            return _TURN_E
        if k == F.AND:
            return _TURN_A
        if k == F.DIAMOND:
            return _TURN_E if succ[si] else _WON_A
        if k == F.BOX:
            return _TURN_A if succ[si] else _WON_E
        if k == F.MU:
            return _TURN_E
        if k == F.NU:
            return _TURN_A
        b = rf[node]
        gamma = clocks[slot[b]]
        gamma = cap if gamma is _TOP else gamma
        if kind[b] == F.MU:
            return _TURN_E if gamma else _WON_A
        return _TURN_A if gamma else _WON_E

    def moves(ipos):
        si, node, clocks = ipos
        k = kind[node]
        if k == F.OR or k == F.AND:
            left, right = children[node]
            return ((si, left, clocks), (si, right, clocks))
        if k == F.DIAMOND or k == F.BOX:
            child = children[node][0]
            return tuple((v, child, clocks) for v in succ[si])
        if k == F.MU or k == F.NU:
            body = children[node][0]
            s = slot[node]
            out = []
            for g in range(cap - 1, -1, -1):
                c2 = list(clocks)
                c2[s] = g
                out.append((si, body, tuple(c2)))
            return tuple(out)
        b = rf[node]
        s = slot[b]
        gamma = clocks[s]
        gamma = cap if gamma is _TOP else gamma
        body = children[b][0]
        out = []
        for g in range(gamma - 1, -1, -1):
            c2 = list(clocks)
            c2[s] = g
            for r in reset_slots[b]:
                c2[r] = _TOP
            out.append((si, body, tuple(c2)))
        return tuple(out)

    init = (model.state_index(state), 0, (_TOP,) * len(binders))
    pos_id = {init: 0}
    pos_list = [init]
    statuses = []
    succs = []
    queue = [init]
    head = 0
    while head < len(queue):
        ipos = queue[head]
        head += 1
        st = status(ipos)
        statuses.append(st)
        if st == _WON_E or st == _WON_A:
            succs.append(())
            continue
        row = []
        for dst in moves(ipos):
            di = pos_id.get(dst)
            if di is None:
                di = len(pos_list)
                if di >= max_positions:
                    raise GameLimitError("full-map position cap exceeded")
                pos_id[dst] = di
                pos_list.append(dst)
                queue.append(dst)
            row.append(di)
        succs.append(tuple(row))
    graph = _Graph(pos_list, pos_id, statuses, succs, [()] * len(pos_list))
    return ELOISE if graph.winners()[0] == _E else ABELARD


def _mode_worker(args):
    (trees, model_codes_by_vocab, gammas_enc, start_idx) = args
    gammas = tuple(OMEGA if g == "omega" else g for g in gammas_enc)
    tallies = _new_tallies(MODE_PROPERTIES)
    for k, tree in enumerate(trees):
        sent = F.Sentence(tree)
        vocab = _sentence_vocab(sent)
        for model_idx, (code, props, mult) in enumerate(
                model_codes_by_vocab[vocab]):
            model = corpus.model_from_code(*code, props)
            for gi, g in enumerate(gammas):
                game = EvalGame(model, model.states[0], sent, g)
                greedy_graph = game._explore(model.states, True, True)
                full_graph = game._explore(model.states, False, False)
                win_g = greedy_graph.winners()
                win_f = full_graph.winners()
                for si in range(model.card):
                    state = model.states[si]
                    key = (start_idx + k, model_idx, gi, si)
                    a = win_g[greedy_graph.pos_id[(si, 0, ())]]
                    b = win_f[full_graph.pos_id[(si, 0, ())]]
                    tallies["greedy-exhaustive"].add(
                        mult, a == b, key,
                        (model, sent, g, state, "greedy-exhaustive"))
                    fm = fullmap_winner(model, state, sent, g)
                    tallies["canonical-fullmap"].add(
                        mult, (fm == ELOISE) == (b == _E), key,
                        (model, sent, g, state, "canonical-fullmap"))
    return {name: (t.instances, t.failures, t.cex, t.cex_key)
            for name, t in tallies.items()}


def run_mode_sweep(sentences, max_states=2, extra_models=(),
                   gammas=(1, 2, 3), workers=None):
    """Greedy/exhaustive and canonical/full-map agreement sweep.

    ``extra_models`` supplies sampled larger models as (code, props)
    pairs; exhaustive enumeration covers sizes up to ``max_states``.
    """
    vocabs = [frozenset(), frozenset({"p"}), frozenset({"q"}),
              frozenset({"p", "q"})]
    codes_by_vocab = {}
    for v in vocabs:
        props = tuple(sorted(v))
        entries = []
        for n in range(1, max_states + 1):
            mult = (1 << n) ** (2 - len(props))
            entries.extend((code, props, mult)
                           for code in corpus.all_model_codes(n, props))
        entries.extend((code, p, 1) for code, p in extra_models)
        codes_by_vocab[v] = entries
    gammas_enc = tuple("omega" if g is OMEGA else g for g in gammas)
    trees = [s.tree() for s in sentences]
    if workers is None:
        workers = min(os.cpu_count() or 1, 8)
    tallies = _new_tallies(MODE_PROPERTIES)
    if workers <= 1 or len(trees) < 8:
        results = [_mode_worker((trees, codes_by_vocab, gammas_enc, 0))]
    else:
        chunk = (len(trees) + workers - 1) // workers
        jobs = [(trees[i:i + chunk], codes_by_vocab, gammas_enc, i)
                for i in range(0, len(trees), chunk)]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            results = pool.map(_mode_worker, jobs)
    for res in results:
        for name, (inst, fail, cex, key) in res.items():
            other = _Tally()
            other.instances = inst
            other.failures = fail
            other.cex = cex
            other.cex_key = key
            tallies[name].merge(other)
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
                    graph = game._explore([state])
                    init = graph.pos_id[(model.state_index(state), 0, ())]
                    ok = ok and ((graph.winners()[init] == _E)
                                 == (state in bset))
            tallies["normalize-soundness"].add(
                1, ok, (sent_idx, model_idx),
                (model, shadowed, None, None, "normalize-soundness"))
    return tallies


def _shadow_binders(sent):
    """Rename every binder to the same label, keeping references intact."""

    def walk(tree, env):
        kind, name, kids = tree
        if kind == F.LABEL:
            return (kind, env.get(name, name), ())
        if kind in F.BINDER_KINDS:
            return (kind, "X", (walk(kids[0], {**env, name: "X"}),))
        return (kind, name, tuple(walk(k, env) for k in kids))

    return F.Sentence(walk(sent.tree(), {}))


# ---------------------------------------------------------------------------
# Counterexample minimization.

def _policy_winners(game, w):
    """Winner codes at ``w`` when both players make only the largest clock
    or counter choice, and when they make every choice: the comparison the
    sweeps run, without the solver's own consistency check."""
    greedy = game._explore([w], True, True).winners()[0]
    full = game._explore([w]).winners()[0]
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


def minimize_counterexample(cex, rounds=50):
    """Greedy shrink of a failing instance: drop edges, shrink valuations,
    move to closed subsentences, and lower finite bounds while the
    property keeps failing.  A trial that crashes is not accepted."""
    if not _fails(cex):
        return cex  # not reproducible in isolation; report as-is
    current = dict(cex)
    for _ in range(rounds):
        improved = False
        model = current["model"]
        # drop one edge
        for i in range(len(model["edges"])):
            trial = dict(current)
            m2 = {"states": model["states"],
                  "edges": model["edges"][:i] + model["edges"][i + 1:],
                  "val": model["val"]}
            trial["model"] = m2
            if _fails(trial):
                current = trial
                improved = True
                break
        if improved:
            continue
        # shrink one valuation entry
        for p, ws in model["val"].items():
            done = False
            for i in range(len(ws)):
                trial = dict(current)
                val2 = dict(model["val"])
                val2[p] = ws[:i] + ws[i + 1:]
                trial["model"] = {"states": model["states"],
                                  "edges": model["edges"], "val": val2}
                if _fails(trial):
                    current = trial
                    done = improved = True
                    break
            if done:
                break
        if improved:
            continue
        # replace by a closed strict subsentence
        sent = F.parse(current["formula"])
        for node in range(1, sent.size):
            sub = sent.subsentence(node)
            if F.free_labels(sub):
                continue
            trial = dict(current)
            trial["formula"] = F.render(sub)
            if _fails(trial):
                current = trial
                improved = True
                break
        if improved:
            continue
        # lower a finite bound
        g = current["gamma"]
        if g is not None and g != "omega" and int(g) > 1:
            trial = dict(current)
            trial["gamma"] = str(int(g) - 1)
            if _fails(trial):
                current = trial
                improved = True
        if not improved:
            break
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

    import random as _random
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
        rng = _random.Random(seed + 1)
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
        norm_models = [corpus.random_model(_random.Random(seed + 4), n)
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
