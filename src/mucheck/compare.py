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
models.  One job function drives both: it calls the sweep's per-group
check on every card group of each sentence's vocabulary.  Play follows
the model's edges and never leaves a component, so that game is the
disjoint union of the models' games, and its results map back to each
model.  The main sweep runs the compositional engines
on that union too, once per bound, and keeps their results as state
bitmasks; states get names only in a counterexample.  Bookkeeping is
per card group: each property adds the group's instances at once and
reads its failures from one union-state mask per bound, whose bit u is
state u % card of member u // card, so failure counts and
counterexamples are those of checking each model on its own.
The main sweep builds its position graph at the largest clock bound and
replays it under every bound at once: each position carries a bitmask
with one bit per bound, so one backward pass yields the winners and AR
membership under all bounds and one forward pass replays every winning
strategy.  The AR recurrence runs on its own only where the game's
statuses and the position model's p_B / q_B flags disagree; elsewhere
it is the game's own recurrence.  The full-clock-map oracle is only a
position codec for the shared game explorer.  The AR sweep's
every-decrement graphs and the clock-policy sweep's exhaustive graphs
are not explored on their own: each is its greedy graph refined in place
(``GameCore._refine``), which reopens the decision rows and builds them
under every choice.  The greedy ids stay, so the start states stay the
first positions, and the numbering stays the topological order when
every rebuilt row points forward; otherwise ``topo_order`` runs Kahn's
pass.  The full-clock-map graphs are still explored on their own.
Every sweep shares one model enumerator and one sweep runner, which cuts
the sweep's items into jobs, runs them in this process or a fork pool
and merges their tallies.

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
from .kripke import KripkeModel, gc_paused
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

    def add(self, count, ok, key, cex):
        """Count ``count`` instances, which fail unless ``ok``."""
        self.instances += count
        if not ok:
            self.fail(count, key, cex)

    def fail(self, count, key, cex):
        """Record ``count`` failures of instances already counted.  ``cex``
        is the argument tuple for _cex, materialized only when ``key`` is
        the smallest so far."""
        self.failures += count
        if self.cex is None or key < self.cex_key:
            self.cex = _cex(*cex)
            self.cex_key = key

    def merge(self, other):
        self.instances += other.instances
        self.failures += other.failures
        if other.cex is not None and (self.cex is None
                                      or other.cex_key < self.cex_key):
            self.cex = other.cex
            self.cex_key = other.cex_key


class CompareReport:
    def __init__(self, properties, elapsed, params, stopped_by=None):
        self.properties = properties  # list of (name, desc, inst, fail, cex)
        self.elapsed = elapsed
        self.params = params
        self.stopped_by = stopped_by  # what cut a partial report short

    @property
    def caps_hit(self):
        return self.stopped_by is not None

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
        if self.caps_hit:
            lines.append(f"stopped by: {self.stopped_by}")
        return "\n".join(lines)

    def to_json_dict(self):
        data = {
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
        if self.caps_hit:
            data["stopped_by"] = self.stopped_by
        return data


@functools.lru_cache(maxsize=64)
def _admit_masks(caps):
    """Per edge tag, the mask of the cap bits whose graph has that edge.

    An edge tagged t announces clock value t, so it exists under every cap
    above t.  Tags run from 0 to max(caps) - 1.
    """
    masks = [0] * max(caps)
    for t in range(max(caps)):
        for b, cap in enumerate(caps):
            if cap > t:
                masks[t] |= 1 << b
    return tuple(masks)


def _edge_tags(game, graph):
    """Per position, the clock value each out-edge announces, or None for
    a row that announces none, which every cap admits in full.

    A binder's row is the game's clock choices in order (its first one
    under a greedy policy), so the tags come from one table over
    ``p % (S * N)``."""
    S = game._S
    choices = game._clock_choices
    by_key = []
    for kind in game._kind:
        by_key += [choices if kind in F.BINDER_KINDS else None] * S
    return list(map(by_key.__getitem__,
                    map(game._SN.__rmod__, graph.pos_list)))


# The (status, p_B, q_B) triples at which the AR rule computes the game's
# value: the same rule, or a terminal whose empty row makes the AR
# disjunction 0 (Abelard has won) or its conjunction full (Eloise has won).
_AGREE = frozenset({
    (_WON_E, True, False), (_WON_E, True, True),
    (_TURN_E, False, True), (_WON_A, False, True),
    (_TURN_A, False, False), (_WON_E, False, False)})


def _flags_agree(game):
    """Whether every (status, p_B, q_B) triple of the game's per-node
    tables agrees, a label's statuses being every code of its label
    rule.  Then the AR recurrence on any graph the game explores is its
    own recurrence, since the explorer gives every terminal an empty
    row."""
    p_table, q_table = reduction._valuation_tables(game)
    for st, label, p, q in set(zip(game._stat, game._label_table(),
                                   p_table, q_table)):
        for code in (st,) if label is None else label[2]:
            if (code, p, q) not in _AGREE:
                return False
    return True


def _backward(graph, tags, admit, block, full, status):
    """Per position, the mask of the caps under which Eloise wins by the
    rules that ``status`` gives, in one pass over the reversed
    topological order."""
    succs = graph.succs
    out = [0] * len(status)
    for i in reversed(graph.topo_order()):
        st = status[i]
        # A stuck mover loses: an empty OR is 0, an empty AND all ones.
        if st == _WON_E:
            v = full
        elif st == _WON_A:
            v = 0
        elif st == _TURN_E:
            v = 0
            if tags[i] is None:
                for j in succs[i]:
                    v |= out[j]
            else:
                for j, t in zip(succs[i], tags[i]):
                    v |= admit[t] & out[j]
        else:
            v = full
            if tags[i] is None:
                for j in succs[i]:
                    v &= out[j]
            else:
                for j, t in zip(succs[i], tags[i]):
                    v &= out[j] | block[t]
        out[i] = v
    return out


def _replay(graph, tags, caps, p_flags=None, q_flags=None, card=None):
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

    The AR rule is the game rule of a status code: p_B wins, q_B is a
    disjunction, and any other position a conjunction.  The flags are
    None when the caller found the game's tables to agree with them
    (_flags_agree); then the two recurrences are the same function (by
    induction over the topological order), so the AR masks are a copy
    of the winners and nothing differs.  Given flags, the AR recurrence
    runs on its own.
    """
    full = (1 << len(caps)) - 1
    admit = _admit_masks(tuple(caps))
    block = [full ^ m for m in admit]
    win = _backward(graph, tags, admit, block, full, graph.status)
    if p_flags is None:
        return win, list(win), 0
    ar = _backward(graph, tags, admit, block, full,
                   [_WON_E if p else _TURN_E if q else _TURN_A
                    for p, q in zip(p_flags, q_flags)])
    diff = 0
    for p, w, a in zip(graph.pos_list, win, ar):
        if w != a:
            c = p % graph.states // card if card else 0
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
            if tags[i] is None:
                for j in succs[i]:
                    take = mine_e & win[j] * rep
                    reach_e[j] |= take
                    reach_a[j] |= mine_a
                    mine_e ^= take
            else:
                for j, t in zip(succs[i], tags[i]):
                    a = admit[t]
                    take = mine_e & a & win[j] * rep
                    reach_e[j] |= take
                    reach_a[j] |= mine_a & a
                    mine_e ^= take
            lost = mine_e
        else:
            if tags[i] is None:
                for j in succs[i]:
                    take = mine_a & ~(win[j] * rep)
                    reach_a[j] |= take
                    reach_e[j] |= mine_e
                    mine_a ^= take
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


def _columns(digits, width):
    """Per bit b < width, the mask whose bit u is bit ``u * width + b`` of
    the binary numeral ``digits``, whose length is a multiple of width."""
    return [int(digits[width - 1 - b::width], 2) for b in range(width)]


def _check_games(sent, sent_idx, union, members, tallies, gammas,
                 max_positions):
    """The main-sweep properties of one sentence on one card group, from
    one game on the group's union model.

    ``members`` lists the group's ``(model_idx, model, mult)``.  The
    compositional engines run on the union too (semantics.eval_group):
    one call for the sentence, one for its dual and one per distinct
    bound, each giving a union-state bitmask.  Each property adds its
    instances for the whole group at once, and its failures are the set
    bits of one union-state mask per bound, which _record maps back to
    members and states.  When the union's game trips the position cap
    or has a cycle, the group runs again one member at a time, so
    termination and the cap stay per (sentence, model): there a cycle
    fails termination, and a cap hit propagates.
    """
    nb = len(gammas)
    model0 = members[0][1]
    card = model0.card
    # Bit b < nb of the replay masks is gammas[b]; bit nb is the collapse
    # bound.  The game at the largest cap holds every smaller cap's game
    # as the edges whose announced clock value lies below that cap.
    cap0 = max(1, card)
    caps = tuple(semantics.clock_cap(g, model0) for g in gammas) + (cap0,)
    if max(caps) > max_positions:
        # _admit_masks keeps one mask per clock value.
        raise GameLimitError(f"clock cap {max(caps)} is above the position "
                             f"cap {max_positions}")
    game = EvalGame(union, union.states[0], sent, max(caps),
                    max_positions=max_positions)
    try:
        graph = game._explore(union.states)
        graph.topo_order()
        acyclic = True
    except (RuntimeError, GameLimitError) as exc:
        if len(members) > 1:
            for member in members:
                _check_games(sent, sent_idx, member[1], [member], tallies,
                             gammas, max_positions)
            return
        if isinstance(exc, GameLimitError):
            raise GameLimitError(
                f"{exc}: {F.render(sent)} on the model "
                f"{json.dumps(model0.to_json_dict())}") from None
        acyclic = False
    std = semantics.eval_group(union, model0, sent)
    dual = semantics.eval_group(union, model0, F.dual(sent))
    # Keyed by bound, not by iteration count: the standard result is never
    # derived from a bounded one, nor one bound's from another's.
    bounded = {}
    for g in (cap0, OMEGA) + gammas:
        if g not in bounded:
            bounded[g] = semantics.eval_group(union, model0, sent, g)
    record = functools.partial(_record, tallies, members, sent, sent_idx)
    mults = sum(mult for _, _, mult in members)
    full = union._full_mask
    for name, gamma, mask in (
            ("card-collapse", cap0, bounded[cap0] ^ std),
            ("omega-standard", OMEGA, bounded[OMEGA] ^ std),
            ("duality", None, dual ^ full & ~std),
            ("termination", None, 0 if acyclic else full)):
        tallies[name].instances += mults
        record(name, mask, gamma, per_model=True)
    if not acyclic:
        return
    flags = (None, None) if _flags_agree(game) \
        else reduction._position_valuation(game, graph)
    tags = _edge_tags(game, graph)
    # The explorer numbers the roots first: position u starts at state u.
    n = union.card
    win, ar, diff = _replay(graph, tags, caps, *flags, card)
    bad = _playouts(graph, tags, caps, win, range(n), card)
    # Per cap b, masks over union states: bit u of column b is bit b of
    # the value at state u.
    ncaps = nb + 1
    digits = f"{{:0{ncaps}b}}".format
    wins, ars = win[:n], ar[:n]
    win_cols = _columns("".join(map(digits, reversed(wins))), ncaps)
    ar_cols = win_cols if ars == wins \
        else _columns("".join(map(digits, reversed(ars))), ncaps)
    bad_cols = _columns(f"{bad:0{n * ncaps}b}", ncaps) if bad \
        else [0] * ncaps
    # diff marks cap b in component c at bit c * ncaps + b; it fails
    # every state of that component.
    j_cols = [w ^ a for w, a in zip(win_cols, ar_cols)]
    while diff:
        c, b = divmod(diff.bit_length() - 1, ncaps)
        j_cols[b] |= model0._full_mask << c * card
        diff &= ~(1 << c * ncaps + b)
    for name, cols in (("game-vs-bounded",
                        [w ^ bounded[g] for w, g in zip(win_cols, gammas)]),
                       ("reduction-J", j_cols),
                       ("strategy-playouts", bad_cols)):
        tallies[name].instances += mults * card * nb
        for gi, g in enumerate(gammas):
            record(name, cols[gi], g, gi)
    tallies["reduction-I"].instances += mults * card
    record("reduction-I", ar_cols[nb] ^ std)


def _record(tallies, members, sent, sent_idx, name, mask, gamma=None,
            gi=None, per_model=False):
    """Record the failures of property ``name`` that ``mask`` marks over
    the union states of a card group: bit u is state ``u % card`` of
    member ``u // card``.  A per-model property fails once per member
    with any bit set, keyed ``(sent_idx, model_idx)``; any other fails
    once per bit, keyed ``(sent_idx, model_idx, si)``, or
    ``(sent_idx, model_idx, gi, si)`` at the bound ``gammas[gi]``."""
    tally = tallies[name]
    card = members[0][1].card
    while mask:
        u = (mask & -mask).bit_length() - 1
        k, si = divmod(u, card)
        model_idx, model, mult = members[k]
        if per_model:
            mask &= -1 << (k + 1) * card
            key, state = (sent_idx, model_idx), None
        else:
            mask ^= 1 << u
            key = (sent_idx, model_idx, si) if gi is None \
                else (sent_idx, model_idx, gi, si)
            state = model.states[si]
        tally.fail(mult, key, (model, sent, gamma, state, name))


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


def _union_job(args):
    """One job of the main or clock-policy sweep: for each sentence of its
    chunk, ``check(sent, sent_idx, union, members, tallies, *check_args)``
    on every card group of the sentence's vocabulary, into tallies of
    ``properties``.  Each vocabulary's groups are built once per job, the
    first time a sentence needs them, from
    ``_model_classes(max_states, vocab, **model_kw)``."""
    (trees, start_idx, properties, check, max_states, model_kw,
     *check_args) = args
    groups_by_vocab = {}
    tallies = _new_tallies(properties)
    for k, tree in enumerate(trees):
        sent = F.Sentence(tree)
        vocab = _sentence_vocab(sent)
        groups = groups_by_vocab.get(vocab)
        if groups is None:
            groups = groups_by_vocab[vocab] = _card_groups(
                _model_classes(max_states, vocab, **model_kw))
        for union, members in groups:
            check(sent, start_idx + k, union, members, tallies, *check_args)
    return tallies


def _run_sweep(properties, worker, items, workers, min_parallel, *args,
               chunks_per_worker=1):
    """The sweep runner: run ``worker`` on ``items`` cut into jobs and
    merge the _Tally dicts it returns into fresh tallies of
    ``properties``.

    A job is ``(chunk, start, *args)``: a slice of ``items`` and the
    index of its first item.  ``workers`` defaults to one per CPU, at
    most 8.  One job takes every item when there is one worker or fewer
    than ``min_parallel`` items; otherwise each worker gets
    ``chunks_per_worker`` jobs.  Jobs run in a fork pool of one process
    per worker, job and CPU, whichever is fewest, when that is more than
    one, and in this process otherwise, each with the cyclic GC paused
    (_run_job).  So the job split depends on ``workers`` alone, and a
    huge ``workers`` starts no more processes than there are CPUs.
    """
    if workers is None:
        workers = min(os.cpu_count() or 1, 8)
    if workers <= 1 or len(items) < min_parallel:
        chunk = max(1, len(items))
    else:
        chunk = max(1, -(-len(items) // (workers * chunks_per_worker)))
    jobs = [(items[i:i + chunk], i, *args)
            for i in range(0, len(items), chunk)]
    run = functools.partial(_run_job, worker)
    processes = min(workers, len(jobs), os.cpu_count() or 1)
    if processes <= 1:
        results = map(run, jobs)
    else:
        import multiprocessing  # only a pool needs it; kept off start-up

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes) as pool:
            results = pool.map(run, jobs)
    tallies = _new_tallies(properties)
    for res in results:
        for name, tally in res.items():
            tallies[name].merge(tally)
    return tallies


def _run_job(worker, job):
    """``worker(job)`` with the cyclic GC paused (gc_paused): a job
    allocates millions of small acyclic objects.  A module-level function,
    so that a pool can pickle it."""
    with gc_paused():
        return worker(job)


SWEEP_MAX_POSITIONS = 1_000_000  # position cap of one main-sweep game


def run_main_sweep(sentences, max_states=2, gammas=(1, 2, 3, 4, OMEGA),
                   workers=None, max_positions=SWEEP_MAX_POSITIONS, seed=0,
                   samples_per_size=60):
    """Main-sweep tallies over the given sentence corpus."""
    return _run_sweep(MAIN_PROPERTIES, _union_job,
                      [s.tree() for s in sentences], workers, 64,
                      MAIN_PROPERTIES, _check_games, max_states,
                      {"seed": seed, "samples_per_size": samples_per_size},
                      gammas, max_positions)


# ---------------------------------------------------------------------------
# AR sweep: chi agreement and the two-counter game.

def _ar_worker(args):
    codes, _ = args
    tallies = _new_tallies(AR_PROPERTIES)
    for code in codes:
        _check_ar(corpus.model_from_code(*code, corpus.AR_PROPS), code,
                  tallies)
    return tallies


def _check_ar(model, key, tallies):
    """The AR properties of one AR model: chi against the AR winning set,
    and the two-counter game on chi with unit decrements against AR and,
    up to DECREMENT_MAX_STATES states, against arbitrary decrements."""
    chi_sent = reduction.chi()
    ar_set = reduction.ar_winning_set(model)
    chi_set = semantics.eval_standard(model, chi_sent)
    tallies["ar-chi"].add(
        model.card, ar_set == chi_set, key,
        (model, chi_sent, None, None, "ar-chi"))
    # Counters start at f for every state, so one graph per clock policy
    # holds every start state's game, and the every-decrement graph is the
    # unit graph refined in place.  Every sweep asserts termination of
    # each graph it explores, and winners() checks the whole graph.
    fb = variants.FBoundedGame(model, model.states[0], chi_sent, 1)
    graph = fb._explore(model.states, True, True)
    unit_win = graph.winners(model.card)
    full_win = (fb._refine(graph).winners(model.card)
                if model.card <= DECREMENT_MAX_STATES else None)
    for si, state in enumerate(model.states):
        verdict_e = unit_win[si] == _E
        tallies["fbounded-chi"].add(
            1, verdict_e == (state in ar_set), key,
            (model, chi_sent, None, state, "fbounded-chi"))
        if full_win is not None:
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
    return _run_sweep(AR_PROPERTIES, _ar_worker, codes, workers, 1,
                      chunks_per_worker=4)


# ---------------------------------------------------------------------------
# Clock-policy sweep: greedy vs exhaustive, canonical vs full clock maps.

FULLMAP_MAX_POSITIONS = 500_000


class _FullMapGame(GameCore):
    """The evaluation game over explicit clock maps of every binder, as a
    plain position codec for the shared explorer.

    A position keeps one clock slot per Mu/Nu node, in pre-order, and an
    untouched slot holds the clock cap ``cap``: ``rest`` keeps slot k
    with weight ``(cap + 1)**k``, and ``_root`` starts every slot at the
    cap.  A binder writes its own slot; a label jump writes its binder's
    slot and resets the slots of every binder inside the binder's body.
    This is the literal clock bookkeeping that the canonical truncated
    tuples compress, kept as an oracle for them: it shares only the
    clock-free rules of GameCore, so binder and label rows both come
    from its ``_decision_row``.  Only the winners of its explored graphs
    are read, so it always offers every clock choice.  It has no public
    position API: ``_public`` decodes a position for the tests, and
    GameCore's ``status`` and ``legal_moves``, and ``play`` with a
    callable player, raise AttributeError, since it gives no
    ``_internal``.  ``validate_strategy`` and ``play`` with strategies
    walk its ints from ``_root``.  It has no public ``solve``; a strategy
    that ``GameCore._solve`` returns for it is read as its pick table of
    ints, with no ``_public`` or ``_decision_label``, unless an illegal
    binder or label move must be named, which raises AttributeError.  A
    strategy given as a ``moves`` dict is looked up through ``_public``,
    so they raise StrategyError at the first winner's turn that it leaves
    out, and AttributeError where it names a binder or label move, since
    the oracle gives no ``_decision_label`` to match it with.
    """

    _decision_kinds = (F.MU, F.NU, F.LABEL)

    def __init__(self, model, state, sentence, cap, max_positions):
        super().__init__(model, state, sentence, max_positions)
        self.clock_cap = cap
        self._R = R = cap + 1
        binders = self.index.mu_nu_nodes
        anc = self.index.active_ancestors
        # The position unit of each binder's slot.
        self._unit = {b: self._SN * R ** k for k, b in enumerate(binders)}
        self._resets = {b: tuple(self._unit[x] for x in binders
                                 if b in anc[x])
                        for b in binders}
        self._top = cap * sum(self._unit.values())

    def _root(self, si):
        return si + self._top

    def _public(self, p):
        q, si = divmod(p, self._S)
        return Position(self.model.states[si], q % self._N,
                        tuple(p // u % self._R for u in self._unit.values()))

    def _label_rule(self, node):
        # The binder's own slot decides: 0 loses for the label's owner.
        # The codes are written out here, so that the oracle shares no
        # label rule with the canonical game it checks.
        codes = (_WON_A, _TURN_E) if self._rf_is_mu[node] \
            else (_WON_E, _TURN_A)
        return self._unit[self._rf[node]], self._R, codes

    def _fixed_row(self, node, eloise_greedy, abelard_greedy):
        return None

    def _decision_row(self, p, node):
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
        return range(base + (top - 1) * unit, base - unit, -unit)


def _check_policies(sent, sent_idx, union, members, tallies, gammas):
    """Greedy against exhaustive and canonical against full-map winners
    of one sentence at every bound of ``gammas`` on one card group, from
    one graph of each kind per bound on the group's union model; the
    exhaustive graph is the greedy one refined in place.  When
    one of them trips its position cap or has a cycle, the group runs
    again one member at a time, where the error propagates as it always
    has; so every graph is explored before any tally changes.  Each
    property adds its instances for the whole group at once, and _record
    takes its failures from the mask of the union states where its
    winner differs from the exhaustive one."""
    model0 = members[0][1]
    n = union.card
    wins = []
    try:
        for g in gammas:
            cap = semantics.clock_cap(g, model0)  # OMEGA: the member's card
            game = EvalGame(union, union.states[0], sent, cap)
            fm = _FullMapGame(union, union.states[0], sent, cap,
                              FULLMAP_MAX_POSITIONS)
            graph = game._explore(union.states, True, True)
            win_g = graph.winners(n)
            wins.append((win_g, game._refine(graph).winners(n),
                         fm._explore(union.states).winners(n)))
    except (RuntimeError, GameLimitError):
        if len(members) == 1:
            raise
        for member in members:
            _check_policies(sent, sent_idx, member[1], [member], tallies,
                            gammas)
        return
    count = model0.card * sum(mult for _, _, mult in members)
    for gi, (g, (win_g, win_f, win_m)) in enumerate(zip(gammas, wins)):
        for name, win in (("greedy-exhaustive", win_g),
                          ("canonical-fullmap", win_m)):
            tallies[name].instances += count
            if win != win_f:
                _record(tallies, members, sent, sent_idx, name,
                        sum(1 << u for u in range(n) if win[u] != win_f[u]),
                        g, gi)


def run_mode_sweep(sentences, max_states=2, extra_models=(),
                   gammas=(1, 2, 3), workers=None):
    """Greedy/exhaustive and canonical/full-map agreement sweep.

    ``extra_models`` supplies sampled larger models as (code, props)
    pairs, run after the main sweep's model classes up to ``max_states``.
    """
    return _run_sweep(MODE_PROPERTIES, _union_job,
                      [s.tree() for s in sentences], workers, 8,
                      MODE_PROPERTIES, _check_policies, max_states,
                      {"extra": tuple(extra_models)}, gammas)


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
                    win = game._explore(model.states).winners(model.card)
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
    group = _card_groups([(model, 1)])[0]
    if prop in dict(MAIN_PROPERTIES):
        tallies = _new_tallies(MAIN_PROPERTIES)
        _check_games(sent, 0, *group, tallies,
                     () if bound is None else (bound,), SWEEP_MAX_POSITIONS)
    elif prop in dict(MODE_PROPERTIES):
        tallies = _new_tallies(MODE_PROPERTIES)
        _check_policies(sent, 0, *group, tallies, (bound,))
    elif prop in dict(AR_PROPERTIES):
        tallies = _new_tallies(AR_PROPERTIES)
        _check_ar(model, 0, tallies)
    else:
        tallies = run_normalize_checks([sent], [model])
    return tallies[prop]


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
    t0 = time.perf_counter()
    stopped_by = None
    tallies = _new_tallies(MAIN_PROPERTIES + AR_PROPERTIES + MODE_PROPERTIES
                           + EXTRA_PROPERTIES)
    sentences = corpus.all_sentences(max_nodes, 1)
    sentences += corpus.random_sentences(random_count, seed, 9, max_binders)
    rng = random.Random(seed + 1)
    extra = [((3, rng.getrandbits(9), rng.getrandbits(6)), ("p", "q"))
             for _ in range(mode_extra_models)]
    mode_sents = corpus.all_sentences(mode_max_nodes, 1)
    mode_sents += corpus.random_sentences(mode_random, seed + 2, 9,
                                          max_binders)
    mode_gammas = tuple(g for g in gammas
                        if g is not OMEGA and g <= 3) or (1, 2, 3)
    norm_sents = corpus.random_sentences(24, seed + 3, 9, 2)
    norm_models = [corpus.random_model(random.Random(seed + 4), n)
                   for n in (1, 2, 2, 3)]
    phases = (
        functools.partial(run_main_sweep, sentences, max_states, gammas,
                          workers, seed=seed),
        functools.partial(run_ar_sweep, ar_max_states, workers, seed=seed),
        functools.partial(run_mode_sweep, mode_sents, min(max_states, 2),
                          extra, mode_gammas, workers),
        functools.partial(run_normalize_checks, norm_sents, norm_models),
    )
    for k, phase in enumerate(phases):
        if k and budget is not None and time.perf_counter() - t0 > budget:
            stopped_by = f"the wall-clock budget of {budget:g}s ran out"
            break
        try:
            tallies.update(phase())
        except GameLimitError as exc:
            stopped_by = str(exc)
            break

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
    return CompareReport(properties, time.perf_counter() - t0, params,
                         stopped_by)
