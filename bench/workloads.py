"""The benchmark workloads.

Each workload loads one layer heavily and the others lightly:

eval-game
    ``mucheck eval --json`` in greedy mode on family models and seeded
    random AR models.  The game layer (exploration, topological order,
    backward induction, strategy) does nearly all the work; the
    compositional engine runs only in the untimed check.
eval-standard
    ``mucheck eval --semantics standard`` on large, deep models.  The
    semantics layer does nearly all the work and the game layer none.
    Deep models (long chains, an exported position model) need many
    iterates per fixpoint; seeded random graphs converge in a few and
    would hide the states-times-iterates cost.  Also covers
    ``load_model`` on multi-MB JSON.
reduce-export
    ``mucheck reduce --out -`` with stdout captured, then ``load_model``
    and ``solve_ar`` on the text.  The same explicit explorer as eval-game,
    but the graph is written out instead of solved, so a faster solver
    should leave this workload unchanged.  Also covers the JSON write and
    read.
sweep
    The public sweep runners ``compare.run_main_sweep``, ``run_ar_sweep``
    and ``run_mode_sweep`` on one worker, on slices of the acceptance
    corpora: millions of tiny instances, where per-instance cost (index
    builds, semantics on 1-2 state models, per-bound replays) dominates.
    The ``compare`` CLI is not used: its clock-policy corpus is fixed and
    takes about half a minute on one worker.

A workload function takes a work directory, the seed and a size name
("full" or "smoke") and returns its operations.  Only ``Op.run`` is
timed.  ``Op.digest`` turns run's output into a summary and counters;
``Op.expect`` computes the summary another engine (or a stored exact
count) says run must produce.  The seed picks the random AR models and the
sweep's random sentences; everything else is fixed.
"""

import contextlib
import hashlib
import io
import json
import os
import random

import mucheck
from mucheck import cli, compare, corpus

FORMULAS = {
    "phi*": "nu X. [] mu Y. (<>Y | (p & X))",
    "nu-mu": "nu X. ([]X & mu Y. (p | <>Y))",
    "three": "mu Z. nu X. [] mu Y. ((<>Y & q) | (p & X) | <>Z)",
    "eventually": "mu X. (p | []X)",
    "chi": mucheck.render(mucheck.chi()),
}
MAIN_GAMMAS = (1, 2, 3, 4, mucheck.OMEGA)
MODE_GAMMAS = (1, 2, 3)

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


class CheckError(Exception):
    """An oracle could not confirm what an operation must return."""


class Op:
    """One benchmark operation.

    ``reference`` holds counters that may legitimately change (position
    counts): a difference is reported, not failed.
    """

    __slots__ = ("name", "run", "digest", "expect", "reference")

    def __init__(self, name, run, digest, expect, reference=None):
        self.name = name
        self.run = run
        self.digest = digest
        self.expect = expect
        self.reference = reference or {}


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _save(workdir, name, model):
    path = os.path.join(workdir, name + ".json")
    mucheck.save_model(model, path)
    return path


def _bound(text):
    return mucheck.OMEGA if text == "omega" else int(text)


def _verdict_summary(truth):
    return (0, "true") if truth else (1, "false")


def _eval_op(name, path, state, formula, semantics, expect, positions_key,
             reference=None):
    argv = ["eval", "--model", path, "--state", state, "--formula", formula,
            "--semantics", semantics, "--json"]

    def digest(raw):
        code, out, _err = raw
        counts = {"game.cap_hits": int(code == 11)}
        if code not in (0, 1):
            return (code, None), counts
        data = json.loads(out)
        if positions_key:
            counts[positions_key] = data["positions"]
        return (code, data["verdict"]), counts

    return Op(name, lambda: _cli(argv), digest, expect, reference)


# ---------------------------------------------------------------------------
# eval-game

def eval_game(workdir, seed, size):
    cfg = EXPECTED["eval-game"][size]
    ops = []
    for fam, n, key, semantics in cfg["families"]:
        model = mucheck.generate_family(fam, n)
        formula = FORMULAS[key]
        name = f"{key}/{fam}({n})/{semantics}"
        path = _save(workdir, f"{fam}{n}", model)
        bound = _bound(semantics.split(":")[-1])

        def expect(model=model, formula=formula, bound=bound):
            sat = mucheck.eval_bounded(model, mucheck.parse(formula), bound)
            return _verdict_summary("w_0" in sat)

        ops.append(_eval_op(name, path, "w_0", formula, semantics, expect,
                            "game.positions", cfg["reference"].get(name)))

    # Random AR models for chi under fbounded:1, drawn until both verdicts
    # are equally represented so the mix (and so the cost) is the same for
    # every seed.
    n, per_verdict = cfg["ar_states"], cfg["ar_per_verdict"]
    rng = random.Random(f"eval-game:{seed}")
    picked = {True: [], False: []}
    while min(len(v) for v in picked.values()) < per_verdict:
        model = corpus.random_ar_model(rng, n)
        truth = mucheck.solve_ar(model, model.states[0])
        if len(picked[truth]) < per_verdict:
            picked[truth].append(model)
    for truth in (True, False):
        for k, model in enumerate(picked[truth]):
            name = f"chi/ar{n}-{truth}-{k}/fbounded:1"
            path = _save(workdir, f"ar{n}-{truth}-{k}", model)

            def expect(model=model):
                return _verdict_summary(
                    mucheck.solve_ar(model, model.states[0]))

            ops.append(_eval_op(name, path, model.states[0], FORMULAS["chi"],
                                "fbounded:1", expect,
                                "variants.fbounded_positions"))
    return ops


# ---------------------------------------------------------------------------
# eval-standard

def eval_standard(workdir, seed, size):
    """Every instance has a closed-form verdict for all n.  The check
    confirms it with the game at small n and, for chi, with the AR solver
    on the benchmarked model itself."""
    cfg = EXPECTED["eval-standard"][size]
    ops = []
    for fam, n, key, truth in cfg["instances"]:
        formula = FORMULAS[key]
        if fam == "export":
            # chi on the exported position model of daggerN(n)/phi*/omega.
            def build(m):
                reduced = mucheck.build_position_model(
                    mucheck.generate_family("daggerN", m), "w_0",
                    mucheck.parse(FORMULAS["phi*"]), mucheck.OMEGA)
                return reduced.model, reduced.root
            model, start = build(n)
            name = f"{key}/export(daggerN({n}))"
        else:
            def build(m, fam=fam):
                model = mucheck.generate_family(fam, m)
                return model, model.states[0]
            model, start = build(n)
            name = f"{key}/{fam}({n})"
        path = _save(workdir, f"{fam}{n}", model)

        def expect(build=build, key=key, formula=formula, truth=truth,
                   model=model, start=start, name=name):
            sent = mucheck.parse(formula)
            for m in (1, 2, 3):
                winner, _ = mucheck.EvalGame(*build(m), sent,
                                             mucheck.OMEGA).solve()
                if (winner == mucheck.ELOISE) != truth:
                    raise CheckError(f"{name}: the game contradicts the "
                                     f"closed form at n={m}")
            if key == "chi" and mucheck.solve_ar(model, start) != truth:
                raise CheckError(f"{name}: the AR solver contradicts the "
                                 "closed form")
            return _verdict_summary(truth)

        ops.append(_eval_op(name, path, start, formula, "standard", expect,
                            None))
    return ops


# ---------------------------------------------------------------------------
# reduce-export

def _info(text, key):
    for line in text.splitlines():
        if line.startswith(key + ": "):
            return line.split(": ", 1)[1]
    raise ValueError(f"reduce printed no {key!r} line")


def reduce_export(workdir, seed, size):
    cfg = EXPECTED["reduce-export"][size]
    ops = []
    for fam, n, key, gamma, tree in cfg["instances"]:
        model = mucheck.generate_family(fam, n)
        formula = FORMULAS[key]
        path = _save(workdir, f"{fam}{n}", model)
        start = model.states[0]
        argv = ["reduce", "--model", path, "--state", start, "--formula",
                formula, "--gamma", gamma, "--out", "-"]
        if tree:
            argv.append("--tree")
        name = f"{key}/{fam}({n})/{gamma}" + ("/tree" if tree else "")

        def run(argv=argv):
            code, out, err = _cli(argv)
            if code != 0:
                return code, out, 0, 0, None
            root = _info(err, "root")
            exported = mucheck.load_model(out)
            return (code, out, len(exported.states), len(exported.relation),
                    mucheck.solve_ar(exported, root))

        def digest(raw):
            code, out, positions, edges, ar = raw
            data = out.encode("utf-8")
            counts = {"reduction.export_positions": positions,
                      "reduction.export_edges": edges,
                      "reduction.json_bytes": len(data),
                      "game.cap_hits": int(code == 11)}
            return ((code, ar, positions, edges,
                     hashlib.sha256(data).hexdigest()), counts)

        def expect(model=model, start=start, formula=formula, gamma=gamma,
                   name=name):
            sent = mucheck.parse(formula)
            if gamma == "auto":
                bound = max(1, model.card)
                truth = start in mucheck.eval_standard(model, sent)
            else:
                bound = _bound(gamma)
                truth = start in mucheck.eval_bounded(model, sent, bound)
            winner, _ = mucheck.EvalGame(model, start, sent, bound).solve()
            if (winner == mucheck.ELOISE) != truth:
                raise CheckError(f"{name}: game and compositional verdicts "
                                 "disagree")
            stored = cfg["fingerprints"].get(name)
            if stored is None:
                raise CheckError(f"{name}: no stored fingerprint")
            return (0, truth, stored["positions"], stored["edges"],
                    stored["sha256"])

        ops.append(Op(name, run, digest, expect))
    return ops


# ---------------------------------------------------------------------------
# sweep

def _sweep_op(name, run, per_unit, units, sentences):
    def digest(tallies):
        summary = tuple(sorted((prop, t.instances, t.failures)
                               for prop, t in tallies.items()))
        counts = {"compare.instances": sum(t.instances
                                           for t in tallies.values()),
                  "compare.failures": sum(t.failures
                                          for t in tallies.values()),
                  "compare.sentences": sentences}
        return summary, counts

    def expect():
        return tuple(sorted((prop, count * units, 0)
                            for prop, count in per_unit.items()))

    return Op(name, run, digest, expect)


def sweep(workdir, seed, size):
    """Slices of the acceptance corpora plus a few seeded random sentences.

    The seed draws the random sentences (and the clock-policy sweep's
    3-state models) as the acceptance tests do, but only ``random`` of
    each: one random sentence costs from 0.01 s to 0.4 s, so a larger
    seeded share would make the pass time depend on the seed.  Instance
    counts do not depend on which sentences are drawn: every sentence
    meets every model class, so the exact count is a stored per-sentence
    constant times the number of sentences.
    """
    cfg = EXPECTED["sweep"][size]
    per_main = EXPECTED["sweep"]["main_per_sentence"]
    per_mode = EXPECTED["sweep"]["mode_per_sentence"]
    k = cfg["random"]
    ops = []
    main = corpus.all_sentences(5, 1)[::cfg["main_step"]]
    chunk = cfg["main_chunk"]
    for i in range(0, len(main), chunk):
        part = main[i:i + chunk]
        ops.append(_sweep_op(
            f"main[{i}:{i + len(part)}]",
            lambda part=part: compare.run_main_sweep(
                part, max_states=2, gammas=MAIN_GAMMAS, workers=1),
            per_main, len(part), len(part)))
    main_random = corpus.random_sentences(k, seed, 9, 2)
    ops.append(_sweep_op(
        "main-random",
        lambda: compare.run_main_sweep(
            main_random, max_states=2, gammas=MAIN_GAMMAS, workers=1),
        per_main, k, k))
    ops.append(_sweep_op(
        "ar", lambda: compare.run_ar_sweep(max_states=2, workers=1),
        EXPECTED["sweep"]["ar_total"], 1, 0))
    rng = random.Random(seed + 1)
    extra = [((3, rng.getrandbits(9), rng.getrandbits(6)), ("p", "q"))
             for _ in range(12)]
    mode_fixed = corpus.all_sentences(3, 1)[::cfg["mode_step"]]
    mode_random = corpus.random_sentences(k, seed + 2, 9, 2)
    for name, sents in (("mode", mode_fixed), ("mode-random", mode_random)):
        ops.append(_sweep_op(
            name, lambda sents=sents: compare.run_mode_sweep(
                sents, max_states=2, extra_models=extra, gammas=MODE_GAMMAS,
                workers=1),
            per_mode, len(sents), len(sents)))
    return ops


WORKLOADS = {
    "eval-game": eval_game,
    "eval-standard": eval_standard,
    "reduce-export": reduce_export,
    "sweep": sweep,
}
