"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Set-up (imports, generated inputs, model files) runs
SETUP_REPS times and reports its median.  The operations of the workload
then run in passes until ``--seconds`` have elapsed (at least MIN_PASSES
passes).  Output checks run after timing and are not timed.

Times are reported at a reference machine speed.  The machine this was
built on is shared, and its speed drifts by up to half within a minute,
which no amount of repetition averages out.  So a fixed pure-Python
reference loop is timed next to every operation, and each operation's
time is divided by the loop time around it and multiplied by
REFERENCE_LOOP_S: the seconds the operation would take when the loop
takes REFERENCE_LOOP_S (its time on a quiet 2-CPU machine of this kind).
``wall_s`` is the sum over operations of each one's median scaled time,
i.e. one pass of the workload; the unscaled figure and the loop's own
median time are reported in the traced run.

With ``--trace 1`` the passes alternate between untraced and traced; the
per-layer metrics come from the traced passes (per pass), and the
tracing overhead is the traced minus the untraced ``wall_s``.  Spans are
written to ``.bench_work/<workload>/spans.jsonl``.
"""

import argparse
import collections
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPS = 5
MIN_PASSES = 3
REFERENCE_LOOP_S = 0.025

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"),
              ("ok_ratio", "ratio"))

# Per-layer metric name, unit, and how to read it from the traced passes:
# ("span", name) inclusive seconds, ("calls", name) call count, ("self",
# layer) self seconds, ("count", key) counter, ("setup", prefix) seconds in
# set-up spans starting with prefix, or ("derived", None).  All are per pass
# (per set-up for "setup").
PER_LAYER = (
    ("cli.main_s", "s", "span", "cli.main"),
    ("cli.main_self_s", "s", "self", "cli"),
    ("formula.parse_s", "s", "span", "formula.parse"),
    ("formula.build_index_s", "s", "span", "formula.build_index"),
    ("formula.build_index_calls", "count", "calls", "formula.build_index"),
    ("formula.build_index_per_sentence", "calls/sentence", "derived", None),
    ("formula.self_s", "s", "self", "formula"),
    ("kripke.load_model_s", "s", "span", "kripke.load_model"),
    ("kripke.load_model_mb", "MiB", "derived", None),
    ("kripke.self_s", "s", "self", "kripke"),
    ("semantics.eval_standard_s", "s", "span", "semantics.eval_standard"),
    ("semantics.eval_standard_calls", "count", "calls",
     "semantics.eval_standard"),
    ("semantics.eval_bounded_s", "s", "span", "semantics.eval_bounded"),
    ("semantics.eval_bounded_calls", "count", "calls",
     "semantics.eval_bounded"),
    ("semantics.sat_states", "count", "count", "semantics.sat_states"),
    ("semantics.self_s", "s", "self", "semantics"),
    ("game.solve_s", "s", "span", "game.EvalGame.solve"),
    ("game.solve_calls", "count", "calls", "game.EvalGame.solve"),
    ("game.positions", "count", "count", "game.positions"),
    ("game.positions_per_s", "positions/s", "derived", None),
    ("game.strategy_positions", "count", "count", "game.strategy_positions"),
    ("game.cap_hits", "count", "count", "game.cap_hits"),
    ("game.positions_flagged", "count", "derived", None),
    ("game.self_s", "s", "self", "game"),
    ("variants.fbounded_s", "s", "span", "variants.FBoundedGame.solve"),
    ("variants.fbounded_positions", "count", "count",
     "variants.fbounded_positions"),
    ("variants.self_s", "s", "self", "variants"),
    ("reduction.build_s", "s", "span", "reduction.build_position_model"),
    ("reduction.to_json_s", "s", "span",
     "reduction.ReducedModel.to_json_dict"),
    ("reduction.export_positions", "count", "count",
     "reduction.export_positions"),
    ("reduction.export_edges", "count", "count", "reduction.export_edges"),
    ("reduction.json_bytes", "bytes", "count", "reduction.json_bytes"),
    ("reduction.solve_ar_s", "s", "span", "reduction.solve_ar"),
    ("reduction.self_s", "s", "self", "reduction"),
    ("compare.main_sweep_s", "s", "span", "compare.run_main_sweep"),
    ("compare.ar_sweep_s", "s", "span", "compare.run_ar_sweep"),
    ("compare.mode_sweep_s", "s", "span", "compare.run_mode_sweep"),
    ("compare.sentences", "count", "count", "compare.sentences"),
    ("compare.instances", "count", "count", "compare.instances"),
    ("compare.instances_per_s", "instances/s", "derived", None),
    ("compare.failures", "count", "count", "compare.failures"),
    ("compare.self_s", "s", "self", "compare"),
    ("corpus.gen_s", "s", "setup", "corpus."),
    ("bench.raw_wall_s", "s", "derived", None),
    ("bench.reference_loop_s", "s", "derived", None),
    ("trace.wall_s", "s", "derived", None),
    ("trace.untraced_wall_s", "s", "derived", None),
    ("trace.overhead_s", "s", "derived", None),
    ("trace.spans", "count", "derived", None),
)


def import_program():
    """Import mucheck from this checkout's src/; returns the import time."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mucheck", "__init__.py")):
        sys.exit(f"bench: no mucheck sources under {src}")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import mucheck
    import mucheck.cli
    import mucheck.compare
    elapsed = time.perf_counter() - start
    if not os.path.abspath(mucheck.__file__).startswith(src + os.sep):
        sys.exit(f"bench: mucheck was imported from {mucheck.__file__}, "
                 f"not from {src}")
    return elapsed


def reference_loop():
    """Time a fixed piece of allocation-heavy pure-Python work, a gauge of
    the machine's current speed for the interpreter."""
    start = time.perf_counter()
    for _ in range(5):
        table = {}
        for i in range(20_000):
            table[i] = (i, str(i))
    return time.perf_counter() - start


def timed(fn):
    """Run ``fn`` between two reference loops; returns its result, its
    seconds and the reference-loop seconds around it (their mean)."""
    before = reference_loop()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed, (before + reference_loop()) / 2


class Attempt(NamedTuple):
    traced: bool
    seconds: float
    loop: float  # reference-loop seconds around the attempt
    summary: object
    counts: dict
    error: str


def scaled_wall(records, traced, scaled=True):
    """Sum over operations of the median (scaled) time of their attempts."""
    total = 0.0
    for attempts in records.values():
        times = [a.seconds * (REFERENCE_LOOP_S / a.loop if scaled else 1)
                 for a in attempts if a.traced == traced]
        if times:
            total += statistics.median(times)
    return total


def run_passes(ops, seconds, tracer):
    """Time every operation in passes; returns the attempts per op."""
    from mucheck import GameLimitError
    records = {op.name: [] for op in ops}
    min_passes = MIN_PASSES + 1 if tracer else MIN_PASSES
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < min_passes or time.perf_counter() < deadline:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in ops:
                if traced:
                    tracer.run_id = f"pass{passes}:{op.name}"
                gc.collect()
                summary, counts, error = None, {}, None
                before = reference_loop()
                start = time.perf_counter()
                try:
                    raw = op.run()
                except Exception as exc:  # a failed operation, counted
                    raw = None
                    error = "".join(traceback.format_exception_only(exc))
                    if isinstance(exc, GameLimitError):
                        counts = {"game.cap_hits": 1}
                elapsed = time.perf_counter() - start
                loop = (before + reference_loop()) / 2
                if error is None:
                    try:
                        summary, counts = op.digest(raw)
                    except Exception as exc:  # unreadable output, counted
                        error = "".join(traceback.format_exception_only(exc))
                del raw
                records[op.name].append(Attempt(traced, elapsed, loop,
                                                summary, counts, error))
        finally:
            if traced:
                tracer.uninstall()
        passes += 1
    return records


def check(ops, records, workloads):
    """Compare every attempt with its oracle; returns (attempted, failed,
    flagged) and reports problems on stderr."""
    attempted = failed = flagged = 0
    for op in ops:
        attempts = records[op.name]
        attempted += len(attempts)
        try:
            expected = op.expect()
        except workloads.CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            failed += len(attempts)
            continue
        bad = [a for a in attempts
               if a.error is not None or a.summary != expected]
        failed += len(bad)
        if bad:
            print(f"check failed: {op.name}: {len(bad)} of {len(attempts)} "
                  f"attempts; got {bad[0].error or bad[0].summary!r}, "
                  f"expected {expected!r}", file=sys.stderr)
        for key, value in op.reference.items():
            seen = {a.counts[key] for a in attempts if key in a.counts}
            if seen and seen != {value}:
                flagged += 1
                print(f"flag: {op.name}: {key} is {sorted(seen)}, was "
                      f"{value}", file=sys.stderr)
    return attempted, failed, flagged


def layer_metrics(ops, records, tracer, setup_loops, flagged):
    # Each pass appends one attempt per operation, so the attempt index is
    # the pass number in the run id.  Span times are scaled like wall_s,
    # by the reference-loop time around their operation or set-up.
    weights = {f"pass{i}:{op.name}": REFERENCE_LOOP_S / a.loop
               for op in ops for i, a in enumerate(records[op.name])
               if a.traced}
    passes = sum(1 for a in records[ops[0].name] if a.traced)
    incl, calls, self_by_layer = tracer.totals(weights)
    setup_incl, _, _ = tracer.totals(
        {f"setup{rep}": REFERENCE_LOOP_S / loop
         for rep, loop in enumerate(setup_loops)})
    counts = collections.Counter()
    for op in ops:
        for a in records[op.name]:
            if a.traced:
                counts.update(a.counts)
    for run_id in weights:
        counts.update(tracer.counters.get(run_id, {}))
    traced_wall = scaled_wall(records, True)
    untraced_wall = scaled_wall(records, False)
    sweep_s = sum(incl[f"compare.run_{k}_sweep"]
                  for k in ("main", "ar", "mode"))
    derived = {
        "formula.build_index_per_sentence":
            calls["formula.build_index"] / counts["compare.sentences"]
            if counts["compare.sentences"] else 0,
        "kripke.load_model_mb":
            counts["kripke.load_model_bytes"] / 2 ** 20 / passes,
        "game.positions_per_s":
            counts["game.positions"] / incl["game.EvalGame.solve"]
            if incl["game.EvalGame.solve"] else 0,
        "game.positions_flagged": flagged,
        "compare.instances_per_s":
            counts["compare.instances"] / sweep_s if sweep_s else 0,
        "bench.raw_wall_s": scaled_wall(records, False, scaled=False),
        "bench.reference_loop_s": statistics.median(
            a.loop for op in ops for a in records[op.name]),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": sum(1 for s in tracer.spans
                           if s[4] in weights) / passes,
    }
    metrics = {}
    for name, unit, kind, key in PER_LAYER:
        if kind == "span":
            value = incl[key] / passes
        elif kind == "calls":
            value = calls[key] / passes
        elif kind == "self":
            value = self_by_layer[key] / passes
        elif kind == "count":
            value = counts[key] / passes
        elif kind == "setup":
            value = sum(v for k, v in setup_incl.items()
                        if k.startswith(key)) / SETUP_REPS
        else:
            value = derived[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke runs the smallest ones")
    args = parser.parse_args(argv)

    import_s, import_loop = timed(import_program)[1:]
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r} (expected one "
                 f"of {', '.join(workloads.WORKLOADS)})")
    build = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_work", args.workload)
    tracer = tracing.Tracer() if args.trace else None

    setup_times, setup_loops = [], []
    for rep in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        gc.collect()
        if tracer:
            tracer.run_id = f"setup{rep}"
            tracer.install()
        try:
            ops, elapsed, loop = timed(
                lambda: build(workdir, args.seed, args.size))
        finally:
            if tracer:
                tracer.uninstall()
        setup_times.append(elapsed * REFERENCE_LOOP_S / loop)
        setup_loops.append(loop)

    records = run_passes(ops, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, flagged = check(ops, records, workloads)

    if tracer:
        metrics = layer_metrics(ops, records, tracer, setup_loops, flagged)
        tracer.dump(os.path.join(workdir, "spans.jsonl"))
    else:
        values = {
            "setup_s": import_s * REFERENCE_LOOP_S / import_loop
                       + statistics.median(setup_times),
            "wall_s": scaled_wall(records, False),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
