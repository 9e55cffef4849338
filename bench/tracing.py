"""In-memory spans around the public functions of each mucheck layer.

The tracer replaces each traced function with a wrapper in every mucheck
module namespace that holds it (methods are replaced on their class), so
calls are caught wherever the program looks the function up.  Nothing
under ``src/`` changes; ``uninstall`` puts the originals back.

A span is ``(name, start, end, parent, run_id)``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``run_id`` names the set-up
repetition or the benchmark operation the span belongs to.
"""

import collections
import functools
import importlib
import json
import sys
import time

# (layer, function or Class.method, counter hook).  The span name is
# "<layer>.<target>".  Hooks get (tracer, args, result) and add counters;
# they run after the span closes, so their cost is not the layer's time.
TARGETS = (
    ("cli", "main", None),
    ("formula", "parse", None),
    ("formula", "build_index", None),
    ("formula", "normalize", None),
    ("formula", "dual", None),
    ("formula", "render", None),
    ("kripke", "load_model",
     lambda tr, args, res: tr.count("kripke.load_model_bytes", len(args[0]))),
    ("kripke", "save_model", None),
    ("kripke", "generate_family", None),
    ("semantics", "eval_standard",
     lambda tr, args, res: tr.count("semantics.sat_states", len(res))),
    ("semantics", "eval_bounded",
     lambda tr, args, res: tr.count("semantics.sat_states", len(res))),
    ("game", "EvalGame.solve",
     lambda tr, args, res: tr.count("game.strategy_positions", len(res[1]))),
    ("variants", "FBoundedGame.solve", None),
    ("variants", "solve_free", None),
    ("reduction", "build_position_model", None),
    ("reduction", "reduce_mc", None),
    ("reduction", "ReducedModel.to_json_dict", None),
    ("reduction", "solve_ar", None),
    ("reduction", "ar_winning_set", None),
    ("compare", "run_main_sweep", None),
    ("compare", "run_ar_sweep", None),
    ("compare", "run_mode_sweep", None),
    ("corpus", "all_sentences", None),
    ("corpus", "random_sentences", None),
    ("corpus", "random_ar_model", None),
)

LAYERS = ("cli", "formula", "kripke", "semantics", "game", "variants",
          "reduction", "compare", "corpus")


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.counters = collections.defaultdict(collections.Counter)
        self.run_id = None
        self._stack = []
        self._patches = []

    def count(self, key, n=1):
        self.counters[self.run_id][key] += n

    def _wrap(self, name, fn, hook):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.run_id)
            if hook is not None:
                hook(tracer, args, result)
            return result
        return traced

    def install(self):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None
                      and (n == "mucheck" or n.startswith("mucheck."))]
        for layer, target, hook in TARGETS:
            name = f"{layer}.{target}"
            module = importlib.import_module("mucheck." + layer)
            if "." in target:
                cls_name, attr = target.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original, hook))
                self._patches.append((owner, attr, original))
                continue
            original = getattr(module, target)
            wrapped = self._wrap(name, original, hook)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)
                        self._patches.append((ns, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self, weights):
        """Inclusive time and call count per span name, and self time per
        layer, over the spans of the runs in ``weights``; each run's
        times are multiplied by its weight.

        A span's self time is its duration minus that of its child spans.
        """
        child_time = collections.Counter()
        for name, start, end, parent, run_id in self.spans:
            if parent >= 0 and run_id in weights:
                child_time[parent] += end - start
        incl = collections.Counter()
        calls = collections.Counter()
        self_by_layer = collections.Counter()
        for idx, (name, start, end, parent, run_id) in enumerate(self.spans):
            weight = weights.get(run_id)
            if weight is None:
                continue
            incl[name] += (end - start) * weight
            calls[name] += 1
            self_by_layer[name.split(".")[0]] += (
                (end - start - child_time[idx]) * weight)
        return incl, calls, self_by_layer

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run_id}) + "\n")
