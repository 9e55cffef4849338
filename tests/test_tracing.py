"""The benchmark's tracer still finds every entry point it wraps.

``bench/tracing.py`` replaces functions and methods by name (a method
must be defined on the class it names), so moving one of them silently
breaks ``bench/run.py --trace 1``.  This test installs the tracer on the
package, checks that every target was patched and traced, and checks that
uninstalling restores the originals.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402

from mucheck import formula as F  # noqa: E402
from mucheck.kripke import generate_family  # noqa: E402


def _lookup(layer, target):
    module = importlib.import_module("mucheck." + layer)
    if "." in target:
        cls_name, attr = target.split(".")
        return vars(getattr(module, cls_name))[attr]
    return getattr(module, target)


def test_tracer_patches_every_target():
    originals = {(layer, target): _lookup(layer, target)
                 for layer, target, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (layer, target), original in originals.items():
            wrapped = _lookup(layer, target)
            assert wrapped is not original, f"{layer}.{target} not patched"
            assert wrapped.__wrapped__ is original
        from mucheck import game, variants
        model = generate_family("daggerN", 2)
        sent = F.parse("mu X. (p | []X)")
        game.solve(model, model.states[0], sent, 2)
        variants.solve_fbounded(model, model.states[0], sent)
        names = {span[0] for span in tracer.spans}
        assert {"game.EvalGame.solve", "variants.FBoundedGame.solve"} <= names
    finally:
        tracer.uninstall()
    for key, original in originals.items():
        assert _lookup(*key) is original
