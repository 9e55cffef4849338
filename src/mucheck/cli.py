"""Command-line surface: eval, play, reduce, compare, gen.

Exit codes: 0 true / Eloise wins, 1 false / Abelard wins, 2 undetermined,
3 interactive session aborted, 10 usage or input errors, 11 position cap
exceeded or memory ran out, 12 compare stopped at a resource cap, 13
self-check failed, 70 internal error (an unexpected exception; never a
verdict).
"""

import argparse
import json
import math
import sys
import time

from . import compare as compare_mod
from . import formula as F
from . import reduction
from . import semantics
from . import variants
from .game import (ABELARD, DEFAULT_MAX_POSITIONS, ELOISE, EvalGame,
                   GameLimitError, StrategyError, first_move_player,
                   format_move, interactive_player)
from .kripke import (FAMILIES, ModelError, _json_document, gc_paused,
                     generate_family, load_model_file, save_model)
from .semantics import OMEGA, BoundError
from .variants import FBoundedGame

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNDETERMINED = 2
EXIT_ABORT = 3
EXIT_ERROR = 10
EXIT_CAP = 11
EXIT_PARTIAL = 12
EXIT_CHECK = 13
EXIT_INTERNAL = 70  # EX_SOFTWARE in sysexits.h


class CliError(Exception):
    def __init__(self, message, code=EXIT_ERROR):
        super().__init__(message)
        self.code = code


def _parse_semantics(text):
    if text == "standard":
        return ("standard", None)
    if text == "omega":
        return ("bounded", OMEGA)
    if text == "free":
        return ("free", None)
    if text.startswith("bounded:"):
        return ("bounded", semantics.parse_bound(text.split(":", 1)[1]))
    if text.startswith("fbounded:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise BoundError(f"invalid fbounded exponent in {text!r}") from None
        if k < 1:
            raise BoundError("fbounded exponent must be at least 1")
        return ("fbounded", k)
    raise CliError(f"unknown semantics selector {text!r} (expected standard, "
                   "bounded:N, omega, fbounded:K, or free)")


def _load_inputs(args):
    model = load_model_file(args.model)
    if args.formula_file:
        with open(args.formula_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = args.formula
    sent = F.parse(text)
    model.state_index(args.state)
    return model, sent


def _verdict_exit(verdict):
    if verdict is True or verdict == ELOISE:
        return EXIT_TRUE, "true"
    if verdict is False or verdict == ABELARD:
        return EXIT_FALSE, "false"
    return EXIT_UNDETERMINED, "undetermined"


def _strategy_lines(game, strategy):
    lines = [f"strategy for {strategy.player} "
             f"({len(strategy)} positions):"]
    for pos in sorted(strategy.moves,
                      key=lambda p: (p.state, p.node, p[2:])):
        lines.append(f"  {game.describe_position(pos)} -> "
                     f"{format_move(strategy.moves[pos])}")
    return lines


def cmd_eval(args):
    model, sent = _load_inputs(args)
    kind, param = _parse_semantics(args.semantics)
    if kind in ("standard", "free") and (args.trace or args.strategy):
        raise CliError(f"--trace/--strategy need a game semantics, "
                       f"not {args.semantics!r}")
    positions = None
    trace = None
    strategy = None
    game = None
    t0 = t1 = time.perf_counter()
    if kind == "standard":
        verdict = args.state in semantics.eval_standard(model, sent)
    elif kind == "free":
        verdict = variants.solve_free(model, args.state, sent)
    else:  # a game: bounded or fbounded
        game_cls = EvalGame if kind == "bounded" else FBoundedGame
        game = game_cls(model, args.state, sent, param,
                        max_positions=args.max_positions)
        t1 = time.perf_counter()
        winner, strategy = game.solve(args.mode)
        if args.strategy or args.trace:
            # The first read runs greedy mode's one-sided re-solve and the
            # walk, so that solve_s times them and positions counts them.
            len(strategy)
        positions = game.last_explored
        verdict = winner
    solve_s = time.perf_counter() - t1

    if args.check:
        std = semantics.eval_standard(model, sent)
        collapse = semantics.eval_bounded(model, sent, max(1, model.card))
        if std != collapse:
            raise CliError("self-check failed: standard and bounded:card "
                           "semantics disagree", EXIT_CHECK)
        if kind == "bounded":
            bset = semantics.eval_bounded(model, sent, param)
            if (verdict == ELOISE) != (args.state in bset):
                raise CliError("self-check failed: game and compositional "
                               "verdicts disagree", EXIT_CHECK)

    if args.trace and game is not None:
        winner_strat = strategy
        if winner_strat.player == ELOISE:
            trace = game.play(winner_strat, first_move_player)
        else:
            trace = game.play(first_move_player, winner_strat)

    code, word = _verdict_exit(verdict)
    if args.json:
        payload = {
            "verdict": word,
            "semantics": args.semantics,
            "model": args.model,
            "state": args.state,
            "formula": F.render(sent),
            "mode": args.mode if kind in ("bounded", "fbounded") else None,
            "positions": positions,
            "timings": {"total_s": round(time.perf_counter() - t0, 6),
                        "solve_s": round(solve_s, 6)},
        }
        if strategy is not None and args.strategy:
            payload["strategy"] = {
                game.describe_position(p): format_move(m)
                for p, m in strategy.moves.items()}
        if trace is not None:
            payload["trace"] = trace.to_json_dict(game)
        print(json.dumps(payload, indent=2))
    else:
        print(word)
        if strategy is not None and args.strategy:
            print("\n".join(_strategy_lines(game, strategy)))
        if trace is not None:
            print(trace.format_text(game))
    return code


def cmd_play(args):
    model, sent = _load_inputs(args)
    bound = semantics.parse_bound(args.gamma)
    game = EvalGame(model, args.state, sent, bound,
                    max_positions=args.max_positions)
    winner, strategy = game.solve(args.mode)
    # Read the strategy before the session, so that a cap hit in greedy
    # mode's deferred re-solve exits before the first prompt.
    len(strategy)
    print(f"bound {semantics.format_bound(bound)}; the solver expects "
          f"{winner} to win", file=sys.stderr)

    human = interactive_player(sys.stdin, sys.stdout)

    def machine_for(player):
        # The expected winner plays its strategy, the other side its first
        # legal move.  A strategy move that is not legal is a fault of the
        # solver, so it raises StrategyError, an internal error.
        def move(g, pos, moves):
            labels = [m for m, _ in moves]
            want = strategy[pos] if winner == player else labels[0]
            if want not in labels:
                raise StrategyError(f"strategy move {want} is illegal at "
                                    f"{pos}")
            print(f"{player} plays: {format_move(want)}")
            return labels.index(want)
        return move

    if args.side == "eloise":
        eloise, abelard = human, machine_for(ABELARD)
    elif args.side == "abelard":
        eloise, abelard = machine_for(ELOISE), human
    else:
        eloise, abelard = human, human
    try:
        trace = game.play(eloise, abelard)
    except EOFError:
        print("session aborted", file=sys.stderr)
        return EXIT_ABORT
    print(f"game over: {trace.winner} wins after {len(trace) - 1} rounds")
    return EXIT_TRUE if trace.winner == ELOISE else EXIT_FALSE


def cmd_reduce(args):
    model, sent = _load_inputs(args)
    if args.gamma == "auto":
        reduced = reduction.reduce_mc(model, args.state, sent,
                                      tree=args.tree,
                                      max_positions=args.max_positions)
    else:
        bound = semantics.parse_bound(args.gamma)
        reduced = reduction.build_position_model(
            model, args.state, sent, bound, tree=args.tree,
            max_positions=args.max_positions)
    info = sys.stdout if _write_model(reduced, args.out) else sys.stderr
    print(f"root: {reduced.root}", file=info)
    print(f"positions: {reduced.positions}", file=info)
    return EXIT_TRUE


def cmd_compare(args):
    gammas = []
    for part in args.gammas.split(","):
        part = part.strip()
        if part:
            gammas.append(semantics.parse_bound(part))
    if not gammas:
        raise CliError("no clock bounds given")
    report = compare_mod.run_compare(
        max_states=args.max_states, max_binders=args.max_binders,
        gammas=tuple(gammas), seed=args.seed, max_nodes=args.max_nodes,
        random_count=args.random_count, workers=args.workers,
        ar_max_states=args.ar_max_states, minimize=not args.no_minimize,
        budget=args.budget)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(report.format_text())
        for name, cex in report.counterexamples():
            print(f"\ncounterexample for {name} (minimized):")
            print(json.dumps(cex, indent=2))
    if report.caps_hit:
        return EXIT_PARTIAL
    return EXIT_TRUE if report.all_passed() else EXIT_FALSE


def cmd_gen(args):
    model = generate_family(args.family, args.n)
    if _write_model(model, args.out):
        print(f"wrote {args.family}({args.n}): {model.card} states "
              f"-> {args.out}")
    return EXIT_TRUE


def _write_model(model, out):
    """Write the model file of ``model`` (a ``KripkeModel`` or a
    ``ReducedModel``) one chunk of a member at a time, to the path
    ``out``, or to stdout when ``out`` is "-" or unset.  True when it
    went to a file."""
    if out and out != "-":
        save_model(model, out)
        return True
    sys.stdout.writelines(_json_document(model._json_members()))
    return False


def _int_at_least(low, what):
    """An argparse type for integers from ``low`` up."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected {what} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive")
_nonnegative_int = _int_at_least(0, "a non-negative")


def _nonnegative_seconds(text):
    """An argparse type for a finite number of seconds, 0 or more."""
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if not 0 <= value < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError(
            f"expected a finite non-negative number of seconds, got {text!r}")
    return value


COMMANDS = ("eval", "play", "reduce", "compare", "gen")


def build_parser(command=None):
    """The ``mucheck`` argument parser.

    With ``command`` one of COMMANDS it holds that command's subparser
    alone, which is all that parsing a command line starting with it
    needs.  Otherwise (no command, ``-h``, an unknown word) it holds all
    five, so that the help and the usage errors list every command.  A
    subparser's prog and help do not depend on its siblings, and the
    usage line names all five commands either way, so both parsers print
    the same help and errors for the same command line.
    """
    parser = argparse.ArgumentParser(
        prog="mucheck",
        description="Modal mu-calculus model checking with clock-bounded "
                    "evaluation games.")
    names = (command,) if command in COMMANDS else COMMANDS
    # Without the metavar, one subparser would make the usage line read
    # "{eval}".  With all five it stays unset: errors about the command
    # word itself name the argument "command".
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None)

    def add_common(p):
        p.add_argument("--model", required=True, help="model JSON file")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--formula", help="formula text")
        group.add_argument("--formula-file", help="file with formula text")
        p.add_argument("--state", required=True,
                       help="start state in the model")
        p.add_argument("--max-positions", type=_positive_int,
                       default=DEFAULT_MAX_POSITIONS,
                       help="solver position cap")

    if "eval" in names:
        p = sub.add_parser("eval", help="evaluate a sentence at a state")
        add_common(p)
        p.add_argument("--semantics", default="standard",
                       help="standard | bounded:N | omega | fbounded:K | "
                            "free")
        p.add_argument("--mode", choices=("greedy", "exhaustive"),
                       default="greedy", help="clock choice policy")
        p.add_argument("--trace", action="store_true",
                       help="print a winning play")
        p.add_argument("--strategy", action="store_true",
                       help="print the winning strategy")
        p.add_argument("--check", action="store_true",
                       help="cross-check engines on this instance")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=cmd_eval)

    if "play" in names:
        p = sub.add_parser("play",
                           help="play the evaluation game interactively")
        add_common(p)
        p.add_argument("--gamma", required=True,
                       help="clock bound: N or omega")
        p.add_argument("--as", dest="side", default="eloise",
                       choices=("eloise", "abelard", "both"),
                       help="side(s) played by the human")
        p.add_argument("--mode", choices=("greedy", "exhaustive"),
                       default="greedy")
        p.set_defaults(func=cmd_play)

    if "reduce" in names:
        p = sub.add_parser("reduce",
                           help="export the game as an "
                                "alternating-reachability model")
        add_common(p)
        p.add_argument("--gamma", required=True,
                       help="clock bound: N, omega, or auto")
        p.add_argument("--tree", action="store_true",
                       help="unfold the position DAG into the game tree")
        p.add_argument("--out", default="-",
                       help="output file (default stdout)")
        p.set_defaults(func=cmd_reduce)

    if "compare" in names:
        p = sub.add_parser("compare",
                           help="run the engine-agreement sweeps")
        p.add_argument("--max-states", type=_positive_int, default=2)
        p.add_argument("--max-binders", type=_nonnegative_int, default=2)
        p.add_argument("--gammas", default="1,2,3,4,omega",
                       help="comma-separated clock bounds")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-nodes", type=_positive_int, default=5,
                       help="node budget of the exhaustive sentence corpus")
        p.add_argument("--random-count", type=_nonnegative_int, default=200,
                       help="seeded random sentences added to the corpus")
        p.add_argument("--ar-max-states", type=_positive_int, default=3)
        p.add_argument("--workers", type=_positive_int, default=None,
                       help="worker processes, at most one per job and per "
                            "CPU (default: one per CPU, at most 8)")
        p.add_argument("--budget", type=_nonnegative_seconds, default=None,
                       help="wall-clock budget in seconds (partial report "
                            "when exceeded)")
        p.add_argument("--no-minimize", action="store_true")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=cmd_compare)

    if "gen" in names:
        p = sub.add_parser("gen", help="generate an example-model file")
        p.add_argument("family", choices=FAMILIES)
        p.add_argument("n", type=int)
        p.add_argument("--out", default="-",
                       help="output file (default stdout)")
        p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None):
    """Run one command line (``sys.argv[1:]`` by default) and return its
    exit code.

    Only the parser of the command named by the first word is built
    (build_parser).  The command runs with the cyclic GC paused
    (gc_paused): its games and models are acyclic, so reference counting
    frees them, and the collector's state is restored on every exit.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which reads as "undetermined".
        return EXIT_ERROR if exc.code else exc.code
    with gc_paused():
        try:
            return args.func(args)
        except GameLimitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CAP
        except MemoryError:
            # A resource cap, not a fault; only eval, play and reduce have
            # a position cap to suggest.
            hint = ("; a smaller --max-positions stops the game before it "
                    "does" if "max_positions" in vars(args) else "")
            print(f"error: memory ran out{hint}", file=sys.stderr)
            return EXIT_CAP
        except CliError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.code
        except (ModelError, BoundError, F.FormulaError, OSError,
                ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        except Exception as exc:
            # Without this an uncaught exception exits with 1, which reads
            # as the verdict "false".
            detail = " ".join(str(exc).split())
            print(f"error: internal: {type(exc).__name__}: {detail}",
                  file=sys.stderr)
            return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
