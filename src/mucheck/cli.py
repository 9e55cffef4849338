"""Command-line surface: eval, play, reduce, compare, gen.

Exit codes: 0 true / Eloise wins, 1 false / Abelard wins, 2 undetermined,
3 interactive session aborted, 10 usage or input errors, 11 position cap
exceeded, 12 compare stopped at a resource cap, 13 self-check failed,
70 internal error (an unexpected exception; never a verdict).
"""

import argparse
import json
import sys
import time

from . import compare as compare_mod
from . import formula as F
from . import reduction
from . import semantics
from . import variants
from .game import (ABELARD, DEFAULT_MAX_POSITIONS, ELOISE, EvalGame,
                   GameLimitError, first_move_player, format_move,
                   interactive_player)
from .kripke import FAMILIES, ModelError, generate_family, load_model_file
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
    t0 = time.time()
    solve_s = None
    positions = None
    trace = None
    strategy = None
    game = None
    if kind == "standard":
        verdict = args.state in semantics.eval_standard(model, sent)
    elif kind == "free":
        verdict = variants.solve_free(model, args.state, sent)
    elif kind == "bounded":
        game = EvalGame(model, args.state, sent, param,
                        max_positions=args.max_positions)
        t1 = time.time()
        winner, strategy = game.solve(args.mode)
        solve_s = time.time() - t1
        positions = game.last_explored
        verdict = winner
    else:  # fbounded
        game = FBoundedGame(model, args.state, sent, param,
                            max_positions=args.max_positions)
        t1 = time.time()
        winner, strategy = game.solve(args.mode)
        solve_s = time.time() - t1
        positions = game.last_explored
        verdict = winner

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
            "timings": {"total_s": round(time.time() - t0, 6),
                        "solve_s": None if solve_s is None
                        else round(solve_s, 6)},
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
    print(f"bound {semantics.format_bound(bound)}; the solver expects "
          f"{winner} to win", file=sys.stderr)

    human = interactive_player(sys.stdin, sys.stdout)

    def machine_for(player):
        if winner == player:
            strat = strategy

            def move(g, pos, moves):
                mv = strat[pos]
                for k, (m, _) in enumerate(moves):
                    if m == tuple(mv):
                        print(f"{player} plays: {format_move(m)}")
                        return k
                raise RuntimeError("solved strategy offered an illegal move")
            return move

        def fallback(g, pos, moves):
            print(f"{player} plays: {format_move(moves[0][0])}")
            return 0
        return fallback

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
    payload = json.dumps(reduced.to_json_dict(), indent=2) + "\n"
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        info = sys.stdout
    else:
        sys.stdout.write(payload)
        info = sys.stderr
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
    payload = json.dumps(model.to_json_dict(), indent=2) + "\n"
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {args.family}({args.n}): {model.card} states "
              f"-> {args.out}")
    else:
        sys.stdout.write(payload)
    return EXIT_TRUE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mucheck",
        description="Modal mu-calculus model checking with clock-bounded "
                    "evaluation games.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_state=True):
        p.add_argument("--model", required=True, help="model JSON file")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--formula", help="formula text")
        group.add_argument("--formula-file", help="file with formula text")
        if with_state:
            p.add_argument("--state", required=True,
                           help="start state in the model")
        p.add_argument("--max-positions", type=int,
                       default=DEFAULT_MAX_POSITIONS,
                       help="solver position cap")

    p = sub.add_parser("eval", help="evaluate a sentence at a state")
    add_common(p)
    p.add_argument("--semantics", default="standard",
                   help="standard | bounded:N | omega | fbounded:K | free")
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

    p = sub.add_parser("play", help="play the evaluation game interactively")
    add_common(p)
    p.add_argument("--gamma", required=True, help="clock bound: N or omega")
    p.add_argument("--as", dest="side", default="eloise",
                   choices=("eloise", "abelard", "both"),
                   help="side(s) played by the human")
    p.add_argument("--mode", choices=("greedy", "exhaustive"),
                   default="greedy")
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("reduce",
                       help="export the game as an alternating-reachability "
                            "model")
    add_common(p)
    p.add_argument("--gamma", required=True,
                   help="clock bound: N, omega, or auto")
    p.add_argument("--tree", action="store_true",
                   help="unfold the position DAG into the game tree")
    p.add_argument("--out", default="-", help="output file (default stdout)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("compare", help="run the engine-agreement sweeps")
    p.add_argument("--max-states", type=int, default=2)
    p.add_argument("--max-binders", type=int, default=2)
    p.add_argument("--gammas", default="1,2,3,4,omega",
                   help="comma-separated clock bounds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-nodes", type=int, default=5,
                   help="node budget of the exhaustive sentence corpus")
    p.add_argument("--random-count", type=int, default=200,
                   help="seeded random sentences added to the corpus")
    p.add_argument("--ar-max-states", type=int, default=3)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--budget", type=float, default=None,
                   help="wall-clock budget in seconds (partial report when "
                        "exceeded)")
    p.add_argument("--no-minimize", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen", help="generate an example-model file")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("n", type=int)
    p.add_argument("--out", default="-", help="output file (default stdout)")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GameLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ModelError, BoundError, F.FormulaError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # Without this an uncaught exception exits with 1, which reads as
        # the verdict "false".
        detail = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {detail}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
