# The clock-bounded evaluation game, played and solved.
#
# Eloise defends the formula, Abelard attacks it.  Each fixpoint binder
# carries a clock: announced when the binder is entered, strictly lowered
# every time play loops back through its label, reset when an outer loop
# restarts it.  Clocks force every play to end, so plain backward
# induction solves the game.
#
# Run as: python demos/02_bounded_games.py

from mucheck import (EvalGame, OMEGA, eval_bounded, generate_family,
                     load_model, parse, render)
from mucheck.game import first_move_player

m1 = load_model('{"states": ["a", "b"], "edges": [["a", "b"], ["b", "b"]],'
                ' "val": {"p": ["b"]}}')
afp = parse("mu X. (p | []X)")

# ---------------------------------------------------------------------------
# The bound matters: one clock tick is too few to reach p from a, two are
# enough.

for bound in (1, 2):
    game = EvalGame(m1, "a", afp, bound)
    winner, strategy = game.solve()
    members = sorted(eval_bounded(m1, afp, bound))
    print(f"bound {bound}: winner {winner}; compositional set {members}")

# ---------------------------------------------------------------------------
# A full play: the winner's strategy against a naive opponent.

game = EvalGame(m1, "a", afp, 2)
winner, strategy = game.solve()
trace = game.play(strategy, first_move_player)
print(f"\na play under bound 2 (winner {winner}):")
print(trace.format_text(game))

# ---------------------------------------------------------------------------
# The nested sentence on a star-with-descending-chain truncation: Abelard
# keeps jumping, Eloise commits to how many steps she needs to get back
# to the hub where p holds.

phi = parse("nu X. [] mu Y. (<>Y | (p & X))")
star = generate_family("starN", 5)
game = EvalGame(star, "w_0", phi, OMEGA)
winner, strategy = game.solve()
print(f"\nstarN(5), {render(phi)}: {winner} wins")
print("inner-binder clock announcements in the winning strategy:")
mu_y = next(n for n in range(phi.size) if phi.kind[n] == "mu" and
            phi.name[n] == "Y")
announcements = sorted({(pos.state, move[1])
                        for pos, move in strategy.moves.items()
                        if pos.node == mu_y})
for state, value in announcements:
    print(f"  at {state}: announce {value}")

# The strategy survives every possible Abelard response.
print("positions checked by exhaustive playout:",
      game.validate_strategy(winner, strategy))

# ---------------------------------------------------------------------------
# Greedy and exhaustive clock policies agree on the winner.  The solver
# explores only the positions its search enters.  A greedy verdict is one
# search with every clock choice greedy; the re-solve that makes its
# strategy answer every opponent choice runs only when the strategy is
# read, which this loop never does.

for mode in ("greedy", "exhaustive"):
    game = EvalGame(star, "w_0", phi, OMEGA)
    w, _ = game.solve(mode)
    print(f"{mode:>10}: winner {w}, positions {game.last_explored}")
