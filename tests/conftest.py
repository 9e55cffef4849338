import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run: no randomness, no
# example database, and no per-example deadline on a machine whose speed
# varies.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")

from mucheck import formula as F
from mucheck.kripke import KripkeModel

# Verdict lines recorded by the acceptance tests, echoed after the run.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def m1():
    """Two states: a -> b, b -> b, p holds at b."""
    return KripkeModel(["a", "b"], [("a", "b"), ("b", "b")], {"p": ["b"]})


@pytest.fixture
def afp():
    """Eventually-p on every path."""
    return F.parse("mu X. (p | []X)")


@pytest.fixture
def phi_star():
    return F.parse("nu X. [] mu Y. (<>Y | (p & X))")
