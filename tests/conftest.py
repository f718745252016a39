import numpy as np
import pytest

from tdrepdyn import mdp as mdp_mod

# Collected by test_acceptance via the `acceptance` fixture; printed as one
# PASS/FAIL line per criterion at the end of the run.
ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance():
    def record(num: int, name: str, passed: bool, detail: str):
        status = "PASS" if passed else "FAIL"
        ACCEPTANCE_LINES.append((num, f"criterion {num:2d} {name}: {status}  [{detail}]"))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def small_mixed():
    return mdp_mod.make_mdp(False, 1, n=8, gamma=0.9, alpha=0.95, seed=3)


@pytest.fixture
def small_symmetric():
    return mdp_mod.make_mdp(True, 2, n=8, gamma=0.9, seed=3)


@pytest.fixture
def two_state():
    # P = [[.5,.5],[.5,.5]], gamma=.9, R=(1,0): (I - gamma P) is
    # [[.55,-.45],[-.45,.55]] with determinant .1, so V = (5.5, 4.5).
    P = np.full((2, 2), 0.5)
    return mdp_mod.MarkovRewardProcess(
        P=P, R=np.array([[1.0], [0.0]]), gamma=0.9, d=np.array([0.5, 0.5])
    )
