import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

import sgplan
from sgplan import MatrixGame, random_game, single_state_game

# the standard 3-state benchmark instance used by the sampling experiments
STANDARD_FIXTURE_SEED = 7


@pytest.fixture
def prisoners_dilemma():
    return MatrixGame([[3, 0], [5, 1]], [[3, 5], [0, 1]])


@pytest.fixture
def matching_pennies():
    return MatrixGame.zero_sum([[1, -1], [-1, 1]])


@pytest.fixture
def battle_of_sexes():
    return MatrixGame([[2, 0], [0, 1]], [[1, 0], [0, 2]])


@pytest.fixture
def repeated_pd(prisoners_dilemma):
    return single_state_game(prisoners_dilemma)


@pytest.fixture
def repeated_mp(matching_pennies):
    return single_state_game(matching_pennies)


@pytest.fixture
def three_state_game():
    return random_game(3, 2, 2, 2, 1.0, seed=STANDARD_FIXTURE_SEED)


def game_as_dict(game):
    """Plain nested-list view for the recursive oracles."""
    return {
        "payoffs1": game.payoffs1.tolist(),
        "payoffs2": game.payoffs2.tolist(),
        "transitions": game.transitions.tolist(),
    }


def policy_as_fn(policy):
    return lambda s, t: policy.probs(s, t).tolist()


def run_cli(args, cwd):
    """Run `python -m sgplan *args` in cwd and capture its output.

    The child imports the same sgplan package as this process: the
    directory holding it goes first on the child's PYTHONPATH, so a
    relative entry such as PYTHONPATH=src cannot fail to resolve from cwd.
    """
    env = dict(os.environ)
    package_root = str(Path(sgplan.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "sgplan", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
