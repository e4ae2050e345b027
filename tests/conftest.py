"""Shared instance builders for the test suite."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from maxminfair import validate_instance
from maxminfair.simplex import OPTIMAL, LpOutcome


def make_instance(values, desires, players=None):
    """Terse builder: values maps resource -> rational, desires player -> list."""
    players = list(players) if players is not None else list(desires)
    return validate_instance(
        {
            "players": players,
            "resources": [{"id": r, "value": v} for r, v in values.items()],
            "desires": {p: list(rs) for p, rs in desires.items()},
        }
    )


def scaled_instance(instance, factor):
    """A copy of `instance` with every value multiplied by `factor`, built
    through `validate_instance` like any other instance."""
    raw = instance.to_json_dict()
    for entry in raw["resources"]:
        entry["value"] = instance.value[entry["id"]] * Fraction(factor)
    return validate_instance(raw)


def run_python_optimize(*args):
    """Run `python -O *args` from the repository root on this checkout's package."""
    root = Path(__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-O", *args],
        capture_output=True,
        text=True,
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        timeout=600,
    )


def zero_outcome(lp):
    """A corrupted solver answer: 'optimal' at the all-zero point."""
    return LpOutcome(
        status=OPTIMAL,
        primal=(Fraction(0),) * lp.num_vars,
        dual=(Fraction(0),) * len(lp.rows),
        objective=Fraction(0),
    )


def zero_optimize(tableau):
    """The same corrupted answer from a live tableau's optimize step."""
    return LpOutcome(
        status=OPTIMAL,
        primal=(Fraction(0),) * tableau.num_vars,
        dual=(Fraction(0),) * tableau.num_rows,
        objective=Fraction(0),
    )


def negative_price_optimize(tableau):
    """A corrupted master optimum for a two-player instance such as
    `two_fat`: positive shortfall, both players' duals 1, and the first
    resource ("a") priced at -1 (its row's dual is 1)."""
    return LpOutcome(
        status=OPTIMAL,
        primal=(Fraction(0),) * tableau.num_vars,
        dual=(Fraction(1),) * 3 + (Fraction(0),) * (tableau.num_rows - 3),
        objective=Fraction(1),
    )


@pytest.fixture
def two_fat():
    """Two players, two unit-value resources, both desired by both."""
    return make_instance(
        {"a": "1", "b": "1"},
        {"p1": ["a", "b"], "p2": ["a", "b"]},
    )


@pytest.fixture
def floor_below_cap():
    """Two players sharing "a" (value 2), each with a unit resource of its own.
    The greedy integral floor 1 is T*, below the cap 2, so the T* search
    probes CLP exactly once, at 2 (infeasible)."""
    return make_instance(
        {"a": "2", "b": "1", "c": "1"},
        {"p1": ["a", "b"], "p2": ["a", "c"]},
    )


@pytest.fixture
def shared_single():
    """Two players fighting over one unit-value resource."""
    return make_instance(
        {"r": "1"},
        {"p1": ["r"], "p2": ["r"]},
    )


@pytest.fixture
def thin_chain():
    """Two players, four thin resources of value 3/23; p2 only reaches t1, t2."""
    return make_instance(
        {"t1": "3/23", "t2": "3/23", "t3": "3/23", "t4": "3/23"},
        {"p1": ["t1", "t2", "t3", "t4"], "p2": ["t1", "t2"]},
    )


@pytest.fixture
def ten_thin():
    """One player, ten resources of value 1/10."""
    ids = [f"r{i}" for i in range(1, 11)]
    return make_instance(
        {r: "1/10" for r in ids},
        {"p": ids},
    )
