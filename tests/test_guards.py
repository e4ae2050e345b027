"""Checks that certified claims stay checked under `python -O`."""

import ast
from pathlib import Path

from conftest import run_python_optimize

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "maxminfair"


def test_package_has_no_assert_statements():
    # `python -O` strips `assert`, so a guard written as one silently stops
    # guarding; the package raises `VerificationFailed` instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_acceptance_suite_passes_under_python_optimize():
    proc = run_python_optimize(
        "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_acceptance.py"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
