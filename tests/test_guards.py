"""Guards on the package itself: checks that survive `python -O`, and its exports."""

import ast
import dataclasses
from pathlib import Path

import maxminfair
from maxminfair.matching import Matching

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


def test_negative_price_is_raised_only_by_pricing():
    # A price is a caller's input only in `min_cost_configuration`; a negative
    # price the solver computed (a master dual, a certificate) is a failed
    # re-check, raised as `VerificationFailed`.
    raised = [
        f"{path.stem}.{scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in _raising_scopes(ast.parse(path.read_text()), "NegativePrice")
    ]
    assert raised == ["configlp.min_cost_configuration"]


def test_trace_events_are_built_only_by_the_replay():
    # A search keeps one record per step; events, with sorted bundles and
    # whole signatures, are rebuilt from the records when a trace is read.
    built = [
        f"{path.stem}.{scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in _calling_scopes(ast.parse(path.read_text()), "TraceEvent")
    ]
    assert built == ["matching.replay_trace"]


def test_build_step_keeps_its_checks():
    # `find_addable_edge` builds only hypergraph edges, yet `build_step`
    # re-checks each one: a faster search may make the checks cheaper, not
    # drop them.
    tree = ast.parse((PACKAGE / "matching.py").read_text())
    assert "build_step" in _calling_scopes(tree, "edge_in_hypergraph")
    assert _raising_scopes(tree, "NotAddable").count("build_step") == 3
    assert "build_step" in _raising_scopes(tree, "VerificationFailed")


def test_progress_guard_calls_the_module_signature():
    # The guard re-derives the whole signature after every step through the
    # module-level `signature`, the name a patched `matching.signature`
    # replaces; a local binding or an incremental comparison would not see it.
    tree = ast.parse((PACKAGE / "matching.py").read_text())
    top = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "signature" in top
    extend = top["extend_matching"]
    in_loop = [
        node
        for loop in ast.walk(extend)
        if isinstance(loop, ast.While)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "signature"
    ]
    bound_locally = [
        node.lineno
        for node in ast.walk(extend)
        if (isinstance(node, ast.Name) and node.id == "signature"
            and not isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.arg) and node.arg == "signature")
        or (isinstance(node, ast.alias) and (node.asname or node.name) == "signature")
    ]
    assert in_loop and bound_locally == []


def test_t_star_search_starts_from_the_checked_floor():
    # A greedy allocation's smallest bundle value bounds T* from below only
    # if the bundles are an integral allocation, so `compute_T_star` takes
    # the greedy bundles through the check that re-derives that value, and
    # the check and the cap comparison raise rather than assert.
    tree = ast.parse((PACKAGE / "configlp.py").read_text())
    top = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    checked = [
        node
        for node in ast.walk(top["compute_T_star"])
        if isinstance(node, ast.Call)
        and _is_named(node.func, "_allocation_floor")
        and any(
            isinstance(arg, ast.Call) and _is_named(arg.func, "_integral_floor")
            for arg in node.args
        )
    ]
    assert len(checked) == 1
    raised = _raising_scopes(tree, "VerificationFailed")
    assert raised.count("_allocation_floor") == 2
    assert raised.count("compute_T_star") == 3


def test_configuration_searches_share_one_traversal_and_one_price_conversion():
    # Pricing and the top walk the candidates in one order with one prefix
    # rule, built by `_traversal`, and prices become integers only in
    # `DualCertificate.numerators`: no search scales costs by its own LCM.
    tree = ast.parse((PACKAGE / "configlp.py").read_text())
    assert sorted(_calling_scopes(tree, "_traversal")) == [
        "_top",
        "min_cost_configuration",
    ]
    lcm_scopes = _scopes_of(
        tree, lambda node: isinstance(node, ast.Name) and node.id == "lcm"
    )
    assert lcm_scopes and set(lcm_scopes) == {"numerators"}
    numerators = [
        node
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "DualCertificate"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "numerators"
    ]
    assert len(numerators) == 1


def test_dual_certificate_is_prices_only():
    # The LP layer holds no search vocabulary: the balance check reads each
    # blocker's group off the halted state, never off the certificate.
    fields = tuple(f.name for f in dataclasses.fields(maxminfair.DualCertificate))
    assert fields == ("y", "z")
    tree = ast.parse((PACKAGE / "configlp.py").read_text())
    named = [
        f"{name}:{node.lineno}"
        for node in ast.walk(tree)
        for name in _identifiers(node)
        if "blocker" in name.lower()
    ]
    assert named == []


def test_generated_instances_go_through_validation():
    # `validate_instance` is the one construction path, so every generated
    # instance is checked like a user's; a desire sort keyed on `list.index`
    # made generation O(P·R²), so the module reads no `.index` attribute.
    tree = ast.parse((PACKAGE / "generators.py").read_text())
    top = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    returned = [
        node.value
        for node in ast.walk(top["generate_instance"])
        if isinstance(node, ast.Return)
    ]
    assert returned and all(
        isinstance(value, ast.Call) and _is_named(value.func, "validate_instance")
        for value in returned
    )
    indexed = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "index"
    ]
    assert indexed == []


def _identifiers(node):
    fields = ("id", "attr", "name", "asname", "arg")
    return [getattr(node, f) for f in fields if isinstance(getattr(node, f, None), str)]


def _is_named(node, name):
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def _raising_scopes(tree, name):
    """The innermost enclosing function (None at module level) of each
    `raise name(...)` or `raise name` in `tree`."""

    def raises(node):
        if not isinstance(node, ast.Raise):
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return _is_named(exc, name)

    return _scopes_of(tree, raises)


def _calling_scopes(tree, name):
    """The innermost enclosing function of each call `name(...)` in `tree`."""

    def calls(node):
        return isinstance(node, ast.Call) and _is_named(node.func, name)

    return _scopes_of(tree, calls)


def _scopes_of(tree, matches):
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if matches(child):
                found.append(scope)
            visit(child, scope)

    visit(tree, None)
    return found


def test_acceptance_suite_passes_under_python_optimize():
    proc = run_python_optimize(
        "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_acceptance.py"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_exports_are_the_pipeline_and_verification_surface():
    # Step-level names (edges, search states, the LP and oracle helpers)
    # are imported from their modules, not from the package.
    assert maxminfair.__all__ == [
        "GUARANTEE_FRACTION",
        "Instance",
        "NormalizedInstance",
        "bundle_value",
        "format_rational",
        "normalize",
        "parse_rational",
        "validate_instance",
        "compute_T_star",
        "find_perfect_matching",
        "complete_allocation",
        "DualCertificate",
        "construct_dual_certificate",
        "verify_certificate_feasibility",
        "check_blocker_balances",
        "verify_allocation",
        "generate_instance",
    ]
    assert all(hasattr(maxminfair, name) for name in maxminfair.__all__)


def test_oracle_reads_only_the_state_and_names_of_matching():
    # The oracle is ground truth for the search, so it re-derives edges,
    # coverage and the activation order instead of calling the solver's.
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("matching")
        for alias in node.names
    }
    assert imported <= {"SearchState", "INFINITY", "FAT", "THIN"}
    assert not any(
        alias.name.endswith("matching")
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    )


def test_oracle_rederives_the_matching_from_its_edges():
    # The matching's player and resource maps are the search's own index; the
    # oracle must not trust them, so it reads `edges` and derives the rest.
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    lookups = {"edge_of", "sharing", "players", "resources"}
    private = {f.name for f in dataclasses.fields(Matching) if not f.compare}
    assert private == {"_by_player", "_by_resource"}
    called = [
        f"{node.func.attr}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in lookups
    ]
    named = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in private)
        or (isinstance(node, ast.Constant) and node.value in private)
    ]
    assert called == [] and named == []
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "matching"
    }
    assert read == {"edges"}
