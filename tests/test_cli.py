import gc
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from maxminfair import (
    DualCertificate,
    cli,
    format_rational,
    generate_instance,
    validate_instance,
)
from maxminfair.certificates import BalanceReport
from maxminfair.cli import (
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_OK,
    SolveResult,
    main,
    solve,
)
from maxminfair.errors import VerificationFailed
from maxminfair.simplex import Tableau

from conftest import make_instance, negative_price_optimize, zero_optimize

F = Fraction


def write_instance(tmp_path, instance, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(instance.to_json_dict()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestGen:
    def test_deterministic(self, capsys, tmp_path):
        code1, payload1 = run_cli(
            capsys, "gen", "--players", "3", "--resources", "5", "--seed", "9"
        )
        code2, payload2 = run_cli(
            capsys, "gen", "--players", "3", "--resources", "5", "--seed", "9"
        )
        assert code1 == code2 == EXIT_OK
        assert payload1 == payload2
        inst = validate_instance(payload1)
        assert inst.num_players == 3 and inst.num_resources == 5

    def test_all_kinds_validate(self, capsys):
        for kind in ("uniform", "fat-thin-mix", "clustered-desire"):
            code, payload = run_cli(
                capsys,
                "gen", "--kind", kind, "--players", "4", "--resources", "7",
            )
            assert code == EXIT_OK
            validate_instance(payload)

    def test_bad_counts(self, capsys):
        code = main(["gen", "--players", "0", "--resources", "3"])
        assert code == EXIT_INPUT

    def test_writes_instance_file(self, tmp_path):
        out = tmp_path / "generated.json"
        code = main(
            ["gen", "--players", "2", "--resources", "4", "--out", str(out)]
        )
        assert code == EXIT_OK
        validate_instance(json.loads(out.read_text()))


class TestSolve:
    def test_two_fat_auto(self, capsys, tmp_path, two_fat):
        inst_path = write_instance(tmp_path, two_fat)
        out_path = str(tmp_path / "allocation.json")
        code, report = run_cli(
            capsys, "solve", "--instance", inst_path, "--out", out_path
        )
        assert code == EXIT_OK
        assert report["outcome"] == "Allocated"
        assert report["t_star"] == {"mode": "exact", "value": "1"}
        assert report["min_value"] == "1"
        assert report["ratio"] == "1"
        allocation = json.loads(open(out_path).read())
        assert set(allocation["allocation"]) == {"p1", "p2"}

    def test_shared_single_forced_target(self, capsys, tmp_path, shared_single):
        inst_path = write_instance(tmp_path, shared_single)
        code, report = run_cli(
            capsys, "solve", "--instance", inst_path, "--target", "1"
        )
        assert code == EXIT_INFEASIBLE
        assert report["outcome"] == "Certified-Infeasible"
        cert = report["certificate"]
        assert cert["objective"] == "15/23"
        assert cert["feasibility_check"]["passed"]
        assert cert["balance_check"]["passed"]

    def test_ten_thin_auto(self, capsys, tmp_path, ten_thin):
        inst_path = write_instance(tmp_path, ten_thin)
        code, report = run_cli(capsys, "solve", "--instance", inst_path)
        assert code == EXIT_OK
        assert report["outcome"] == "Allocated"
        # The matched bundle is three tenths; leftovers then flow to the
        # only player, so the full allocation is worth 1.
        assert F(report["min_value"]) >= F(6, 23)

    def test_trace_file(self, capsys, tmp_path, two_fat):
        inst_path = write_instance(tmp_path, two_fat)
        trace_path = tmp_path / "trace.jsonl"
        code, _ = run_cli(
            capsys, "solve", "--instance", inst_path, "--trace", str(trace_path)
        )
        assert code == EXIT_OK
        rows = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert rows
        assert {"step", "kind", "player", "bundle", "blocker_index", "signature"} <= set(
            rows[0]
        )
        assert all(row["signature"][-1] == "inf" for row in rows)

    def test_missing_file(self, capsys):
        assert main(["solve", "--instance", "/does/not/exist.json"]) == EXIT_INPUT

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--instance", str(bad)]) == EXIT_INPUT

    def test_explicit_zero_target(self, capsys, tmp_path, shared_single):
        inst_path = write_instance(tmp_path, shared_single)
        code, report = run_cli(
            capsys, "solve", "--instance", inst_path, "--target", "0"
        )
        assert code == EXIT_OK
        assert report["outcome"] == "Allocated"

    def test_failed_verification_is_internal_error(
        self, monkeypatch, capsys, tmp_path, two_fat
    ):
        monkeypatch.setattr(Tableau, "optimize", zero_optimize)
        code = main(["solve", "--instance", write_instance(tmp_path, two_fat)])
        assert code == EXIT_FAIL
        assert capsys.readouterr().err.startswith("internal error:")

    def test_failed_certificate_is_internal_error(
        self, monkeypatch, capsys, tmp_path, shared_single
    ):
        failing = BalanceReport(
            passed=False, balances=(), objective=F(0), failures=("forced failure",)
        )
        monkeypatch.setattr(cli, "check_blocker_balances", lambda *args: failing)
        argv = ["solve", "--instance", write_instance(tmp_path, shared_single)]
        assert main([*argv, "--target", "1"]) == EXIT_FAIL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error:")
        assert "forced failure" in captured.err
        with pytest.raises(VerificationFailed, match="forced failure"):
            solve(shared_single, F(1))

    def test_negative_master_price_is_internal_error(
        self, monkeypatch, capsys, tmp_path, two_fat
    ):
        # A resource price the master computed is the solver's, not the input's.
        monkeypatch.setattr(Tableau, "optimize", negative_price_optimize)
        code = main(["solve", "--instance", write_instance(tmp_path, two_fat)])
        assert code == EXIT_FAIL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error:")

    def test_negative_certificate_price_is_internal_error(
        self, monkeypatch, capsys, tmp_path, shared_single
    ):
        construct = cli.construct_dual_certificate

        def negated(ni, state):
            cert = construct(ni, state)
            z = {r: -v for r, v in cert.z.items()}
            return DualCertificate(y=cert.y, z=z)

        monkeypatch.setattr(cli, "construct_dual_certificate", negated)
        argv = ["solve", "--instance", write_instance(tmp_path, shared_single)]
        assert main([*argv, "--target", "1"]) == EXIT_FAIL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error:")
        with pytest.raises(VerificationFailed, match="resource 'r'"):
            solve(shared_single, F(1))

    def test_oversized_derived_value_is_a_budget_error(self, capsys, tmp_path):
        # Every value is within the parse bound, but T* has a denominator of
        # about 5,000 digits, past the bound that formatting enforces.
        denominators = [2**3300, 3**2090, 5**1430, 7**1180, 11**960]
        inst = make_instance(
            {f"r{k}": f"1/{q}" for k, q in enumerate(denominators)},
            {"p": [f"r{k}" for k in range(len(denominators))]},
        )
        code = main(["solve", "--instance", write_instance(tmp_path, inst)])
        assert code == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget error:")

    def test_wrong_shape_instance(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"players": ["p1"], "resources": 5}))
        assert main(["solve", "--instance", str(bad)]) == EXIT_INPUT

    def test_string_resource_entries_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        raw = {"players": ["p"], "resources": ["a1", "b2"], "desires": {"p": ["a"]}}
        bad.write_text(json.dumps(raw))
        assert main(["solve", "--instance", str(bad)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "malformed resource entry" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--target", "abc"],
            ["--target", "-1"],
        ],
        ids=["target-not-rational", "target-negative"],
    )
    def test_bad_arguments_fail_before_t_star(
        self, monkeypatch, capsys, tmp_path, two_fat, argv
    ):
        def unreachable(*args, **kwargs):
            pytest.fail("the T* search ran before the arguments were checked")

        monkeypatch.setattr(cli, "compute_T_star", unreachable)
        code = main(["solve", "--instance", write_instance(tmp_path, two_fat), *argv])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error:")

    def test_explicit_target_skips_the_t_star_search(
        self, monkeypatch, capsys, tmp_path, shared_single
    ):
        def unreachable(*args, **kwargs):
            pytest.fail("the T* search ran although the target was given")

        monkeypatch.setattr(cli, "compute_T_star", unreachable)
        inst_path = write_instance(tmp_path, shared_single)
        code, report = run_cli(capsys, "solve", "--instance", inst_path, "--target", "1")
        assert code == EXIT_INFEASIBLE
        assert report["certificate"]["objective"] == "15/23"
        assert report["t_star"] is None and report["ratio"] is None
        code, report = run_cli(capsys, "solve", "--instance", inst_path, "--target", "0")
        assert code == EXIT_OK
        assert report["t_star"] is None and report["ratio"] is None

    def test_hostile_rationals_are_input_errors(self, capsys, tmp_path, two_fat):
        inst_path = write_instance(tmp_path, two_fat)
        payload = two_fat.to_json_dict()
        payload["resources"][0]["value"] = "1e5000"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["solve", "--instance", str(bad)]) == EXIT_INPUT
        # An integer literal past the int-to-string limit fails in the JSON
        # parser itself.
        bad.write_text(json.dumps(payload).replace('"1e5000"', "1" + "0" * 5000))
        assert main(["solve", "--instance", str(bad)]) == EXIT_INPUT
        argv = ["solve", "--instance", inst_path, "--target", "1e100000000"]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().out == ""


class TestVerify:
    def test_pipeline_allocation_passes(self, capsys, tmp_path, two_fat):
        inst_path = write_instance(tmp_path, two_fat)
        out_path = str(tmp_path / "allocation.json")
        run_cli(capsys, "solve", "--instance", inst_path, "--out", out_path)
        code, report = run_cli(
            capsys,
            "verify",
            "--instance", inst_path,
            "--allocation", out_path,
            "--threshold", "6/23",
        )
        assert code == EXIT_OK
        assert report["passed"] is True

    def test_threshold_failure(self, capsys, tmp_path):
        inst = make_instance({"a": "1"}, {"p1": ["a"], "p2": ["a"]})
        inst_path = write_instance(tmp_path, inst)
        alloc_path = tmp_path / "alloc.json"
        alloc_path.write_text(json.dumps({"allocation": {"p1": ["a"], "p2": []}}))
        code, report = run_cli(
            capsys,
            "verify",
            "--instance", inst_path,
            "--allocation", str(alloc_path),
            "--threshold", "1/2",
        )
        assert code == EXIT_FAIL
        assert report["passed"] is False
        assert report["min_value"] == "0"

    def test_not_a_partition(self, capsys, tmp_path, two_fat):
        inst_path = write_instance(tmp_path, two_fat)
        alloc_path = tmp_path / "alloc.json"
        alloc_path.write_text(json.dumps({"allocation": {"p1": ["a", "b"], "p2": ["a"]}}))
        code = main(
            ["verify", "--instance", inst_path, "--allocation", str(alloc_path)]
        )
        assert code == EXIT_INPUT

    def test_malformed_allocation(self, capsys, tmp_path, two_fat):
        inst_path = write_instance(tmp_path, two_fat)
        alloc_path = tmp_path / "alloc.json"
        for allocation in ({"p1": 5}, ["a", "b"], {"p1": [["a"]], "p2": ["b"]}):
            alloc_path.write_text(json.dumps({"allocation": allocation}))
            code = main(
                ["verify", "--instance", inst_path, "--allocation", str(alloc_path)]
            )
            assert code == EXIT_INPUT, allocation

    def test_huge_coprime_denominators_stay_cheap(self, capsys, tmp_path):
        # 300 values 1/q, q distinct odd 1000-digit numbers: their common
        # denominator has about 300,000 digits.  Validating and verifying
        # never read the integer values, so neither pays for that LCM.
        qs = [10**999 + 2 * k + 1 for k in range(300)]
        raw = {
            "players": [f"p{k}" for k in range(300)],
            "resources": [{"id": f"r{k}", "value": f"1/{q}"} for k, q in enumerate(qs)],
            "desires": {f"p{k}": [f"r{k}"] for k in range(300)},
        }
        inst_path = tmp_path / "instance.json"
        inst_path.write_text(json.dumps(raw))
        alloc_path = tmp_path / "alloc.json"
        alloc_path.write_text(
            json.dumps({"allocation": {f"p{k}": [f"r{k}"] for k in range(300)}})
        )
        start = time.perf_counter()
        validate_instance(raw)
        code, report = run_cli(
            capsys, "verify", "--instance", str(inst_path), "--allocation", str(alloc_path)
        )
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK
        assert report["min_value"] == f"1/{qs[-1]}"
        assert elapsed < 1


class TestSolveLibrary:
    """`solve` is the pipeline behind `maxminfair solve`: same numbers."""

    @pytest.mark.parametrize(
        "fixture, target, outcome",
        [
            ("two_fat", None, "Allocated"),
            ("shared_single", "1", "Certified-Infeasible"),
            ("shared_single", "0", "Allocated"),
        ],
    )
    def test_agrees_with_cli_report(
        self, request, capsys, tmp_path, fixture, target, outcome
    ):
        inst = request.getfixturevalue(fixture)
        argv = ["solve", "--instance", write_instance(tmp_path, inst)]
        if target is not None:
            argv += ["--target", target]
        code, report = run_cli(capsys, *argv)
        result = solve(inst, F(report["target"]))

        assert result.outcome == report["outcome"] == outcome
        assert code == (EXIT_OK if outcome == "Allocated" else EXIT_INFEASIBLE)
        if result.allocation is None:
            assert result.values is None and result.min_value is None
            assert result.certificate["feasibility_check"]["passed"]
            assert result.certificate["balance_check"]["passed"]
            assert result.certificate == report["certificate"]
        else:
            assert result.certificate is None and report["certificate"] is None
            assert {
                p: format_rational(v) for p, v in result.values.items()
            } == report["per_player_values"]
            assert format_rational(result.min_value) == report["min_value"]
        if result.search is None:
            assert target == "0"
            assert report["builds"] == report["contracts"] == 0
        else:
            assert result.search.builds == report["builds"]
            assert result.search.contracts == report["contracts"]

    def test_target_zero_is_the_leftover_rule(self, shared_single):
        result = solve(shared_single, F(0))
        assert result.search is None
        assert result.allocation == {"p1": {"r"}, "p2": set()}
        assert result.min_value == 0


def _load_benchmark_tracing(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve_and_fire(
    monkeypatch, capsys, tmp_path, two_fat, shared_single
):
    """The benchmark's traced run wraps module attributes; `solve` must keep
    calling its layers through `cli`'s own bindings, or the spans go dark."""
    tracing = _load_benchmark_tracing(monkeypatch)
    for module_name, attr, _, _ in tracing.WRAPS:
        module = importlib.import_module(f"maxminfair.{module_name}")
        assert callable(getattr(module, attr, None)), (module_name, attr)

    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    allocated = (
        "compute_T_star",
        "normalize",
        "find_perfect_matching",
        "complete_allocation",
        "verify_allocation",
    )
    certified = (
        "construct_dual_certificate",
        "verify_certificate_feasibility",
        "check_blocker_balances",
    )
    for name in allocated + certified:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))

    code, _ = run_cli(capsys, "solve", "--instance", write_instance(tmp_path, two_fat))
    assert code == EXIT_OK
    assert all(calls[name] >= 1 for name in allocated), calls
    code, _ = run_cli(
        capsys,
        "solve", "--instance", write_instance(tmp_path, shared_single),
        "--target", "1",
    )
    assert code == EXIT_INFEASIBLE
    assert all(calls[name] == 1 for name in certified), calls


class TestGap:
    def test_deterministic_table(self, capsys):
        args = [
            "gap", "--players", "3", "--resources", "5",
            "--trials", "4", "--seed", "3",
        ]
        code1, table1 = run_cli(capsys, *args)
        code2, table2 = run_cli(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert table1 == table2
        assert len(table1["rows"]) == 4
        for row in table1["rows"]:
            if not row["degenerate"]:
                assert F(row["gap"]) <= F(23, 6)
                assert F(row["ratio"]) >= F(6, 23)

    def test_halt_at_t_star_is_an_internal_error(self, capsys, monkeypatch):
        halted = SolveResult(search=None, allocation=None, values=None, min_value=None)
        monkeypatch.setattr(cli, "solve", lambda instance, target: halted)
        code = main(
            ["gap", "--players", "3", "--resources", "5", "--trials", "1", "--seed", "3"]
        )
        assert code == EXIT_FAIL
        assert capsys.readouterr().err.startswith("internal error:")

    def test_budget_exit(self, capsys):
        code = main(
            ["gap", "--players", "7", "--resources", "4", "--trials", "1"]
        )
        assert code == EXIT_BUDGET

    def test_negative_trials(self, capsys):
        code = main(
            ["gap", "--players", "3", "--resources", "5", "--trials", "-2"]
        )
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:")


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_deeply_nested_json_is_an_input_error(capsys, tmp_path, two_fat, command):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000 + "]" * 200_000)
    if command == "solve":
        argv = ["solve", "--instance", str(nested)]
    else:
        inst_path = write_instance(tmp_path, two_fat)
        argv = ["verify", "--instance", inst_path, "--allocation", str(nested)]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve"],
        ["gen", "--players", "abc", "--resources", "3"],
        ["gen", "--kind", "nope", "--players", "2", "--resources", "3"],
    ],
    ids=["missing-instance", "players-not-int", "unknown-kind"],
)
def test_usage_errors_are_input_errors(capsys, argv):
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--budget", "4"],
        ["solve", "--delta", "1/8"],
        ["gap", "--players", "3", "--resources", "5", "--budget", "4"],
    ],
    ids=["solve-budget", "solve-delta", "gap-budget"],
)
def test_removed_options_are_input_errors(capsys, tmp_path, two_fat, argv):
    # T* is always exact: no breakpoint budget, no bracket width.
    if argv[0] == "solve":
        argv = [*argv, "--instance", write_instance(tmp_path, two_fat)]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_help_exits_ok(capsys):
    assert main(["solve", "--help"]) == EXIT_OK
    assert "--instance" in capsys.readouterr().out


def test_closed_stdout_exits_quietly(monkeypatch, capsys, tmp_path, two_fat):
    """A reader that closed the pipe (`solve ... | head`) is not an input error."""

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    argv = ["solve", "--instance", write_instance(tmp_path, two_fat)]
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", ClosedPipe())
        code = main(argv)
    assert code == EXIT_FAIL
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "target, outcome", [("1", "Allocated"), ("2", "Certified-Infeasible")]
)
def test_output_is_independent_of_string_hashing(tmp_path, target, outcome):
    """Reports and traces do not depend on set iteration order, which
    PYTHONHASHSEED changes from one process to the next."""
    root = Path(__file__).resolve().parents[1]
    inst = generate_instance("fat-thin-mix", 4, 8, 3)  # T* = 1/2
    inst_path = write_instance(tmp_path, inst)
    runs = []
    for hash_seed in ("1", "2"):
        trace = tmp_path / f"trace-{hash_seed}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "maxminfair", "solve", "--instance", inst_path,
             "--target", target, "--trace", str(trace)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src"),
                 "PYTHONHASHSEED": hash_seed},
        )
        report = json.loads(proc.stdout)
        del report["wall_time_seconds"]
        runs.append((proc.returncode, report, trace.read_bytes()))
    assert runs[0][1]["outcome"] == outcome
    rows = [json.loads(line) for line in runs[0][2].splitlines()]
    assert any(len(row["bundle"]) > 1 for row in rows)  # thin bundles are traced
    assert runs[0] == runs[1]


def test_module_entry_point(tmp_path, two_fat):
    inst_path = write_instance(tmp_path, two_fat)
    proc = subprocess.run(
        [sys.executable, "-m", "maxminfair", "solve", "--instance", inst_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["outcome"] == "Allocated"


def test_main_reuses_one_parser(capsys, tmp_path, two_fat):
    """Repeated `main` calls leave no argparse objects for the cyclic collector."""
    argv = ["solve", "--instance", write_instance(tmp_path, two_fat)]
    assert main(argv) == EXIT_OK  # warm-up: builds the parser once
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == EXIT_OK
        gc.collect()
        leaked = [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert leaked == []
    assert cli.build_parser() is not cli.build_parser()
