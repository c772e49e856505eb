from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from steklov_trees import (
    BadParamsError,
    InvariantViolationError,
    VerifyConfig,
    run_verification,
)
from steklov_trees import bounds, verify
from steklov_trees.cli import main

# sha256 of fixed-seed `verify` reports, recorded for the benchmark
EXPECTED_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def small_config(**overrides) -> VerifyConfig:
    base = dict(trials=25, interior3_trials=8, max_n=30, max_degree=5, seed=11,
                oracle_stride=6)
    base.update(overrides)
    return VerifyConfig(**base)


def test_small_run_passes():
    rep = run_verification(small_config())
    assert rep.overall_pass
    assert rep.failures == []
    c = rep.counter("tree_structure")
    assert c.passed == 33 and c.failed == 0
    # stride 6 over 33 trees: trials 0, 6, 12, ... get the pencil cross-check
    assert rep.counter("oracle_agreement").passed == 6
    assert rep.counter("oracle_agreement").skipped == 27


def test_every_trial_audited():
    rep = run_verification(small_config())
    for name in ("dtn_invariants", "spectrum_invariants", "partition_two_cert",
                 "partition_two_optimal", "two_level_chain", "diameter_chain",
                 "bound_LAM2_BOUNDARY", "bound_LAM2_DIAMETER", "bound_PROP_L"):
        c = rep.counter(name)
        assert c.failed == 0
        assert c.passed == 33, name


def test_reports_are_deterministic():
    a = run_verification(small_config()).to_json_dict()
    b = run_verification(small_config()).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["overall_pass"] is True
    assert a["schema"] == "steklov-trees/1"
    assert a["command"] == "verify"


def test_different_seed_different_trees():
    a = run_verification(small_config())
    b = run_verification(small_config(seed=12))
    assert a.overall_pass and b.overall_pass
    # same counters shape, but the sampled trees differ somewhere
    assert a.to_json_dict()["config"]["seed"] != b.to_json_dict()["config"]["seed"]


def test_oracle_stride_one_checks_everything():
    rep = run_verification(small_config(trials=6, interior3_trials=0,
                                        oracle_stride=1))
    assert rep.counter("oracle_agreement").passed == 6
    assert rep.counter("oracle_agreement").skipped == 0


@pytest.mark.parametrize("kwargs", [
    dict(trials=0),
    dict(interior3_trials=-1),
    dict(max_n=4),
    dict(max_degree=2),
    dict(oracle_stride=0),
])
def test_config_validation(kwargs):
    with pytest.raises(BadParamsError):
        run_verification(small_config(**kwargs))


@pytest.mark.parametrize("seed", [0, 7, 42, 99])
def test_fixed_seed_report_bytes_match_recorded_digests(seed, capsys):
    recorded = json.loads(EXPECTED_DIGESTS.read_text(encoding="utf-8"))["verify"]
    assert recorded["argv"] == ["verify", "--trials", "50", "--max-n", "60",
                                "--max-degree", "6"]
    assert main([*recorded["argv"], "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == recorded["sha256"][str(seed)]


def _raiser(exc):
    def fn(*args, **kwargs):
        raise exc
    return fn


@pytest.mark.parametrize("target,check,context", [
    ("diameter_test_function", "diameter_chain", ""),
    ("multiway_test_functions", "multiway_chain", "k="),
    ("bnd.audit", "bound_reports", ""),
])
@pytest.mark.parametrize("exc,outcome", [
    (TypeError("harness bug"), "crashed"),
    (KeyError("harness bug"), "crashed"),
    (InvariantViolationError("bound violated"), "failed"),
    (AssertionError("bound violated"), "failed"),
])
def test_a_crashing_check_is_told_apart_from_a_failing_one(monkeypatch, target, check,
                                                          context, exc, outcome):
    owner, _, attr = target.rpartition(".")
    monkeypatch.setattr(getattr(verify, owner) if owner else verify, attr, _raiser(exc))
    rep = run_verification(small_config(trials=3, interior3_trials=0))
    assert not rep.overall_pass
    c = rep.counter(check)
    assert c.passed == 0 and getattr(c, outcome) > 0
    assert (c.failed if outcome == "crashed" else c.crashed) == 0
    entries = [f for f in rep.failures if f["check"] == check]
    assert len(entries) == getattr(c, outcome)
    kind = type(exc).__name__
    for f in entries:
        assert f["detail"].startswith(context)
        assert f["detail"].endswith(f"{kind}: {exc}")
        assert f.get("crashed") == (kind if outcome == "crashed" else None)
    checks = rep.to_json_dict()["checks"]
    assert ("crashed" in checks[check]) == (outcome == "crashed")
    assert "crashed" not in checks["tree_structure"]


def test_cli_reports_a_crashed_check(monkeypatch, capsys):
    monkeypatch.setattr(verify, "diameter_test_function", _raiser(TypeError("harness bug")))
    argv = ["verify", "--trials", "3", "--max-n", "12", "--max-degree", "4"]
    assert main(argv) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["checks"]["diameter_chain"]["crashed"] == 3
    assert {f["crashed"] for f in rep["failures"]} == {"TypeError"}
    assert main([*argv, "--format", "csv"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "check,passed,failed,skipped,crashed"
    assert "diameter_chain,0,0,0,3" in lines


def test_an_assembly_failure_is_recorded_and_the_next_tree_checked(monkeypatch):
    real, calls = verify.dtn_matrix, []

    def flaky(t, tol):
        calls.append(t.n)
        if len(calls) == 2:
            raise ValueError("assembly bug")
        return real(t, tol)

    monkeypatch.setattr(verify, "dtn_matrix", flaky)
    rep = run_verification(small_config(trials=4, interior3_trials=0))
    assert len(calls) == 4
    c = rep.counter("dtn_invariants")
    assert (c.passed, c.failed, c.crashed) == (3, 0, 1)
    assert rep.failures == [{"trial": "random[1]", "check": "dtn_invariants",
                             "detail": "ValueError: assembly bug", "crashed": "ValueError"}]
    # the broken tree stops at the assembly; the others go through every check
    assert rep.counter("tree_structure").passed == 4
    assert rep.counter("spectrum_invariants").passed == 3
    assert rep.counter("diameter_chain").passed == 3


def test_witness_chains_read_the_bound_table(monkeypatch):
    # every bound at zero: each R(f) > 0 now sits above its cap
    for bound_id in (bounds.LAM2_BOUNDARY, bounds.LAM2_DIAMETER, bounds.LAMK_BOUNDARY):
        monkeypatch.setitem(bounds.BOUND_VALUES, bound_id, lambda t, k: Fraction(0))
    rep = run_verification(small_config(trials=8, interior3_trials=2))
    for check, cap in (("two_level_chain", "4(D-1)/|boundary|"),
                       ("diameter_chain", "2/L"),
                       ("multiway_chain", "the multiway cap")):
        c = rep.counter(check)
        assert c.passed == 0 and c.crashed == 0 and c.failed > 0, check
        details = [f["detail"] for f in rep.failures if f["check"] == check]
        assert len(details) == c.failed
        assert all(d.endswith(f"above {cap}") for d in details), check
    # the bound reports certify against the same table, with the detail they always had
    c = rep.counter("bound_LAM2_BOUNDARY")
    assert (c.passed, c.failed) == (0, 10)
    details = [f["detail"] for f in rep.failures if f["check"] == "bound_LAM2_BOUNDARY"]
    assert all(d.startswith("bound 0.0 measured ") for d in details)
    # the table's other entries are untouched
    assert rep.counter("bound_LAM2_VOLUME").failed == 0
