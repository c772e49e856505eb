from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from steklov_trees import (
    BadParamsError,
    VerifyConfig,
    run_verification,
)
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
