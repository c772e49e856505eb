from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steklov_trees import (
    BadParamsError,
    DtnMatrix,
    InvariantViolationError,
    VerifyConfig,
    dtn_matrices,
    dtn_matrix,
    gen_ball,
    gen_random_interior3,
    gen_random_tree,
    generate_family,
    run_verification,
    spectra_from_matrices,
    steklov_spectrum,
)
from steklov_trees import bounds, harmonic, spectra, verify
from steklov_trees.cli import main
from steklov_trees.config import DEFAULT_TOL

from _oracle import oracle_agreement_bisect
from conftest import shapes

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
    rep = run_verification(small_config(trials=150, interior3_trials=50, max_n=60,
                                        max_degree=6, oracle_stride=1))
    assert rep.overall_pass
    c = rep.counter("oracle_agreement")
    assert (c.passed, c.failed, c.skipped) == (200, 0, 0)


DELTA = DEFAULT_TOL.oracle_agreement


@pytest.mark.parametrize("by,passes", [(2 * DELTA, False), (-2 * DELTA, False),
                                       (0.5 * DELTA, True), (-0.5 * DELTA, True)])
def test_oracle_agreement_fails_with_both_counts_when_an_eigenvalue_moves(monkeypatch, by,
                                                                         passes):
    real, moved = verify.spectra_from_matrices, []

    def zero_moved(mats, tol):
        out = []
        for s in real(mats, tol):
            w = s.eigenvalues.copy()
            w[0] += by
            moved.append(float(w[0]))
            out.append(dataclasses.replace(s, eigenvalues=w))
        return out

    monkeypatch.setattr(verify, "spectra_from_matrices", zero_moved)
    rep = run_verification(small_config(trials=6, interior3_trials=2, oracle_stride=1))
    c = rep.counter("oracle_agreement")
    if passes:
        assert rep.overall_pass and c.passed == 8
        return
    assert (c.passed, c.failed, c.crashed) == (0, 8, 0)
    # the trivial eigenvalue is audited on every tree, and no other check reads it
    assert [f["check"] for f in rep.failures] == ["oracle_agreement"] * 8
    # above it, both shifts count the zero alone; below it, neither counts it
    counts = "1, 1" if by > 0 else "0, 0"
    for f, x in zip(rep.failures, moved):
        assert f["detail"] == (f"AssertionError: eigenvalue 1: dense {x!r} not within "
                               f"1e-08 of the pencil's (counts {counts} at ∓1e-08)")


class _Moved:
    """``spectrum`` with its k-th eigenvalue moved by ``by``."""

    def __init__(self, spectrum, k: int, by: float):
        self.spectrum, self.k, self.by = spectrum, k, by

    def eigenvalue(self, j: int) -> float:
        return self.spectrum.eigenvalue(j) + (self.by if j == self.k else 0.0)


def _passes(check, t, spectrum, ks) -> bool:
    try:
        check(t, spectrum, ks, DEFAULT_TOL)
    except AssertionError:
        return False
    return True


def _bracket_and_bisection_agree(t, pick: int | None) -> None:
    """Both oracle verdicts with one audited eigenvalue moved: the ``pick``-th, or each."""
    ks = verify._k_values(t.n_boundary)
    idx = verify._oracle_indices(t.n_boundary, ks)
    spectrum = steklov_spectrum(t)
    for k in idx if pick is None else [idx[pick % len(idx)]]:
        for by, want in ((0.0, True), (0.5 * DELTA, True), (-0.5 * DELTA, True),
                         (2 * DELTA, False), (-2 * DELTA, False)):
            moved = _Moved(spectrum, k, by)
            assert _passes(verify._pencil_brackets, t, moved, ks) is want, (k, by)
            assert _passes(oracle_agreement_bisect, t, moved, ks) is want, (k, by)


@given(t=shapes, pick=st.integers(0, 60))
def test_pencil_brackets_judge_as_the_bisection_did(t, pick):
    _bracket_and_bisection_agree(t, pick)


def _harness_trees(seed: int, trials: int, interior3_trials: int, max_n: int = 60,
                   max_degree: int = 6):
    """The trees ``run_verification`` draws."""
    master = random.Random(seed)
    families = ((2, gen_random_tree, trials), (3, gen_random_interior3, interior3_trials))
    for min_cap, gen, count in families:
        for _ in range(count):
            n = master.randint(5, max_n)
            cap = master.randint(min_cap, max_degree)
            yield gen(n, cap, master.getrandbits(63))


def test_pencil_brackets_judge_as_the_bisection_did_on_harness_draws():
    for i, t in enumerate(_harness_trees(3, 150, 50)):
        _bracket_and_bisection_agree(t, i)


@pytest.mark.parametrize("d,r", [(3, 1), (8, 1), (40, 1), (3, 3), (4, 2), (3, 4), (5, 2)])
def test_pencil_brackets_judge_as_the_bisection_did_on_multiple_eigenvalues(d, r):
    _bracket_and_bisection_agree(gen_ball(d, r), None)


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


# twelve of the hundred recorded seeds, spread over them: about 0.15 s each
@pytest.mark.parametrize("seed", [0, 7, 13, 21, 34, 42, 55, 63, 70, 81, 92, 99])
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
    real, calls = verify.dtn_matrices, []

    def flaky(trees, tol):
        # a fault confined to the second tree drawn: its batch raises
        calls.extend(t for t in trees if t not in calls)
        if calls[1:2] and any(t is calls[1] for t in trees):
            raise ValueError("assembly bug")
        return real(trees, tol)

    monkeypatch.setattr(verify, "dtn_matrices", flaky)
    rep = run_verification(small_config(trials=4, interior3_trials=0))
    assert len(calls) == 4
    c = rep.counter("dtn_invariants")
    assert (c.passed, c.failed, c.crashed) == (3, 0, 1)
    assert rep.failures == [{"trial": "random[1]", "check": "dtn_invariants",
                             "detail": "ValueError: assembly bug", "crashed": "ValueError",
                             "replay": rep.failures[0]["replay"]}]
    assert generate_family(rep.failures[0]["replay"]).edges == calls[1].edges
    # the broken tree stops at the assembly; the others go through every check
    assert rep.counter("tree_structure").passed == 4
    assert rep.counter("spectrum_invariants").passed == 3
    assert rep.counter("diameter_chain").passed == 3


# -- the dense route's batches against batches of one ----------------------------------

def _bits(a: np.ndarray) -> bytes:
    # int64 views, not array_equal: -0.0 == 0.0, but their bits differ
    return np.ascontiguousarray(a).view(np.int64).tobytes()


def _assert_batch_is_alone(trees) -> None:
    """Each tree's response matrix and spectrum from one batch, bit for bit as alone."""
    trees = list(trees)
    # straight through the batch, with no rerun one tree at a time
    mats = dtn_matrices(trees)
    spectra = spectra_from_matrices(mats)
    assert len(mats) == len(spectra) == len(trees)
    for t, mat, spectrum in zip(trees, mats, spectra):
        alone = steklov_spectrum(t)
        assert mat.tree is t and spectrum.tree is t
        assert _bits(mat.entries) == _bits(dtn_matrix(t).entries)
        for name in ("eigenvalues", "boundary_basis", "extensions"):
            assert _bits(getattr(spectrum, name)) == _bits(getattr(alone, name)), name


@pytest.mark.parametrize("seed", [5, 77])
def test_a_batch_of_harness_draws_is_bitwise_each_tree_alone(seed):
    _assert_batch_is_alone(_harness_trees(seed, 50, 15))


def test_a_batch_of_family_shapes_is_bitwise_each_tree_alone():
    specs = [{"family": "BALL", "D": 40, "r": 1},  # a lone interior vertex
             {"family": "PATH", "L": 30},
             {"family": "BALL", "D": 3, "r": 4},
             {"family": "EXTREMAL_MIDDLE", "L": 10, "variant": "B"}]
    shapes = [generate_family(spec) for spec in specs]
    # alone, together, and between harness draws
    _assert_batch_is_alone(shapes)
    _assert_batch_is_alone([*_harness_trees(9, 4, 1), *shapes, *_harness_trees(10, 3, 1)])
    # harness draws barely spread the layer counts; these trees' run from
    # one (the star) to a hundred (the path), aligned at the top
    mixed = [{"family": "PATH", "L": 200},
             {"family": "BALL", "D": 3, "r": 3},
             {"family": "BALL", "D": 6, "r": 1},
             {"family": "REFINED", "l": 3},
             {"family": "EXTREMAL_MIDDLE", "L": 40, "variant": "A"}]
    first, last = _harness_trees(12, 2, 0)
    _assert_batch_is_alone([first, *map(generate_family, mixed), last])


def test_a_large_run_splits_into_capped_batches_each_bitwise_alone():
    cfg = small_config(trials=160, interior3_trials=40, max_n=60, max_degree=6, seed=21)
    drawn = [(t, "", False) for t in _harness_trees(cfg.seed, cfg.trials,
                                                    cfg.interior3_trials)]
    batches = list(verify._batches(drawn))
    assert len(batches) > 2
    assert [item for b in batches for item in b] == drawn
    for b in batches:
        trees = [t for t, _, _ in b]
        entries = sum(t.n for t in trees) * max(t.n_boundary for t in trees)
        assert entries <= verify.BATCH_ENTRIES or len(b) == 1
        _assert_batch_is_alone(trees)


def _checked_alone(cfg: VerifyConfig) -> verify.VerificationReport:
    """``cfg``'s trees, each checked by ``_check_tree`` on its own."""
    rep = verify.VerificationReport(config={})
    labels = [*(f"random[{i}]" for i in range(cfg.trials)),
              *(f"interior3[{i}]" for i in range(cfg.interior3_trials))]
    trees = _harness_trees(cfg.seed, cfg.trials, cfg.interior3_trials, cfg.max_n,
                           cfg.max_degree)
    for trial, (t, label) in enumerate(zip(trees, labels)):
        verify._check_tree(t, label, rep, cfg.tol, full_oracle=trial % cfg.oracle_stride == 0)
    return rep


def _same_counts_and_failures(a: verify.VerificationReport,
                              b: verify.VerificationReport) -> None:
    """The counters and failures of ``a``, checked alone, and of ``b``, a run.

    A run's failure entries also carry the tree's replay spec, which a
    tree checked alone is not given.
    """
    assert a.to_json_dict()["checks"] == b.to_json_dict()["checks"]
    assert a.failures == [{k: v for k, v in f.items() if k != "replay"} for f in b.failures]


@pytest.mark.parametrize("t", [gen_random_tree(40, 5, 3), gen_random_tree(60, 4, 8),
                               gen_random_interior3(30, 5, 2)], ids=["t0", "t1", "t2"])
def test_the_checks_never_read_the_edge_pairs(t):
    # the pairs are derived on first read; every check of a harness tree,
    # the exhaustive split and the full oracle included, runs on the arrays
    rep = verify.VerificationReport(config={})
    verify._check_tree(t, "random[0]", rep, DEFAULT_TOL, full_oracle=True)
    assert rep.overall_pass and rep.counter("partition_two_optimal").passed == 1
    assert "edges" not in vars(t)


def test_a_tree_checked_alone_reports_as_in_its_batch(monkeypatch):
    cfg = small_config(trials=40, interior3_trials=10, max_n=60, max_degree=6, seed=3,
                       oracle_stride=4)
    real, sizes = verify.dtn_matrices, []

    def counted(trees, tol):
        sizes.append(len(trees))
        return real(trees, tol)

    monkeypatch.setattr(verify, "dtn_matrices", counted)
    rep = run_verification(cfg)
    assert rep.overall_pass
    # a healthy run assembles each tree once, in batches, none run again alone
    assert sum(sizes) == 50 and len(sizes) < 50
    _same_counts_and_failures(_checked_alone(cfg), rep)


def _faulty_pivots(t):
    # degrees that understate the root's interior children: a pivot goes negative
    return dataclasses.replace(t, degrees=np.minimum(t.degrees, 2))


def _faulty_row_sums(t):
    # one interior degree too many: the solve is consistent, the row sums are not
    degrees = t.degrees.copy()
    degrees[t.interior[0]] += 1
    return dataclasses.replace(t, degrees=degrees)


@pytest.mark.parametrize("fault,match", [(_faulty_pivots, "pivot"),
                                         (_faulty_row_sums, "row sums")])
def test_an_assembly_fault_stays_with_its_tree_in_a_batch(fault, match):
    good = list(_harness_trees(4, 5, 1))
    bad = fault(gen_ball(5, 2))
    with pytest.raises(InvariantViolationError, match=match) as alone:
        dtn_matrix(bad)
    outcomes = verify._dense_route([*good[:3], bad, *good[3:]], DEFAULT_TOL)
    mat, spectrum = outcomes.pop(3)
    assert type(mat) is type(alone.value) and str(mat) == str(alone.value)
    assert spectrum is verify._MISSING
    for t, (mat, spectrum) in zip(good, outcomes):
        assert _bits(mat.entries) == _bits(dtn_matrix(t).entries)
        assert _bits(spectrum.extensions) == _bits(steklov_spectrum(t).extensions)


@pytest.mark.parametrize("where", ["validate", "eigensolve", "spectral_check"])
def test_a_fault_in_one_tree_is_recorded_as_when_checked_alone(monkeypatch, where):
    cfg = small_config(trials=12, interior3_trials=4, max_n=60, max_degree=6, seed=8,
                       oracle_stride=5)
    target = list(_harness_trees(cfg.seed, cfg.trials, cfg.interior3_trials))[6]
    bad = _bits(dtn_matrix(target).entries)
    bad_basis = _bits(steklov_spectrum(target).boundary_basis)
    if where == "validate":
        real = DtnMatrix.validate

        def validate(self, tol=DEFAULT_TOL):
            if _bits(self.entries) == bad:
                raise InvariantViolationError("tampered response matrix")
            real(self, tol)

        monkeypatch.setattr(DtnMatrix, "validate", validate)
    elif where == "eigensolve":
        real = spectra.eigendecompose_symmetric

        def eigensolve(m):
            if _bits(m) == bad:
                raise FloatingPointError("eigensolver broke down")
            return real(m)

        monkeypatch.setattr(spectra, "eigendecompose_symmetric", eigensolve)
    else:
        real = spectra._check_spectrum

        def check(t, w, q, lap, tol):
            real(t, w, q, lap, tol)
            if _bits(q) == bad_basis:
                raise InvariantViolationError("tampered spectrum")

        monkeypatch.setattr(spectra, "_check_spectrum", check)
    rep = run_verification(cfg)
    check = "dtn_invariants" if where == "validate" else "spectrum_invariants"
    assert [(f["trial"], f["check"]) for f in rep.failures] == [("random[6]", check)]
    assert rep.counter("tree_structure").passed == 16
    assert rep.counter("diameter_chain").passed == 15
    _same_counts_and_failures(_checked_alone(cfg), rep)


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


# -- replayable failures and non-finite assemblies ----------------------------------

def test_each_failure_names_the_family_spec_that_rebuilds_its_tree(monkeypatch):
    # the diameter chain fails on every tree, random and interior-3 alike
    monkeypatch.setattr(verify, "diameter_test_function",
                        _raiser(InvariantViolationError("forced")))
    cfg = small_config(trials=4, interior3_trials=3)
    rep = run_verification(cfg)
    trees = list(_harness_trees(cfg.seed, cfg.trials, cfg.interior3_trials, cfg.max_n,
                                cfg.max_degree))
    entries = [f for f in rep.failures if f["check"] == "diameter_chain"]
    assert [f["trial"] for f in entries] == [*(f"random[{i}]" for i in range(4)),
                                             *(f"interior3[{i}]" for i in range(3))]
    for f, t in zip(entries, trees):
        spec = f["replay"]
        family, size = (("RANDOM", "n") if f["trial"].startswith("random")
                        else ("RANDOM_INTERIOR3", "n_target"))
        assert sorted(spec) == sorted(["family", size, "max_degree", "seed"])
        assert spec["family"] == family
        assert generate_family(spec).edges == t.edges
    # the spec survives the report's JSON
    assert json.loads(json.dumps(rep.to_json_dict()))["failures"][0]["replay"] == \
        entries[0]["replay"]


def test_a_nan_assembly_fails_the_response_matrix_check(monkeypatch):
    # boundary rows of NaN: the interior residual holds, the matrix does not
    real = harmonic._laplacian

    def nan_rows(b, vals):
        out = real(b, vals)
        out[b.boundary] = np.nan
        return out

    monkeypatch.setattr(harmonic, "_laplacian", nan_rows)
    rep = run_verification(small_config(trials=3, interior3_trials=0))
    c = rep.counter("dtn_invariants")
    assert (c.passed, c.failed, c.crashed) == (0, 3, 0)
    assert "spectrum_invariants" not in rep.counters
    assert {f["check"] for f in rep.failures} == {"dtn_invariants"}
    assert all(f["detail"].startswith("InvariantViolationError: response matrix")
               for f in rep.failures)
