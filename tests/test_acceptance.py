"""Full-strength acceptance run.

Each test certifies one headline claim of the package end to end and
prints a single ``[PASS]``/``[FAIL]`` line for it (run with ``-s`` to
see the lines as they happen).  The random-tree criteria share one
1300-tree harness run via a session fixture, so the whole module stays
within its two-minute budget.
"""
from __future__ import annotations

import time
from fractions import Fraction

import pytest

from steklov_trees import (
    BadParamsError,
    VerifyConfig,
    asymptotic_decay_check,
    dtn_matrix,
    gen_ball,
    gen_extremal_middle,
    gen_path,
    gen_random_interior3,
    gen_random_tree,
    gen_refined,
    run_verification,
    steklov_eigenvalue_bisect,
    steklov_lambda,
    steklov_spectrum,
)
from steklov_trees.config import DEFAULT_TOL
from steklov_trees.spectra import _steklov_count_below

CLOSED_FORM_TOL = 1e-9
PATH_TOL = 1e-12
ORACLE_TOL = DEFAULT_TOL.oracle_agreement  # 1e-8
HARNESS_BUDGET_S = 120.0
PER_TREE_BUDGET_S = 5.0


def _report(num: int, label: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"[{status}] criterion {num}: {label}")
    assert not problems, f"criterion {num} ({label}): " + "; ".join(problems[:5])


def _ball_lambda2(d: int, r: int) -> Fraction:
    return Fraction(1, sum((d - 1) ** k for k in range(r)))


@pytest.fixture(scope="session")
def harness() -> tuple:
    cfg = VerifyConfig(trials=1000, interior3_trials=300, max_n=60,
                       max_degree=6, seed=7)
    start = time.perf_counter()
    report = run_verification(cfg)
    return report, time.perf_counter() - start


def test_criterion_1_ball_closed_form():
    problems = []
    for d in (3, 4, 5):
        for r in range(1, 7):
            start = time.perf_counter()
            t = gen_ball(d, r)
            lam2 = steklov_eigenvalue_bisect(t, 2)
            elapsed = time.perf_counter() - start
            want = float(_ball_lambda2(d, r))
            if abs(lam2 - want) > CLOSED_FORM_TOL:
                problems.append(f"ball({d},{r}): {lam2!r} vs {want!r}")
            if elapsed >= PER_TREE_BUDGET_S:
                problems.append(f"ball({d},{r}) took {elapsed:.2f}s")
    _report(1, "ball lambda_2 closed form, D in 3..5, r in 1..6", problems)


def test_criterion_2_ball_two_sided_boundary_bound():
    problems = []
    for d in (3, 4, 5):
        for r in range(1, 7):
            lam2 = _ball_lambda2(d, r)
            m = d * (d - 1) ** (r - 1)
            if not Fraction(d, 2 * m) <= lam2 <= Fraction(d, m):
                problems.append(f"ball({d},{r}): {lam2} outside "
                                f"[{Fraction(d, 2 * m)}, {Fraction(d, m)}]")
    # the same sandwich must hold for the computed eigenvalue, with slack
    for d, r in ((3, 4), (4, 3), (5, 2)):
        t = gen_ball(d, r)
        lam2 = steklov_eigenvalue_bisect(t, 2)
        m = t.n_boundary
        if not d / (2 * m) - CLOSED_FORM_TOL <= lam2 <= d / m + CLOSED_FORM_TOL:
            problems.append(f"computed ball({d},{r}) lambda_2 {lam2!r} escapes")
    _report(2, "exact sandwich D/(2|boundary|) <= lambda_2 <= D/|boundary|",
            problems)


def test_criterion_3_refined_family():
    problems = []
    for l in range(2, 7):
        t = gen_refined(l)
        m = t.n_boundary
        lam2 = steklov_eigenvalue_bisect(t, 2)
        want = 1.0 / (2 ** (l + 1) - l - 2)
        if abs(lam2 - want) > CLOSED_FORM_TOL:
            problems.append(f"refined({l}): {lam2!r} vs {want!r}")
        if m != 3 * 2 ** (l - 1):
            problems.append(f"refined({l}): boundary {m}")
        if not l * m <= t.n <= 2 * l * m:
            problems.append(f"refined({l}): n={t.n} outside [{l * m}, {2 * l * m}]")
    _report(3, "refined-ball lambda_2 closed form and vertex-count sandwich",
            problems)


def test_criterion_4_paths_and_extremal_variants():
    problems = []
    for length in range(2, 101):
        lam2 = steklov_lambda(gen_path(length), 2)
        want = 2.0 / length
        if abs(lam2 - want) > PATH_TOL * max(1.0, want):
            problems.append(f"path({length}): {lam2!r} vs {want!r}")
    for variant, lengths in (("A", (4, 6, 8, 10)), ("B", (6, 8, 10))):
        for length in lengths:
            t = gen_extremal_middle(length, variant)
            lam2 = steklov_lambda(t, 2)
            want = 2.0 / length
            if abs(lam2 - want) > CLOSED_FORM_TOL:
                problems.append(f"extremal {variant}(L={length}): {lam2!r}")
    # variant B's attachment needs L/2 >= 3; L = 4 must be refused, not fudged
    with pytest.raises(BadParamsError):
        gen_extremal_middle(4, "B")
    _report(4, "path lambda_2 = 2/L and extremal middles hitting 2/L", problems)


def test_criterion_5_random_tree_bounds(harness):
    report, elapsed = harness
    problems = []
    expected_trees = 1300
    structural = report.counters["tree_structure"]
    if structural.passed != expected_trees:
        problems.append(f"only {structural.passed} trees checked")
    for name, c in sorted(report.counters.items()):
        if name.startswith("bound_") and c.failed:
            problems.append(f"{name}: {c.failed} failed")
    for name in ("tree_structure", "dtn_invariants", "spectrum_invariants"):
        if report.counters[name].failed:
            problems.append(f"{name}: {report.counters[name].failed} failed")
    if elapsed >= HARNESS_BUDGET_S:
        problems.append(f"harness took {elapsed:.1f}s")
    if not report.overall_pass:
        problems.append(f"failures recorded: {report.failures[:3]}")
    _report(5, "1000 random + 300 interior-3 trees pass every bound in "
               f"{elapsed:.1f}s", problems)


def test_criterion_6_partition_certificates(harness):
    report, _ = harness
    problems = []
    for name in ("partition_two_cert", "partition_two_optimal",
                 "partition_k_cert"):
        c = report.counters[name]
        if c.failed:
            problems.append(f"{name}: {c.failed} failed")
        if not c.passed:
            problems.append(f"{name}: never exercised")
    _report(6, "exact-rational partition certificates on all harness trees",
            problems)


def test_criterion_7_witness_chains(harness):
    report, _ = harness
    problems = []
    for name in ("two_level_chain", "diameter_chain", "multiway_chain"):
        c = report.counters[name]
        if c.failed:
            problems.append(f"{name}: {c.failed} failed")
        if not c.passed:
            problems.append(f"{name}: never exercised")
    _report(7, "lambda_2 <= R(witness) <= certified cap on all harness trees",
            problems)


def _audit_trees() -> list[tuple[str, object]]:
    named = [
        ("ball(3,2)", gen_ball(3, 2)),
        ("ball(3,3)", gen_ball(3, 3)),
        ("ball(4,2)", gen_ball(4, 2)),
        ("ball(5,1)", gen_ball(5, 1)),
        ("refined(2)", gen_refined(2)),
        ("refined(3)", gen_refined(3)),
        ("path(5)", gen_path(5)),
        ("path(12)", gen_path(12)),
        ("extremal A(6)", gen_extremal_middle(6, "A")),
        ("extremal B(8)", gen_extremal_middle(8, "B")),
        # trees that broke an unpivoted dense LDL^T inertia count mid-bisection
        ("regression 17/3", gen_random_tree(17, 3, 2322766164027676882)),
        ("regression 11/6", gen_random_tree(11, 6, 4990170066205005668)),
    ]
    for i, (n, cap, seed) in enumerate(
            ((20, 4, 101), (35, 6, 202), (60, 6, 303), (45, 3, 404))):
        named.append((f"random[{i}]", gen_random_tree(n, cap, seed)))
    for i, (n, cap, seed) in enumerate(((24, 4, 55), (40, 6, 77))):
        named.append((f"interior3[{i}]", gen_random_interior3(n, cap, seed)))
    return named


def test_criterion_8_jacobi_vs_oracle_full_spectra():
    # the name predates the LAPACK primary: every eigenvalue of the dense
    # spectrum is now checked against the tree-pencil certifier, by a
    # bisection and by a count bracket
    problems = []
    for label, t in _audit_trees():
        dtn_matrix(t).validate()
        spectrum = steklov_spectrum(t)
        for k in range(1, t.n_boundary + 1):
            ref = steklov_eigenvalue_bisect(t, k)
            got = spectrum.eigenvalue(k)
            if abs(got - ref) > ORACLE_TOL:
                problems.append(f"{label} k={k}: dense {got!r} vs pencil {ref!r}")
            # the harness's certificate: counts at got -+ ORACLE_TOL bracket index k
            below = _steklov_count_below(t, got - ORACLE_TOL)
            above = _steklov_count_below(t, got + ORACLE_TOL)
            if not below < k <= above:
                problems.append(f"{label} k={k}: dense {got!r} not bracketed "
                                f"(counts {below}, {above})")
    _report(8, "every eigenvalue agrees with the tree-pencil certifier on the "
               "audit set, by bisection and by count bracket", problems)


def test_criterion_9_asymptotic_decay():
    problems = []
    balls = asymptotic_decay_check([gen_ball(3, r) for r in range(1, 9)])
    if not balls.passed:
        problems.append("ball family fails decay")
    paths = asymptotic_decay_check([gen_path(length)
                                    for length in range(2, 201, 22)])
    if not (paths.decreasing and paths.tail_below and paths.passed):
        problems.append("path family fails decay")
    # last members must actually be small: 1/255 and exactly 0.01
    if not balls.rows[-1].lam2 < 0.01:
        problems.append(f"ball(3,8) lambda_2 {balls.rows[-1].lam2!r}")
    if abs(paths.rows[-1].lam2 - 0.01) > 1e-10:
        problems.append(f"path(200) lambda_2 {paths.rows[-1].lam2!r}")
    _report(9, "lambda_2 decays below 0.01 along growing balls and paths",
            problems)
