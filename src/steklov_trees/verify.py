"""Seeded end-to-end verification harness.

Generates random trees (plain and interior-degree-3), and on every tree
re-derives the whole chain of guarantees: structural invariants, the
boundary response matrix, spectra from independent routes, partition
certificates in exact arithmetic, the three test-function constructions,
and every bound report.  The result is a deterministic report object:
same config, same counters, byte for byte.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import bounds as bnd
from .config import DEFAULT_TOL, Tolerances
from .errors import BadParamsError, PartTooSmallError
from .generators import gen_random_interior3, gen_random_tree
from .graph_core import BoundaryTree, diameter
from .harmonic import dtn_matrix
from .partitions import (
    diameter_test_function,
    gradient_supports_disjoint,
    multiway_test_functions,
    partition_k,
    partition_two,
    partition_two_optimal,
    two_level_rayleigh_exact,
    two_level_test_function,
)
from .spectra import (
    rayleigh_quotient,
    steklov_eigenvalue_bisect,
    steklov_spectrum,
    variational_upper_check,
)


@dataclass(frozen=True)
class VerifyConfig:
    trials: int = 1000
    interior3_trials: int = 300
    max_n: int = 60
    max_degree: int = 6
    seed: int = 7
    oracle_stride: int = 25  # pencil check of the dense spectrum every this many trees
    tol: Tolerances = DEFAULT_TOL

    def validate(self) -> None:
        if self.trials < 1:
            raise BadParamsError("need at least one trial")
        if self.interior3_trials < 0:
            raise BadParamsError("interior3_trials must be >= 0")
        if self.max_n < 5:
            raise BadParamsError("max_n below 5 leaves no room to sample")
        if self.max_degree < 3:
            raise BadParamsError("harness needs max_degree >= 3")
        if self.oracle_stride < 1:
            raise BadParamsError("oracle_stride must be >= 1")


@dataclass
class CheckCounter:
    passed: int = 0
    failed: int = 0
    skipped: int = 0


@dataclass
class VerificationReport:
    config: dict
    counters: dict[str, CheckCounter] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return not self.failures

    def counter(self, name: str) -> CheckCounter:
        return self.counters.setdefault(name, CheckCounter())

    def to_json_dict(self) -> dict:
        return {
            "schema": "steklov-trees/1",
            "command": "verify",
            "config": self.config,
            "checks": {
                name: {"passed": c.passed, "failed": c.failed, "skipped": c.skipped}
                for name, c in sorted(self.counters.items())
            },
            "failures": self.failures,
            "overall_pass": self.overall_pass,
        }


def _k_values(m: int) -> tuple[int, ...]:
    """Audited higher eigenvalue indices: 3 and min(5, m), deduplicated."""
    if m < 3:
        return ()
    return tuple(sorted({3, min(5, m)}))


def _check_tree(
    t: BoundaryTree,
    label: str,
    rep: VerificationReport,
    tol: Tolerances,
    *,
    full_oracle: bool,
) -> None:
    slack = tol.bound_slack

    def run(name: str, fn) -> bool:
        try:
            fn()
        except Exception as exc:  # any failure is a finding, not a crash
            rep.counter(name).failed += 1
            rep.failures.append(
                {"trial": label, "check": name,
                 "detail": f"{type(exc).__name__}: {exc}"})
            return False
        rep.counter(name).passed += 1
        return True

    def expect(cond: bool, msg: str) -> None:
        if not cond:
            raise AssertionError(msg)

    def structure() -> None:
        leaves = {v for v in range(t.n) if t.degrees[v] == 1}
        expect(set(t.boundary) == leaves, "boundary is not the degree-1 set")
        expect(len(t.interior) + len(t.boundary) == t.n, "interior misses vertices")

    run("tree_structure", structure)

    mat = dtn_matrix(t, tol)
    run("dtn_invariants", lambda: mat.validate(tol))

    spectrum = None

    def spectral() -> None:
        nonlocal spectrum
        spectrum = steklov_spectrum(t, tol)

    if not run("spectrum_invariants", spectral):
        return  # everything below needs eigenvalues
    m = t.n_boundary
    lam2 = spectrum.lambda2
    ks = _k_values(m)

    if full_oracle:
        def oracle() -> None:
            if m <= 12:
                idx = range(1, m + 1)
            else:
                idx = sorted({1, 2, m // 2, m, *ks})
            for k in idx:
                ref = steklov_eigenvalue_bisect(t, k, abs_tol=tol.bisect_abs)
                expect(abs(spectrum.eigenvalue(k) - ref) <= tol.oracle_agreement,
                       f"eigenvalue {k}: dense {spectrum.eigenvalue(k)!r}"
                       f" vs pencil {ref!r}")

        run("oracle_agreement", oracle)
        run("bisect_agreement", lambda: expect(
            abs(steklov_eigenvalue_bisect(t, 2) - lam2) <= tol.oracle_agreement,
            "pencil bisection disagrees with dense lambda_2"))
    else:
        rep.counter("oracle_agreement").skipped += 1
        rep.counter("bisect_agreement").skipped += 1

    cert2 = None

    def p2() -> None:
        nonlocal cert2
        cert2 = partition_two(t)
        cert2.validate()

    if run("partition_two_cert", p2):
        run("partition_two_optimal", lambda: expect(
            partition_two_optimal(t).fractions[0] >= cert2.fractions[0],
            "exhaustive split is worse than the descent"))

        def chain2() -> None:
            f = two_level_test_function(t, cert2, tol)
            r = rayleigh_quotient(f)
            exact = float(two_level_rayleigh_exact(cert2))
            expect(abs(r - exact) <= slack * (1 + exact), "R(f) drifts from exact form")
            cap = 4 * (t.max_degree - 1) / m
            expect(lam2 <= r + slack, "lambda_2 above R(two-level f)")
            expect(r <= cap + slack, "R(two-level f) above 4(D-1)/|boundary|")

        run("two_level_chain", chain2)

    def chain_dia() -> None:
        f = diameter_test_function(t)
        r = rayleigh_quotient(f)
        ell = diameter(t).length
        expect(lam2 <= r + slack, "lambda_2 above R(diameter f)")
        expect(r <= 2.0 / ell + slack, "R(diameter f) above 2/L")

    run("diameter_chain", chain_dia)

    for k in ks:
        certk = None

        def pk() -> None:
            nonlocal certk
            certk = partition_k(t, k)
            certk.validate()

        if not run("partition_k_cert", pk):
            continue

        def chain_k() -> None:
            try:
                fns = multiway_test_functions(t, certk, tol)
            except PartTooSmallError:
                rep.counter("multiway_chain").skipped += 1
                return
            d = t.max_degree
            cap = 8 * (d - 1) ** 2 * (k - 1) / m
            quotients = [rayleigh_quotient(f) for f in fns]
            for r in quotients:
                expect(lam2 <= r + slack, "lambda_2 above R(f_j)")
                expect(r <= cap + slack, "R(f_j) above the multiway cap")
            if gradient_supports_disjoint(fns):
                expect(spectrum.eigenvalue(k) <= max(quotients) + slack,
                       "lambda_k above max R(f_j) despite disjoint gradients")
                expect(variational_upper_check(t, fns, k, tol=tol,
                                               spectrum=spectrum),
                       "sampled span misses lambda_k")
            rep.counter("multiway_chain").passed += 1

        try:
            chain_k()
        except Exception as exc:
            rep.counter("multiway_chain").failed += 1
            rep.failures.append({"trial": label, "check": "multiway_chain",
                                 "detail": f"k={k} {type(exc).__name__}: {exc}"})

    def reports() -> None:
        for r in bnd.audit(t, ks, tol=tol, spectrum=spectrum, with_witness=False):
            name = f"bound_{r.bound_id}"
            if not r.preconditions_met:
                rep.counter(name).skipped += 1
            elif r.holds:
                rep.counter(name).passed += 1
            else:
                rep.counter(name).failed += 1
                rep.failures.append(
                    {"trial": label, "check": name,
                     "detail": f"bound {r.bound_value!r} measured {r.measured!r}"})

    try:
        reports()
    except Exception as exc:
        rep.counter("bound_reports").failed += 1
        rep.failures.append({"trial": label, "check": "bound_reports",
                             "detail": f"{type(exc).__name__}: {exc}"})


def run_verification(cfg: VerifyConfig = VerifyConfig()) -> VerificationReport:
    """Run the full harness; deterministic for a fixed config."""
    cfg.validate()
    tol = cfg.tol
    rep = VerificationReport(config={
        "trials": cfg.trials,
        "interior3_trials": cfg.interior3_trials,
        "max_n": cfg.max_n,
        "max_degree": cfg.max_degree,
        "seed": cfg.seed,
        "oracle_stride": cfg.oracle_stride,
        "bound_slack": tol.bound_slack,
    })
    master = random.Random(cfg.seed)
    trial = 0
    for i in range(cfg.trials):
        n = master.randint(5, cfg.max_n)
        cap = master.randint(2, cfg.max_degree)
        tree_seed = master.getrandbits(63)
        t = gen_random_tree(n, cap, tree_seed)
        _check_tree(t, f"random[{i}]", rep, tol,
                    full_oracle=trial % cfg.oracle_stride == 0)
        trial += 1
    for i in range(cfg.interior3_trials):
        n = master.randint(5, cfg.max_n)
        cap = master.randint(3, cfg.max_degree)
        tree_seed = master.getrandbits(63)
        t = gen_random_interior3(n, cap, tree_seed)
        _check_tree(t, f"interior3[{i}]", rep, tol,
                    full_oracle=trial % cfg.oracle_stride == 0)
        trial += 1
    return rep
