"""Centralized numerical tolerances.

All absolute tolerances used by solvers, invariant checks, and the
verification harness live in one record so that nothing is tuned ad hoc
at call sites.  The defaults are deliberately tight: eigenvalues of the
boundary response matrix of a tree sit in [0, 1] and every solver here
is direct, so there is no reason to accept loose answers.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    residual: float = 1e-10        # interior residual of harmonic solves
    symmetry: float = 1e-10        # response-matrix symmetry and row sums
    psd_slack: float = 1e-9        # eigenvalue range slack around [0, 1]
    eigen_residual: float = 1e-8   # eigenpair residuals on audited trees
    orthogonality: float = 1e-8    # eigenvector orthogonality across gaps
    eigen_gap: float = 1e-6        # gap above which eigenvalues count as distinct
    oracle_agreement: float = 1e-8 # primary eigensolver vs bisection oracle
    bound_slack: float = 1e-8      # measured eigenvalue vs certified bound
    boundary_sum: float = 1e-9     # witness boundary-sum-zero check
    # no longer read: the primary eigensolve is LAPACK; kept so the
    # tolerance record stays a stable contract
    jacobi_off: float = 1e-12      # off-diagonal Frobenius target, relative
    bisect_abs: float = 1e-10      # bisection oracle absolute tolerance

    def scaled(self, factor: float) -> "Tolerances":
        """A copy with the check tolerances scaled (solver targets untouched)."""
        return replace(
            self,
            eigen_residual=self.eigen_residual * factor,
            oracle_agreement=self.oracle_agreement * factor,
            bound_slack=self.bound_slack * factor,
            orthogonality=self.orthogonality * factor,
        )


DEFAULT_TOL = Tolerances()

ENV_TOL = "STEKLOV_TOL"


def tolerances_from_env(base: Tolerances = DEFAULT_TOL) -> Tolerances:
    """Apply the STEKLOV_TOL override, if set, as the bound-check slack."""
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return base
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_TOL} must be a float, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{ENV_TOL} must be positive, got {value}")
    return replace(base, bound_slack=value)
