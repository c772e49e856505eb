"""Centralized numerical tolerances.

All absolute tolerances used by solvers, invariant checks, and the
verification harness live in one record so that nothing is tuned ad hoc
at call sites.  The defaults are deliberately tight: eigenvalues of the
boundary response matrix of a tree sit in [0, 1] and every solver here
is direct, so there is no reason to accept loose answers.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    residual: float = 1e-10        # interior residual of harmonic solves
    symmetry: float = 1e-10        # response-matrix symmetry and row sums
    psd_slack: float = 1e-9        # eigenvalue range slack around [0, 1]
    eigen_residual: float = 1e-8   # eigenpair residuals on audited trees
    orthogonality: float = 1e-8    # eigenvector orthogonality across gaps
    eigen_gap: float = 1e-6        # gap above which eigenvalues count as distinct
    oracle_agreement: float = 1e-8 # primary eigensolver vs pencil certifier
    bound_slack: float = 1e-8      # measured eigenvalue vs certified bound
    boundary_sum: float = 1e-9     # witness boundary-sum-zero check
    # no longer read: the primary eigensolve is LAPACK, and the verify
    # oracle brackets each dense eigenvalue by two pencil counts at
    # -+oracle_agreement instead of bisecting; kept so the tolerance
    # record stays a stable contract
    jacobi_off: float = 1e-12      # off-diagonal Frobenius target, relative
    bisect_abs: float = 1e-10      # bisection oracle absolute tolerance

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"tolerance {f.name} must be finite and positive, got {value}")


DEFAULT_TOL = Tolerances()

ENV_TOL = "STEKLOV_TOL"


def with_slack(base: Tolerances, value: float, source: str) -> Tolerances:
    """``base`` with bound-check slack ``value``, which must be finite and positive."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{source} must be finite and positive, got {value}")
    return replace(base, bound_slack=value)


def tolerances_from_env(base: Tolerances = DEFAULT_TOL) -> Tolerances:
    """Apply the STEKLOV_TOL override, if set, as the bound-check slack."""
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return base
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_TOL} must be a float, got {raw!r}") from exc
    return with_slack(base, value, ENV_TOL)
