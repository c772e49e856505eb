"""Certified eigenvalue-bound reports.

Every theorem-shaped inequality gets a :class:`BoundReport`: the exact
rational bound value, the measured quantity, whether the inequality
holds within a single slack, and (where a proof constructs one) the test
function or partition certificate acting as witness.  Inapplicable
preconditions are reported, never silently skipped, so a harness can
tell "holds" from "vacuous".
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_TOL, Tolerances
from .errors import PartTooSmallError
from .graph_core import BoundaryTree, diameter
from .partitions import (
    diameter_test_function,
    multiway_test_functions,
    partition_k,
    partition_two,
    two_level_test_function,
)
from .spectra import (
    DENSE_BOUNDARY_LIMIT,
    SteklovSpectrum,
    steklov_eigenvalue_bisect,
    steklov_lambda,
    steklov_spectrum,
)

LAM2_BOUNDARY = "LAM2_BOUNDARY"
LAM2_VOLUME = "LAM2_VOLUME"
LAM2_DIAMETER = "LAM2_DIAMETER"
LAMK_BOUNDARY = "LAMK_BOUNDARY"
LAMK_VOLUME = "LAMK_VOLUME"
LEMMA_DV = "LEMMA_DV"
PROP_L = "PROP_L"

BOUND_IDS = (LAM2_BOUNDARY, LAM2_VOLUME, LAM2_DIAMETER, LAMK_BOUNDARY,
             LAMK_VOLUME, LEMMA_DV, PROP_L)


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Outcome of checking one bound on one tree.

    ``holds`` is None exactly when ``preconditions_met`` is false (no
    claim is made either way).  ``tightness`` is measured/bound for the
    upper bounds and bound/measured for the lower-bound style checks
    (LEMMA_DV, PROP_L), so 1 always means sharp.
    """

    bound_id: str
    bound_value: float
    measured: float
    tightness: float
    holds: bool | None
    preconditions_met: bool
    witness: object | None = None
    note: str = ""

    def to_json_dict(self) -> dict:
        def num(x: float) -> float | None:
            # NaN is not valid JSON; an inapplicable measurement becomes null
            return x if math.isfinite(x) else None

        return {
            "bound_id": self.bound_id,
            "bound_value": num(self.bound_value),
            "measured": num(self.measured),
            "tightness": num(self.tightness),
            "holds": self.holds,
            "preconditions_met": self.preconditions_met,
            "has_witness": self.witness is not None,
            "note": self.note,
        }


def _interior_degrees_ok(t: BoundaryTree) -> bool:
    return all(t.degrees[v] >= 3 for v in t.interior)


def _upper_report(
    bound_id: str,
    bound: Fraction,
    measured: float,
    *,
    preconditions_met: bool = True,
    witness: object | None = None,
    note: str = "",
    tol: Tolerances = DEFAULT_TOL,
) -> BoundReport:
    bv = float(bound)
    holds = (measured <= bv + tol.bound_slack) if preconditions_met else None
    return BoundReport(
        bound_id=bound_id,
        bound_value=bv,
        measured=measured,
        tightness=measured / bv if bv > 0 else float("inf"),
        holds=holds,
        preconditions_met=preconditions_met,
        witness=witness,
        note=note,
    )


def bound_lam2_boundary(
    t: BoundaryTree,
    *,
    spectrum: SteklovSpectrum | None = None,
    tol: Tolerances = DEFAULT_TOL,
    with_witness: bool = True,
) -> BoundReport:
    """lambda_2 <= 4(D-1)/|boundary|, witnessed by the two-level function."""
    bound = Fraction(4 * (t.max_degree - 1), t.n_boundary)
    witness = None
    if with_witness:
        witness = two_level_test_function(t, partition_two(t), tol)
    return _upper_report(LAM2_BOUNDARY, bound, steklov_lambda(t, 2, spectrum=spectrum),
                         witness=witness, tol=tol)


def bound_lam2_volume(
    t: BoundaryTree,
    *,
    spectrum: SteklovSpectrum | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> BoundReport:
    """lambda_2 <= 8(D-1)/(|V|+2), valid when interior degrees are >= 3."""
    pre = _interior_degrees_ok(t)
    bound = Fraction(8 * (t.max_degree - 1), t.n + 2)
    return _upper_report(LAM2_VOLUME, bound, steklov_lambda(t, 2, spectrum=spectrum),
                         preconditions_met=pre,
                         note="" if pre else "an interior vertex has degree < 3",
                         tol=tol)


def bound_lam2_diameter(
    t: BoundaryTree,
    *,
    spectrum: SteklovSpectrum | None = None,
    tol: Tolerances = DEFAULT_TOL,
    with_witness: bool = True,
) -> BoundReport:
    """lambda_2 <= 2/L, witnessed by the spine test function."""
    dia = diameter(t)
    bound = Fraction(2, dia.length)
    witness = diameter_test_function(t) if with_witness else None
    return _upper_report(LAM2_DIAMETER, bound, steklov_lambda(t, 2, spectrum=spectrum),
                         witness=witness, tol=tol)


def _lamk_report(
    bound_id: str,
    t: BoundaryTree,
    k: int,
    bound: Fraction,
    extra_pre: bool,
    extra_note: str,
    spectrum: SteklovSpectrum | None,
    tol: Tolerances,
    with_witness: bool,
) -> BoundReport:
    m = t.n_boundary
    if not 3 <= k <= m:
        return BoundReport(
            bound_id=bound_id, bound_value=float(bound), measured=float("nan"),
            tightness=float("nan"), holds=None, preconditions_met=False,
            note=f"k={k} outside 3..{m}")
    witness = None
    note = extra_note
    if with_witness and extra_pre:
        try:
            witness = multiway_test_functions(t, partition_k(t, k), tol)
        except PartTooSmallError:
            note = (note + "; " if note else "") + \
                "no multiway witness: a peeled part holds one boundary vertex"
    return _upper_report(bound_id, bound, steklov_lambda(t, k, spectrum=spectrum),
                         preconditions_met=extra_pre, witness=witness,
                         note=note, tol=tol)


def bound_lamk_boundary(
    t: BoundaryTree,
    k: int,
    *,
    spectrum: SteklovSpectrum | None = None,
    tol: Tolerances = DEFAULT_TOL,
    with_witness: bool = True,
) -> BoundReport:
    """lambda_k <= 8(D-1)^2 (k-1)/|boundary| for 3 <= k <= |boundary|."""
    d = t.max_degree
    bound = Fraction(8 * (d - 1) * (d - 1) * (k - 1), t.n_boundary)
    return _lamk_report(LAMK_BOUNDARY, t, k, bound, True, "",
                        spectrum, tol, with_witness)


def bound_lamk_volume(
    t: BoundaryTree,
    k: int,
    *,
    spectrum: SteklovSpectrum | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> BoundReport:
    """lambda_k <= 16(D-1)^2 (k-1)/(|V|+2) when interior degrees are >= 3."""
    d = t.max_degree
    pre = _interior_degrees_ok(t)
    bound = Fraction(16 * (d - 1) * (d - 1) * (k - 1), t.n + 2)
    return _lamk_report(LAMK_VOLUME, t, k, bound, pre,
                        "" if pre else "an interior vertex has degree < 3",
                        spectrum, tol, with_witness=False)


def lemma_dv_check(t: BoundaryTree) -> BoundReport:
    """|V|/2 + 1 <= |boundary| <= |V| when interior degrees are >= 3.

    Exact integer comparison (the lower bound is compared as
    ``2|boundary| >= |V| + 2``); tightness is lower-bound/measured, so a
    tree where half-plus-one of the vertices are leaves scores 1.
    """
    pre = _interior_degrees_ok(t)
    m, n = t.n_boundary, t.n
    lower = Fraction(n, 2) + 1
    holds = (2 * m >= n + 2 and m <= n) if pre else None
    return BoundReport(
        bound_id=LEMMA_DV, bound_value=float(lower), measured=float(m),
        tightness=float(lower) / m, holds=holds, preconditions_met=pre,
        note="" if pre else "an interior vertex has degree < 3")


def prop_l_check(t: BoundaryTree) -> BoundReport:
    """Diameter lower bound L >= 2 log_D(|V|/4), exactly.

    Checked in integers as ``16 D^L >= |V|^2`` (the squared form), never
    through logarithms; the float ``bound_value`` is only for display.
    """
    d, n = t.max_degree, t.n
    dia = diameter(t)
    holds = 16 * d ** dia.length >= n * n
    bound = 2 * math.log(n / 4) / math.log(d)
    return BoundReport(
        bound_id=PROP_L, bound_value=bound, measured=float(dia.length),
        tightness=max(0.0, bound) / dia.length, holds=holds,
        preconditions_met=True)


def audit(
    t: BoundaryTree,
    ks: tuple[int, ...] = (),
    *,
    tol: Tolerances = DEFAULT_TOL,
    spectrum: SteklovSpectrum | None = None,
    with_witness: bool = True,
) -> list[BoundReport]:
    """All bound reports for one tree, sharing a single spectrum.

    ``ks`` selects the higher eigenvalue indices to audit.  Order is
    stable: the three lambda_2 bounds, the two lambda_k bounds per k,
    then the structural checks.
    """
    if spectrum is None and t.n_boundary <= DENSE_BOUNDARY_LIMIT:
        spectrum = steklov_spectrum(t, tol)
    out = [
        bound_lam2_boundary(t, spectrum=spectrum, tol=tol, with_witness=with_witness),
        bound_lam2_volume(t, spectrum=spectrum, tol=tol),
        bound_lam2_diameter(t, spectrum=spectrum, tol=tol, with_witness=with_witness),
    ]
    for k in ks:
        out.append(bound_lamk_boundary(t, k, spectrum=spectrum, tol=tol,
                                       with_witness=with_witness))
        out.append(bound_lamk_volume(t, k, spectrum=spectrum, tol=tol))
    out.append(lemma_dv_check(t))
    out.append(prop_l_check(t))
    return out


@dataclass(frozen=True, eq=False)
class DecayRow:
    n: int
    n_boundary: int
    diameter: int
    lam2: float
    diameter_bound: float
    within_bound: bool


@dataclass(frozen=True, eq=False)
class DecayReport:
    """lambda_2 along a growing family: bounded by 2/L and going to zero.

    ``passed`` requires every member to sit under its diameter bound,
    the sequence to be strictly decreasing, and the last member to fall
    to ``threshold`` or below (within slack: families like long paths
    land exactly on round thresholds).
    """

    rows: tuple[DecayRow, ...]
    threshold: float
    decreasing: bool
    tail_below: bool

    @property
    def passed(self) -> bool:
        return (self.decreasing and self.tail_below
                and all(r.within_bound for r in self.rows))

    def to_json_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "decreasing": self.decreasing,
            "tail_below": self.tail_below,
            "passed": self.passed,
            "rows": [
                {"n": r.n, "boundary": r.n_boundary, "L": r.diameter,
                 "lambda2": r.lam2, "diameter_bound": r.diameter_bound,
                 "within_bound": r.within_bound}
                for r in self.rows
            ],
        }


def asymptotic_decay_check(
    family: list[BoundaryTree],
    *,
    threshold: float = 0.01,
    tol: Tolerances = DEFAULT_TOL,
) -> DecayReport:
    """Check lambda_2 decay along a family ordered by increasing size."""
    if len(family) < 2:
        raise ValueError("decay check needs at least two family members")
    sizes = [t.n for t in family]
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise ValueError("family must be strictly increasing in vertex count")
    rows = []
    lams = []
    for t in family:
        dia = diameter(t)
        # only lambda_2 is needed, so the sparse pencil route wins at any size
        lam2 = steklov_eigenvalue_bisect(t, 2)
        lams.append(lam2)
        rows.append(DecayRow(
            n=t.n, n_boundary=t.n_boundary, diameter=dia.length, lam2=lam2,
            diameter_bound=2.0 / dia.length,
            within_bound=lam2 <= 2.0 / dia.length + tol.bound_slack,
        ))
    decreasing = all(b < a for a, b in zip(lams, lams[1:]))
    tail_below = lams[-1] <= threshold + tol.bound_slack
    return DecayReport(rows=tuple(rows), threshold=threshold,
                       decreasing=decreasing, tail_below=tail_below)
