"""Certified eigenvalue-bound reports.

Every theorem-shaped inequality gets a :class:`BoundReport`: the exact
rational bound value, the measured quantity, whether the inequality
holds within a single slack, and (where a proof constructs one) the test
function or partition certificate acting as witness.  Inapplicable
preconditions are reported, never silently skipped, so a harness can
tell "holds" from "vacuous".

The right-hand side of each of the five upper bounds is written once,
in :data:`BOUND_VALUES`, and read through :func:`bound_value` by the
reports here, by the witness chains of :mod:`.verify` and by the
``sweep`` columns, so every caller compares against the same exact
``Fraction``.  One function, :func:`bound_report`, reports all five: it
takes each bound's precondition and witness from one table beside the
values, and decides every upper-bound ``holds`` by the one comparison
``lambda_k <= value + slack``.  :func:`audit` calls it once per (bound,
k) pair.  Each ``lambda_k`` comes from
:func:`.spectra.steklov_lambda`: off a spectrum the caller passes, else
bisected, so no BLAS build or thread count moves a report's floats.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import BadParamsError, PartTooSmallError
from .graph_core import BoundaryTree, diameter, per_tree_cache
from .partitions import (
    diameter_test_function,
    multiway_test_functions,
    partition_k,
    partition_two,
    two_level_test_function,
)
from .spectra import SteklovSpectrum, steklov_lambda

LAM2_BOUNDARY = "LAM2_BOUNDARY"
LAM2_VOLUME = "LAM2_VOLUME"
LAM2_DIAMETER = "LAM2_DIAMETER"
LAMK_BOUNDARY = "LAMK_BOUNDARY"
LAMK_VOLUME = "LAMK_VOLUME"
LEMMA_DV = "LEMMA_DV"
PROP_L = "PROP_L"

# the exact right-hand side of each upper bound, for lambda_k on tree t
# (the lambda_2 bounds ignore k)
BOUND_VALUES = {
    LAM2_BOUNDARY: lambda t, k: Fraction(4 * (t.max_degree - 1), t.n_boundary),
    LAM2_VOLUME: lambda t, k: Fraction(8 * (t.max_degree - 1), t.n + 2),
    LAM2_DIAMETER: lambda t, k: Fraction(2, diameter(t).length),
    LAMK_BOUNDARY: lambda t, k: Fraction(8 * (t.max_degree - 1) ** 2 * (k - 1),
                                         t.n_boundary),
    LAMK_VOLUME: lambda t, k: Fraction(16 * (t.max_degree - 1) ** 2 * (k - 1), t.n + 2),
}


def bound_value(bound_id: str, t: BoundaryTree, k: int = 2) -> Fraction:
    """The exact value of upper bound ``bound_id`` for ``lambda_k`` on ``t``."""
    return BOUND_VALUES[bound_id](t, k)


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


@per_tree_cache
def _interior_degrees_ok(t: BoundaryTree) -> bool:
    """Does every interior vertex have degree >= 3?

    Interior vertices are those of degree >= 2, so this asks that no
    vertex has degree exactly 2.
    """
    return not np.count_nonzero(t.degrees == 2)


class _Upper(NamedTuple):
    """What an upper bound asks beyond its value."""

    lamk: bool  # bounds lambda_k for 3 <= k <= |boundary|, else lambda_2 alone
    interior3: bool  # needs every interior degree >= 3
    # the test function(s) its proof constructs, from (t, k, tol)
    witness: Callable[[BoundaryTree, int, Tolerances], object] | None

    def met(self, t: BoundaryTree, k: int) -> bool:
        """Does ``lambda_k`` on ``t`` meet the bound's preconditions?"""
        return ((not self.lamk or 3 <= k <= t.n_boundary)
                and (not self.interior3 or _interior_degrees_ok(t)))


_UPPER = {
    LAM2_BOUNDARY: _Upper(False, False, lambda t, k, tol: two_level_test_function(
        t, partition_two(t), tol)),
    LAM2_VOLUME: _Upper(False, True, None),
    LAM2_DIAMETER: _Upper(False, False, lambda t, k, tol: diameter_test_function(t)),
    LAMK_BOUNDARY: _Upper(True, False, lambda t, k, tol: multiway_test_functions(
        t, partition_k(t, k), tol)),
    LAMK_VOLUME: _Upper(True, True, None),
}


def preconditions_met(bound_id: str, t: BoundaryTree, k: int = 2) -> bool:
    """Does ``lambda_k`` on ``t`` meet upper bound ``bound_id``'s preconditions?

    The same decision :func:`bound_report` makes: ``3 <= k <= |boundary|``
    for the ``LAMK_*`` bounds, every interior degree >= 3 for the volume
    bounds.
    """
    return _UPPER[bound_id].met(t, k)


def _as_float(x: Fraction) -> float:
    """``x`` rounded to a float; NaN (null in a report) past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.nan


def bound_report(
    bound_id: str,
    t: BoundaryTree,
    k: int = 2,
    *,
    spectrum: SteklovSpectrum | None = None,
    tol: Tolerances = DEFAULT_TOL,
    with_witness: bool = True,
) -> BoundReport:
    """``lambda_k`` on ``t`` against upper bound ``bound_id``.

    The value comes from :data:`BOUND_VALUES`.  The volume bounds need
    every interior degree >= 3, and the ``LAMK_*`` bounds need
    ``3 <= k <= |boundary|`` (outside it nothing is measured, and a
    value beyond the float range is reported as NaN); an unmet
    precondition gives ``holds = None`` and a note.  With
    ``with_witness``, the two-level, diameter or multiway test function
    of the bound's proof is attached; a multiway family whose peeled part
    holds one boundary vertex is noted instead.  Raises
    :class:`BadParamsError` for an id with no upper bound (``LEMMA_DV``
    and ``PROP_L`` have their own checks) and for a ``LAM2_*`` id with
    ``k != 2``.
    """
    if bound_id not in BOUND_VALUES:
        raise BadParamsError(
            f"no upper bound {bound_id!r}; expected one of {', '.join(BOUND_VALUES)}")
    row = _UPPER[bound_id]
    if not row.lamk and k != 2:
        raise BadParamsError(f"{bound_id} bounds lambda_2, not lambda_{k}")
    bv = _as_float(bound_value(bound_id, t, k))
    m = t.n_boundary
    if row.lamk and not 3 <= k <= m:
        return BoundReport(
            bound_id=bound_id, bound_value=bv, measured=float("nan"),
            tightness=float("nan"), holds=None, preconditions_met=False,
            note=f"k={k} outside 3..{m}")
    pre = row.met(t, k)
    note = "" if pre else "an interior vertex has degree < 3"
    witness = None
    if with_witness and pre and row.witness is not None:
        try:
            witness = row.witness(t, k, tol)
        except PartTooSmallError:
            note = "no multiway witness: a peeled part holds one boundary vertex"
    measured = steklov_lambda(t, k, spectrum=spectrum)
    return BoundReport(
        bound_id=bound_id,
        bound_value=bv,
        measured=measured,
        tightness=measured / bv if bv > 0 else float("inf"),
        holds=(measured <= bv + tol.bound_slack) if pre else None,
        preconditions_met=pre,
        witness=witness,
        note=note,
    )


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
    """All bound reports for one tree.

    ``ks`` selects the higher eigenvalue indices to audit.  Order is
    stable: the three lambda_2 bounds, the two lambda_k bounds per k,
    then the structural checks.  Every ``lambda_k`` is read off
    ``spectrum`` when given and bisected at every size otherwise.
    """
    pairs = [(b, 2) for b, row in _UPPER.items() if not row.lamk]
    pairs += [(b, k) for k in ks for b, row in _UPPER.items() if row.lamk]
    out = [bound_report(b, t, k, spectrum=spectrum, tol=tol, with_witness=with_witness)
           for b, k in pairs]
    return out + [lemma_dv_check(t), prop_l_check(t)]


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
    """Check lambda_2 decay along a family ordered by increasing size.

    Each row reads one witness-free :func:`bound_report` of ``LAM2_DIAMETER``.
    """
    if len(family) < 2:
        raise ValueError("decay check needs at least two family members")
    sizes = [t.n for t in family]
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise ValueError("family must be strictly increasing in vertex count")
    rows = []
    for t in family:
        rep = bound_report(LAM2_DIAMETER, t, tol=tol, with_witness=False)
        rows.append(DecayRow(
            n=t.n, n_boundary=t.n_boundary, diameter=diameter(t).length,
            lam2=rep.measured, diameter_bound=rep.bound_value, within_bound=rep.holds,
        ))
    lams = [r.lam2 for r in rows]
    decreasing = all(b < a for a, b in zip(lams, lams[1:]))
    tail_below = lams[-1] <= threshold + tol.bound_slack
    return DecayReport(rows=tuple(rows), threshold=threshold,
                       decreasing=decreasing, tail_below=tail_below)
