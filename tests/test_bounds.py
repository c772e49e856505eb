from __future__ import annotations

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steklov_trees import (
    BOUND_VALUES,
    LAM2_BOUNDARY,
    LAM2_DIAMETER,
    LAM2_VOLUME,
    LAMK_BOUNDARY,
    LAMK_VOLUME,
    LEMMA_DV,
    PROP_L,
    asymptotic_decay_check,
    audit,
    BadParamsError,
    bound_report,
    bound_value,
    diameter,
    gen_ball,
    gen_path,
    gen_random_interior3,
    gen_random_tree,
    lemma_dv_check,
    preconditions_met,
    prop_l_check,
    rayleigh_quotient,
    steklov_spectrum,
)


# -- individual bounds, frozen examples -----------------------------------------------

def test_lam2_boundary_ball32(ball32):
    rep = bound_report(LAM2_BOUNDARY, ball32)
    assert rep.bound_id == LAM2_BOUNDARY
    assert rep.bound_value == pytest.approx(4 * 2 / 6)
    assert rep.measured == pytest.approx(1 / 3, abs=1e-9)
    assert rep.tightness == pytest.approx(0.25, abs=1e-9)
    assert rep.holds is True
    assert rep.preconditions_met is True
    assert rep.witness is not None
    assert rayleigh_quotient(rep.witness) == pytest.approx(0.75, rel=1e-12)


def test_lam2_boundary_star(star5):
    rep = bound_report(LAM2_BOUNDARY, star5)
    # lambda_2 = 1 on a star; bound is 4(D-1)/m = 16/5
    assert rep.measured == pytest.approx(1.0, abs=1e-9)
    assert rep.bound_value == pytest.approx(16 / 5)
    assert rep.holds is True


def test_lam2_volume_ball32(ball32):
    rep = bound_report(LAM2_VOLUME, ball32)
    assert rep.bound_value == pytest.approx(16 / 12)
    assert rep.holds is True
    assert rep.preconditions_met is True


def test_lam2_volume_path_precondition(path4):
    rep = bound_report(LAM2_VOLUME, path4)
    assert rep.preconditions_met is False
    assert rep.holds is None
    assert "degree < 3" in rep.note


def test_lam2_diameter_path_sharp():
    t = gen_path(10)
    rep = bound_report(LAM2_DIAMETER, t)
    assert rep.bound_value == pytest.approx(0.2)
    assert rep.measured == pytest.approx(0.2, abs=1e-9)
    assert rep.tightness == pytest.approx(1.0, abs=1e-6)
    assert rep.holds is True
    assert rayleigh_quotient(rep.witness) == pytest.approx(0.2, abs=1e-9)


def test_lamk_boundary_ball32(ball32):
    rep = bound_report(LAMK_BOUNDARY, ball32, 3)
    assert rep.bound_value == pytest.approx(8 * 4 * 2 / 6)
    assert rep.measured == pytest.approx(1 / 3, abs=1e-9)
    assert rep.holds is True
    assert rep.witness is not None and len(rep.witness) == 2


def test_lamk_out_of_range(ball32):
    rep = bound_report(LAMK_BOUNDARY, ball32, 9)
    assert rep.preconditions_met is False
    assert rep.holds is None
    assert math.isnan(rep.measured)
    assert "outside 3..6" in rep.note
    obj = rep.to_json_dict()
    assert obj["measured"] is None and obj["tightness"] is None


def test_lamk_past_the_float_range_reports_a_nan_bound(ball32):
    k = 10**330
    for bound_id in (LAMK_BOUNDARY, LAMK_VOLUME):
        rep = bound_report(bound_id, ball32, k)
        assert math.isnan(rep.bound_value) and math.isnan(rep.measured)
        assert (rep.holds, rep.preconditions_met) == (None, False)
        assert rep.note == f"k={k} outside 3..6"
        assert rep.to_json_dict()["bound_value"] is None


@pytest.mark.parametrize("bound_id", [LAM2_BOUNDARY, LAM2_VOLUME, LAM2_DIAMETER,
                                      LAMK_BOUNDARY, LAMK_VOLUME])
def test_preconditions_met_is_the_decision_of_bound_report(bound_id, ball32, path4, star5):
    for t in (ball32, path4, star5, gen_ball(4, 2), gen_path(7)):
        for k in ((2,) if bound_id.startswith("LAM2") else (2, 3, t.n_boundary,
                                                             t.n_boundary + 1)):
            got = preconditions_met(bound_id, t, k)
            assert got is bound_report(bound_id, t, k, with_witness=False).preconditions_met


def test_lamk_witness_free_on_star(star5):
    rep = bound_report(LAMK_BOUNDARY, star5, 3)
    assert rep.holds is True  # lambda_3 = 1 <= 8*16*2/5
    assert rep.witness is None
    assert "no multiway witness" in rep.note


def test_lamk_volume_ball32(ball32):
    rep = bound_report(LAMK_VOLUME, ball32, 3)
    assert rep.bound_value == pytest.approx(16 * 4 * 2 / 12)
    assert rep.holds is True
    assert rep.witness is None  # volume variant never carries one


def test_bound_report_takes_upper_bounds_only(ball32):
    # the structural checks have their own functions
    for bound_id in (LEMMA_DV, PROP_L, "LAM3_BOUNDARY"):
        with pytest.raises(BadParamsError, match="no upper bound"):
            bound_report(bound_id, ball32)
    for k in (1, 3):
        with pytest.raises(BadParamsError, match=f"bounds lambda_2, not lambda_{k}"):
            bound_report(LAM2_DIAMETER, ball32, k)


def test_lemma_dv_equality_on_ball32(ball32):
    rep = lemma_dv_check(ball32)
    # 6 boundary on 10 vertices: the half-plus-one lower bound is met exactly
    assert rep.bound_value == pytest.approx(6.0)
    assert rep.measured == 6.0
    assert rep.tightness == pytest.approx(1.0)
    assert rep.holds is True


def test_lemma_dv_skips_paths(path4):
    assert lemma_dv_check(path4).holds is None


def test_prop_l_examples(ball32, path4):
    rep = prop_l_check(ball32)
    assert rep.holds is True  # 16 * 3^4 = 1296 >= 100
    assert rep.measured == 4.0
    assert rep.bound_value == pytest.approx(2 * math.log(10 / 4) / math.log(3))
    assert prop_l_check(path4).holds is True  # 16 * 2^4 = 256 >= 25


def test_prop_l_exact_integer_form():
    # a deep ball keeps the exact inequality with big integers
    t = gen_ball(3, 6)
    rep = prop_l_check(t)
    assert rep.holds == (16 * 3 ** 12 >= t.n * t.n) is True


# -- audit ------------------------------------------------------------------------------

def test_audit_order_and_ids(ball32):
    reports = audit(ball32, (3, 5))
    assert [r.bound_id for r in reports] == [
        LAM2_BOUNDARY, LAM2_VOLUME, LAM2_DIAMETER,
        LAMK_BOUNDARY, LAMK_VOLUME, LAMK_BOUNDARY, LAMK_VOLUME,
        LEMMA_DV, PROP_L,
    ]
    assert all(r.holds is True for r in reports if r.holds is not None)


def test_audit_shares_spectrum(ball32):
    spec = steklov_spectrum(ball32)
    for with_spec in (audit(ball32, (3,), spectrum=spec), audit(ball32, (3,))):
        assert with_spec[0].measured == pytest.approx(1 / 3, abs=1e-9)


@given(n=st.integers(5, 55), cap=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_audit_all_hold_random(n, cap, seed):
    t = gen_random_tree(n, cap, seed)
    for rep in audit(t, (3,)):
        assert rep.holds in (True, None)
        # LEMMA_DV and PROP_L are lower-bound reports; the rest cap measured
        if rep.holds is True and rep.bound_id not in (PROP_L, LEMMA_DV) \
                and not math.isnan(rep.tightness):
            assert rep.measured <= rep.bound_value + 1e-8


@given(n=st.integers(6, 55), cap=st.integers(3, 6), seed=st.integers(0, 2**32))
def test_audit_all_hold_interior3(n, cap, seed):
    t = gen_random_interior3(n, cap, seed)
    for rep in audit(t, (3, 5)):
        assert rep.holds in (True, None)
        # interior degrees >= 3 activate every precondition except k range
        if rep.bound_id in (LAM2_VOLUME, LEMMA_DV):
            assert rep.preconditions_met is True
            assert rep.holds is True


# -- decay ------------------------------------------------------------------------------

def test_decay_balls_passes():
    fam = [gen_ball(3, r) for r in range(1, 9)]
    rep = asymptotic_decay_check(fam)
    assert rep.decreasing and rep.tail_below and rep.passed
    lam_last = rep.rows[-1].lam2
    assert lam_last == pytest.approx(1.0 / sum(2**k for k in range(8)), abs=1e-10)


def test_decay_paths_hits_threshold_exactly():
    fam = [gen_path(L) for L in range(2, 201, 22)]  # ends exactly at L = 200
    rep = asymptotic_decay_check(fam)
    # lambda_2(path 200) = 0.01 on the nose; the slack keeps this a pass
    assert rep.rows[-1].lam2 == pytest.approx(0.01, abs=1e-10)
    assert rep.tail_below and rep.passed


def test_decay_short_family_fails_threshold():
    rep = asymptotic_decay_check([gen_ball(3, r) for r in (1, 2, 3)])
    assert rep.decreasing
    assert not rep.tail_below
    assert not rep.passed


def test_decay_rejects_bad_families(ball32):
    with pytest.raises(ValueError):
        asymptotic_decay_check([ball32])
    with pytest.raises(ValueError):
        asymptotic_decay_check([gen_ball(3, 2), gen_ball(3, 2)])
    with pytest.raises(ValueError):
        asymptotic_decay_check([gen_ball(3, 3), gen_ball(3, 2)])


def test_decay_report_json():
    rep = asymptotic_decay_check([gen_path(L) for L in (2, 4, 8)], threshold=0.5)
    obj = rep.to_json_dict()
    assert obj["passed"] is True
    assert [row["L"] for row in obj["rows"]] == [2, 4, 8]
    assert obj["rows"][-1]["lambda2"] == pytest.approx(0.25, abs=1e-10)


# -- the bound table -------------------------------------------------------------------------

def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _inline_bounds(t, k):
    """Each bound as its callers wrote it before the table: floats and Fractions."""
    d, m, n, ell = t.max_degree, t.n_boundary, t.n, diameter(t).length
    return {
        LAM2_BOUNDARY: (4 * (d - 1) / m, float(Fraction(4 * (d - 1), m))),
        LAM2_VOLUME: (8 * (d - 1) / (n + 2), float(Fraction(8 * (d - 1), n + 2))),
        LAM2_DIAMETER: (2.0 / ell, float(Fraction(2, ell))),
        LAMK_BOUNDARY: (8 * (d - 1) ** 2 * (k - 1) / m,
                        float(Fraction(8 * (d - 1) * (d - 1) * (k - 1), m))),
        LAMK_VOLUME: (float(Fraction(16 * (d - 1) * (d - 1) * (k - 1), n + 2)),),
    }


@given(n=st.integers(3, 80), cap=st.integers(2, 7), seed=st.integers(0, 2**32),
       k=st.integers(2, 9))
def test_bound_table_matches_the_inline_expressions_bit_for_bit(n, cap, seed, k):
    t = gen_random_tree(n, cap, seed)
    inline = _inline_bounds(t, k)
    assert set(inline) == set(BOUND_VALUES)
    for bound_id, old in inline.items():
        value = bound_value(bound_id, t, k)
        assert isinstance(value, Fraction)
        for x in old:
            assert _bits(float(value)) == _bits(x), bound_id


def test_bound_report_and_decay_check_read_the_table(ball32, monkeypatch):
    monkeypatch.setitem(BOUND_VALUES, LAM2_DIAMETER, lambda t, k: Fraction(1, 1000))
    rep = bound_report(LAM2_DIAMETER, ball32, with_witness=False)
    assert rep.bound_value == 0.001 and rep.holds is False
    decay = asymptotic_decay_check([gen_path(L) for L in (2, 4)], threshold=0.5)
    assert [r.diameter_bound for r in decay.rows] == [0.001, 0.001]
    assert not any(r.within_bound for r in decay.rows)


# -- report serialization ------------------------------------------------------------------

def test_bound_report_json_round_trip(ball32):
    obj = bound_report(LAM2_BOUNDARY, ball32).to_json_dict()
    assert obj["bound_id"] == LAM2_BOUNDARY
    assert obj["holds"] is True
    assert obj["has_witness"] is True
    assert isinstance(obj["bound_value"], float)
    assert np.isfinite(obj["measured"])
