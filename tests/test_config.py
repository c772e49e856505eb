"""The tolerance record: every field finite and positive, for every caller."""
from __future__ import annotations

import dataclasses
import math

import pytest

from steklov_trees.config import DEFAULT_TOL, Tolerances, with_slack


@pytest.mark.parametrize("field", ["bound_slack", "bisect_abs"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-8])
def test_tolerances_reject_a_field_that_is_not_finite_and_positive(field, value):
    with pytest.raises(ValueError, match=f"tolerance {field} must be finite and positive"):
        Tolerances(**{field: value})
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(DEFAULT_TOL, **{field: value})


def test_every_default_tolerance_is_accepted():
    for f in dataclasses.fields(Tolerances):
        assert 0.0 < getattr(DEFAULT_TOL, f.name) < math.inf


def test_with_slack_keeps_its_message():
    with pytest.raises(ValueError, match="^--tol must be finite and positive, got nan$"):
        with_slack(DEFAULT_TOL, math.nan, "--tol")
    assert with_slack(DEFAULT_TOL, 0.5, "--tol").bound_slack == 0.5
