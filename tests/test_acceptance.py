"""The acceptance battery, one numbered criterion per test.

Each criterion runs through ``run_criterion`` with the battery's own seed,
so it draws exactly what ``run_all`` draws; criteria 2 and 8 check closed
forms and draw nothing, which is pinned below.  Criterion 2 forms the
residual covariance from the regression weights it holds; its budgets are
those of the separate oracle ``residual_cov.conditional_future_cov``, bit
for bit.  Criterion 10 checks a decay-rate trend that the pinned parameter
point does not satisfy at finite depth; it is kept literal and must keep
failing.  Criterion 11 (two full
batteries at different thread counts, compared byte for byte) is left to
``fbmkit selftest``: it would double the time of everything here.
"""

import numpy as np
import pytest

from fbmkit import acceptance
from fbmkit.acceptance import CRITERION_NAMES, run_criterion
from fbmkit.context import make_context
from fbmkit.errors import AccuracyError
from fbmkit.fbm import levy_cov_matrix

from residual_cov import conditional_future_cov

CRITERIA = [
    pytest.param(
        n,
        id=f"{n}-{CRITERION_NAMES[n]}",
        marks=[pytest.mark.xfail(strict=True, reason="declared expected failure")]
        if n == 10 else [],
    )
    for n in range(1, 11)
]


@pytest.mark.parametrize("number", CRITERIA)
def test_criterion_passes(number):
    result = run_criterion(number)
    assert result.number == number
    assert result.passed, result.detail


@pytest.mark.parametrize("number", [3, 10])
def test_a_criterion_that_raises_reports_an_unexpected_failure(number, monkeypatch):
    def raises(seed_seq, threads):
        raise AccuracyError("budget exceeded")

    monkeypatch.setitem(acceptance._CRITERIA, number, raises)
    result = run_criterion(number)
    assert (result.passed, result.expected_failure) == (False, False)
    assert result.detail == "raised AccuracyError: budget exceeded"
    assert result.metrics == {}


@pytest.mark.parametrize("number", [2, 8])
def test_a_closed_form_criterion_draws_nothing(number, monkeypatch):
    def no_generator(*args, **kwargs):
        raise AssertionError(f"criterion {number} asked for a generator")

    monkeypatch.setattr(acceptance, "make_rng", no_generator)
    result = run_criterion(number)
    assert result.passed, result.detail


def test_criterion_2s_budgets_are_the_residual_oracles():
    # Criterion 2's v grid and its finest window at each H.
    v_grid = np.linspace(0.125, 2.0, 16)
    metrics = run_criterion(2).metrics
    for hurst, e_hi in ((0.25, 3.0), (0.75, 7.0)):
        past = acceptance._exp_grid_neg(-7.0, e_hi, acceptance._C2_LADDER[-1])
        residual = conditional_future_cov(hurst, past, v_grid)
        budget = np.abs(residual - levy_cov_matrix(v_grid, make_context(hurst))).max()
        assert metrics[f"budget_h{hurst}"] == float(budget)
