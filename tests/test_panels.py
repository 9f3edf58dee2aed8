"""The temporaries budget never changes what it bounds.

``gaussian._PANEL_VALUES`` sizes the row panels of every dense pass whose
block size cannot change a byte: the covariance fills, the fGn and OBM row
draws, the almost-diagonal batches and the symmetry check of
``cholesky_with_jitter``.  With the budget cut to 64 values (one row per
panel at most sizes here, a short last panel at the others) each of them
must give the default's result bit for bit.  The covariance of linear images
sums its panels' products, so it does so with identity weights (its images
are the covariance entries) and stays within rounding with others.  The
factor itself runs by the fixed ``gaussian._CHOLESKY_BLOCK``, so its bytes
never read the budget.  The one-sided covariance is the exception the budget
allows: its series take their term counts from a panel's largest ratio, so
it stays within 1e-14 relative, not bit for bit.
"""

from dataclasses import astuple

import numpy as np
import pytest

from fbmkit import gaussian
from fbmkit.almostdiag import matrix_batch_check
from fbmkit.context import make_context
from fbmkit.errors import ValidationError
from fbmkit.fbm import (
    FgnSampler,
    fbm_cov_matrix,
    joint_wz_image_cov,
    levy_cov_matrix,
    sample_fbm_paths,
    sample_obm,
)
from fbmkit.gaussian import cholesky_with_jitter
from fbmkit.rng import make_rng

SMALL = 64

CALLS = {
    "fbm_cov_matrix": lambda: fbm_cov_matrix(np.linspace(-1.5, 2.0, 50), 0.3),
    "joint_wz_image_cov": lambda: joint_wz_image_cov(
        make_context(0.7), np.linspace(-2.0, -0.1, 20), np.eye(20),
        np.linspace(-1.0, 3.0, 30), np.eye(30),
    ),
    "sample_fbm_paths": lambda: sample_fbm_paths(0.75, 100, 0.01, make_rng(5), paths=7),
    "sample_fbm_paths_one_step": lambda: sample_fbm_paths(0.25, 1, 0.01, make_rng(5), paths=130),
    "sample_obm": lambda: sample_obm(50, 0.1, make_rng(6), t0=-2.0, paths=5),
    "FgnSampler.sample": lambda: FgnSampler(0.3, 64, 0.01).sample(make_rng(7), 9),
    "cholesky_with_jitter": lambda: cholesky_with_jitter(
        fbm_cov_matrix(np.linspace(0.01, 3.0, 300), 0.7)
    )[0],
}


def _bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x).view(np.uint64).tobytes()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_small_budget_keeps_every_byte(name, monkeypatch):
    want = CALLS[name]()
    monkeypatch.setattr(gaussian, "_PANEL_VALUES", SMALL)
    got = CALLS[name]()
    assert got.shape == want.shape and _bits(got) == _bits(want)


def test_a_small_budget_keeps_the_batch_report(monkeypatch):
    # 6 x 6 matrices: one matrix per panel under the small budget.
    want = matrix_batch_check(6, 0.1, 25, make_rng(8))
    monkeypatch.setattr(gaussian, "_PANEL_VALUES", SMALL)
    got = matrix_batch_check(6, 0.1, 25, make_rng(8))
    assert repr(astuple(got)) == repr(astuple(want)) and got.checked == 25 + 3


@pytest.mark.parametrize("hurst", [0.05, 0.25, 0.75])
def test_a_small_budget_keeps_the_levy_covariance_close(hurst, monkeypatch):
    ctx, times = make_context(hurst), np.arange(1, 201) / 200.0
    want = levy_cov_matrix(times, ctx)
    monkeypatch.setattr(gaussian, "_PANEL_VALUES", SMALL)
    got = levy_cov_matrix(times, ctx)
    assert np.array_equal(got, got.T)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1.0e-14


@pytest.mark.parametrize("budget", [SMALL, gaussian._PANEL_VALUES])
def test_the_symmetry_check_reaches_the_last_panel(budget, monkeypatch):
    # At dim 10 a budget of 64 makes panels of 6 and 4 rows: the pair
    # (7, 9) is compared only in the short last panel.
    monkeypatch.setattr(gaussian, "_PANEL_VALUES", budget)
    cov = fbm_cov_matrix(np.linspace(0.1, 1.0, 10), 0.6)
    assert cholesky_with_jitter(cov.copy())[1] == 0.0
    cov[9, 7] += 1.0e-6
    with pytest.raises(ValidationError, match="symmetric"):
        cholesky_with_jitter(cov)


def test_a_small_budget_keeps_the_image_covariance_close(monkeypatch):
    ctx, rng = make_context(0.3), np.random.default_rng(9)
    w_times, z_times = np.linspace(-2.0, -0.1, 20), np.linspace(-1.0, 3.0, 30)
    images = (w_times, rng.standard_normal((3, 20)), z_times, rng.standard_normal((4, 30)))
    want = joint_wz_image_cov(ctx, *images)
    monkeypatch.setattr(gaussian, "_PANEL_VALUES", SMALL)
    got = joint_wz_image_cov(ctx, *images)
    assert np.array_equal(got, got.T)
    assert np.max(np.abs(got - want)) <= 1.0e-14 * np.abs(want).max()
