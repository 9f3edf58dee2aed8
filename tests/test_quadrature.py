"""Graded-mesh Gauss-Legendre quadrature against independent references.

The independent oracle throughout is scipy.integrate.quad (adaptive
Clenshaw-Curtis/QAGS), plus closed forms where available.
"""

import numpy as np
import pytest
from scipy import integrate as sci

from fbmkit.errors import AccuracyError, ValidationError
from fbmkit.quadrature import (
    graded_breaks,
    integrate,
    integrate_checked,
    panel_nodes,
)


def test_polynomials_are_integrated_exactly():
    # n-node Gauss-Legendre is exact for degree <= 2n - 1 on each panel
    breaks = np.array([0.0, 0.7, 1.3, 2.0])
    for deg in range(0, 8):
        val = integrate(lambda x, d=deg: x**d, breaks, n=4)
        assert val == pytest.approx(2.0 ** (deg + 1) / (deg + 1), rel=1.0e-14)


def test_smooth_integrand_matches_scipy():
    f = lambda x: np.exp(-x) * np.cos(3.0 * x)
    ref, _ = sci.quad(f, 0.0, 5.0, epsabs=1.0e-14, epsrel=1.0e-13)
    val = integrate(f, np.linspace(0.0, 5.0, 11), n=8)
    assert val == pytest.approx(ref, rel=1.0e-12)


def test_endpoint_singularity_on_graded_mesh():
    # integral_0^1 x^(-1/2) dx = 2 exactly; a uniform mesh cannot get this.
    # The innermost panel contributes ~width^(1/2) of unresolvable error, so
    # the grading must go deep enough for the requested tolerance.
    breaks = graded_breaks(0.0, 1.0, toward="left", levels=80)
    val = integrate_checked(lambda x: np.where(x > 0, x, 1.0) ** -0.5, breaks)
    assert val == pytest.approx(2.0, rel=1.0e-9)


def test_right_singularity_mirrors_left():
    breaks = graded_breaks(0.0, 1.0, toward="right", levels=60)
    val = integrate_checked(lambda x: np.where(x < 1, 1.0 - x, 1.0) ** -0.25, breaks)
    assert val == pytest.approx(4.0 / 3.0, rel=1.0e-9)


def test_integrate_checked_raises_on_unresolved_singularity():
    # one panel across the singularity: the refinement check must fire
    with pytest.raises(AccuracyError):
        integrate_checked(lambda x: np.abs(x - 0.3) ** -0.5, np.array([0.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_integrate_checked_rejects_non_finite_integrands(bad):
    # NaN compares False with the budget; it must still raise, not be returned.
    with pytest.raises(AccuracyError):
        integrate_checked(
            lambda x: np.where(x < 0.5, bad, 1.0), np.array([0.0, 1.0])
        )


def test_graded_breaks_structure():
    b = graded_breaks(2.0, 3.0, toward="left", levels=10)
    assert b[0] == 2.0 and b[-1] == 3.0
    widths = np.diff(b)
    assert np.all(widths > 0)
    # widths grow away from the refined endpoint
    assert np.all(widths[2:] >= widths[1:-1])


def test_graded_breaks_validation():
    with pytest.raises(ValidationError):
        graded_breaks(1.0, 1.0)
    with pytest.raises(ValidationError):
        graded_breaks(0.0, 1.0, toward="up")


def test_panel_nodes_cover_panels():
    breaks = np.array([0.0, 1.0, 3.0])
    nodes, weights = panel_nodes(breaks, 4)
    assert nodes.shape == weights.shape == (8,)
    assert np.all((nodes > 0.0) & (nodes < 3.0))
    assert weights.sum() == pytest.approx(3.0)

