"""Normalization constants and the stable power-difference kernels.

The frozen c1 literals were produced by an independent 40-digit tanh-sinh
evaluation (mpmath) of 1 / sqrt(1/(2H) + integral_0^inf ((1+s)^eta - s^eta)^2 ds).
The same definition is evaluated in mpmath at H near 0 and 1, and the
Mandelbrot-Van Ness closed form in mpmath across the whole range of H.

The oracle for ``xi`` is its defining formula ``(a + b)**r - a**r`` evaluated
in mpmath from the same float inputs.  Float subtraction cannot serve as the
oracle: it cancels when ``|r * log1p(b / a)|`` is small, i.e. for tiny ``r``
or tiny ``b / a``, and then has fewer correct digits than ``xi`` itself.
A nan passed to ``xi`` comes out as nan.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fbmkit.context import HurstContext, make_context, xi
from fbmkit.errors import ValidationError

C1_FROZEN = {
    0.25: 0.6459980037407519676125,
    0.4: 0.8807256833637268802961,
    0.6: 1.076005184131807186305,
    0.75: 1.069644635031990324101,
}


@pytest.mark.parametrize("hurst,expected", sorted(C1_FROZEN.items()))
def test_c1_matches_high_precision_oracle(hurst, expected):
    ctx = make_context(hurst)
    assert ctx.c1 == pytest.approx(expected, rel=1.0e-14)


def _c1_definition_mpmath(hurst):
    """``1 / sqrt(1/(2H) + integral_0^inf ((1+s)^eta - s^eta)^2 ds)`` in mpmath.

    ``s = y**q`` on ``[0, 1]`` (``q = 1/(1 + 2 eta)`` for ``eta < 0``) and
    ``s = y**-p`` on ``[1, inf)`` (``p = 1/(1 - 2 eta)`` for ``eta > 0``) make
    both integrands bounded at ``y = 0``.  As ``H -> 1`` the tail reaches
    ``s ~ 1e150``, so ``(1 + 1/s)**eta - 1`` goes through ``expm1``/``log1p``.
    """
    mp = mpmath.mp
    with mpmath.workdps(30):
        h = mp.mpf(hurst)
        eta = h - mp.mpf(0.5)
        q = 1 / (1 + 2 * eta) if eta < 0 else 1
        p = 1 / (1 - 2 * eta) if eta > 0 else 1
        head = mp.quad(
            lambda y: ((1 + y**q) ** eta - y ** (q * eta)) ** 2 * q * y ** (q - 1),
            [0, 1],
        )
        tail = mp.quad(
            lambda y: y ** (-p * (2 * eta + 2))
            * mp.expm1(eta * mp.log1p(y**p)) ** 2
            * p * y ** (p - 1),
            [0, 1],
        )
        return float(1 / mp.sqrt(1 / (2 * h) + head + tail))


@pytest.mark.parametrize("hurst", [0.005, 0.05, 0.885, 0.9, 0.95, 0.99, 0.995])
def test_c1_matches_its_definition_near_the_ends(hurst):
    assert make_context(hurst).c1 == pytest.approx(
        _c1_definition_mpmath(hurst), rel=1.0e-14, abs=0.0
    )


def test_c1_matches_closed_form_across_the_hurst_range():
    # c1 = sqrt(2 H sin(pi H) Gamma(2 H)) / Gamma(H + 1/2), in 40 digits, on
    # a 0.005 grid (which includes 0.885-0.995) plus points next to 0 and 1.
    mp = mpmath.mp
    grid = np.concatenate([[1e-6, 1e-3], np.arange(1, 200) * 0.005, [1 - 1e-3, 1 - 1e-6]])
    for hurst in grid:
        with mpmath.workdps(40):
            h = mp.mpf(float(hurst))
            ref = mp.sqrt(2 * h * mp.sinpi(h) * mp.gamma(2 * h)) / mp.gamma(h + mp.mpf(0.5))
        assert make_context(hurst).c1 == pytest.approx(float(ref), rel=1.0e-14, abs=0.0), hurst


@pytest.mark.parametrize("hurst", [5e-324, 2.2e-311, 1e-310, 2.7e-309, 3e-309, 1e-300,
                                   9.9e-151, 1e-150, 1e-100])
def test_c1_is_right_where_2h_sin_pi_h_underflows(hurst):
    # Below H = 1e-150 2H sin(pi H) underflows (and below 2.8e-309 Gamma(2H)
    # overflows), so 2H Gamma(2H) is taken as Gamma(2H + 1).  Below 7e-309
    # sin(pi H) is subnormal and keeps fewer bits: at 5e-324 only one.
    with mpmath.workdps(40):
        h = mpmath.mpf(hurst)
        ref = mpmath.sqrt(mpmath.sinpi(h) * mpmath.gamma(2 * h + 1)) / mpmath.gamma(h + 0.5)
    rel = 0.5 if hurst == 5e-324 else 1.0e-12
    assert make_context(hurst).c1 == pytest.approx(float(ref), rel=rel, abs=0.0)


def test_brownian_case_is_exact():
    ctx = make_context(0.5)
    assert ctx.eta == 0.0
    assert ctx.c1 == 1.0
    assert ctx.c_h == 1.0


def test_context_fields_are_consistent():
    ctx = make_context(0.75)
    assert isinstance(ctx, HurstContext)
    assert ctx.eta == pytest.approx(0.25)
    # c_h = 1 / (Gamma(eta + 1) Gamma(1 - eta)); reflection gives
    # Gamma(1 + x) Gamma(1 - x) = pi x / sin(pi x)
    x = ctx.eta
    expected = math.sin(math.pi * x) / (math.pi * x)
    assert ctx.c_h == pytest.approx(expected, rel=1.0e-12)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7])
def test_hurst_out_of_range_rejected(bad):
    with pytest.raises(ValidationError):
        make_context(bad)


# ---------------------------------------------------------------------------
# xi
# ---------------------------------------------------------------------------


def _xi_mpmath(r, a, b):
    """``(a + b)**r - a**r`` in mpmath, correctly rounded to a float.

    The working precision makes ``a + b`` exact and covers the bits lost to
    cancellation (about ``log2(a / |b|)`` for small ``b / a`` and
    ``-log2|r|`` for small ``r``), with 128 bits to spare.
    """
    gap = max(0, math.frexp(a)[1] - math.frexp(b)[1]) if b else 0
    small_r = max(0, -math.frexp(r)[1]) if r else 0
    with mpmath.workprec(128 + 2 * gap + small_r):
        a_mp = mpmath.mpf(a)
        return float(mpmath.power(a_mp + b, r) - mpmath.power(a_mp, r))


@given(
    r=st.floats(-1.5, 1.5),
    a=st.floats(1.0e-3, 1.0e3),
    b=st.floats(-0.5, 1.0e3),
)
# Tiny |r * log1p(b / a)|, where the naive float subtraction cancels.
@example(r=1.192092896e-07, a=68.0, b=0.5)
@example(r=1.2230725369526173e-13, a=1.0, b=1.0)
# The a + b >= 1e-3 clamp, where xi's own error peaks, and r = 0.
@example(r=-0.49, a=0.2089648713167517, b=1.0e-3 - 0.2089648713167517)
@example(r=0.0, a=2.0, b=3.0)
def test_xi_matches_naive_formula_in_the_safe_regime(r, a, b):
    # r spans the exponents the library passes (eta - 1, -eta - 1, eta + 1).
    # The absolute floor covers results near the float underflow range,
    # where xi's intermediate r * b / a is subnormal.
    if a + b < 1.0e-3:
        b = 1.0e-3 - a
    exact = _xi_mpmath(r, a, b)
    assert abs(xi(r, a, b) - exact) <= 1.0e-12 * abs(exact) + 1.0e-300


def test_xi_keeps_precision_where_naive_subtraction_cancels():
    # (a + b)^r - a^r for b/a = 1e-12: naive subtraction loses ~12 digits;
    # first-order expansion r * a^(r-1) * b is then accurate to ~1e-12 rel.
    r, a, b = 0.25, 1.0e4, 1.0e-8
    first_order = r * a ** (r - 1.0) * b
    # abs=0: pytest.approx would otherwise allow 1e-12, i.e. 40% of the value.
    assert xi(r, a, b) == pytest.approx(first_order, rel=1.0e-10, abs=0.0)


def test_xi_zero_branches():
    # a == 0: result is b^r under the 0^r = 0 convention
    assert xi(0.5, 0.0, 4.0) == pytest.approx(2.0)
    assert xi(0.5, 0.0, 0.0) == 0.0
    # a + b == 0: 0^r - a^r = -a^r
    assert xi(0.5, 4.0, -4.0) == pytest.approx(-2.0)


def test_xi_passes_nan_through():
    # A nan is neither a == 0 nor a + b <= 0, so no edge fix-up replaces it.
    assert math.isnan(xi(0.5, np.nan, 4.0))
    assert math.isnan(xi(0.5, 1.0, np.nan))


def test_xi_validates_signs():
    with pytest.raises(ValidationError):
        xi(0.5, -1.0, 0.5)
    with pytest.raises(ValidationError):
        xi(0.5, 1.0, -2.0)


def test_xi_broadcasts():
    out = xi(0.5, np.array([[1.0], [4.0]]), np.array([0.0, 3.0]))
    assert out.shape == (2, 2)
    assert out[1, 1] == pytest.approx(7.0 ** 0.5 - 2.0)


@pytest.mark.parametrize("r", [-1.45, -0.75, -0.25, 0.5, 1.5])
def test_xi_on_a_broadcast_grid_equals_scalar_calls_bit_for_bit(r):
    # a**r is taken before a is broadcast against b; every entry, including
    # the a == 0 and a + b == 0 branches, must equal the scalar evaluation.
    a = np.array([0.0, 1.0e-30, 0.5, 4.0, 1.0e12])
    b = np.array([-0.5, 0.0, 1.0e-9, 3.0, 1.0e20])
    grid = xi(r, a[:, None], np.maximum(b[None, :], -a[:, None]))
    for i, ai in enumerate(a):
        for k, bk in enumerate(b):
            single = xi(r, ai, max(bk, -ai))
            assert np.float64(grid[i, k]).view(np.uint64) == np.float64(single).view(np.uint64)
