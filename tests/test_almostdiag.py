"""Walk coding for the almost-diagonal counting bounds, and the bounds themselves.

The determinant and inverse-entry bounds must hold on every matrix of the
hypothesis class (unit diagonal, ``|a_ij| <= eps^|i-j|``) for every eps below
``max_feasible_epsilon()``, including the three instances that saturate the
envelope; a matrix outside the class is refused.  The phi_g and phi_i
factors behind them are checked against their closed forms in mpmath, down to
eps where eps^2 underflows.  These bounds, the sub-Gaussian tail bound and
the regularity bound of the increment field refuse inf and nan.
"""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbmkit.almostdiag import (
    adversarial_matrices,
    hk_entry_bound,
    matrix_bounds_check,
    phi_functions,
    phi_n_of,
    random_hypothesis_matrix,
    word_code,
    word_decode,
)
from fbmkit.context import make_context
from fbmkit.errors import ValidationError
from fbmkit.experiments import max_feasible_epsilon
from fbmkit.gamma import GammaConfig, reg_gamhat_bound
from fbmkit.subgauss import subgaussian_bound, subgaussian_constants

EPS_MAX = max_feasible_epsilon()
sizes = st.integers(1, 40)
epsilons = st.floats(0.0, EPS_MAX, exclude_min=True, exclude_max=True)

steps = st.lists(
    st.integers(-12, 12).filter(lambda d: d != 0), min_size=1, max_size=20
)


@given(steps)
def test_word_code_round_trips(deltas):
    walk = (0, *itertools.accumulate(deltas))
    word = word_code(walk)
    assert len(word) == sum(abs(d) for d in deltas)
    assert word.count("P") + word.count("M") == len(deltas)
    assert word_decode(word) == walk


@pytest.mark.parametrize(
    "word",
    [
        "pxP",  # not a symbol of the alphabet
        "pM",   # a run of up-steps closed by a down terminal
        "mmP",
        "ppPmm",  # the last run has no terminal letter
    ],
)
def test_word_decode_rejects_malformed_words(word):
    with pytest.raises(ValidationError):
        word_decode(word)


@given(sizes, epsilons, st.integers(0, 2**32 - 1))
def test_bounds_hold_on_the_hypothesis_class(n, eps, seed):
    matrices = [random_hypothesis_matrix(n, eps, np.random.default_rng(seed)),
                *adversarial_matrices(n, eps)]
    for matrix in matrices:
        report = matrix_bounds_check(matrix, eps)
        assert report.all_ok(), report


@given(st.integers(2, 40), epsilons, st.data())
def test_entry_past_the_envelope_is_refused(n, eps, data):
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1).filter(lambda j: j != i))
    matrix = adversarial_matrices(n, eps)[0]
    limit = eps ** abs(i - j)
    matrix[i, j] = max(2.0 * limit, math.ulp(0.0))
    with pytest.raises(ValidationError, match="envelope"):
        matrix_bounds_check(matrix, eps)


def phi_g_i_mpmath(eps):
    """phi_g and phi_i from their closed forms, with the digits they cancel."""
    with mp.workdps(60 + 3 * round(abs(math.log10(eps)))):
        e = mp.mpf(eps)
        e2 = e * e
        phi_m = 1 + 8 * e2 * (3 - 4 * e2) / (1 - 4 * e2) ** 2
        y = 2 * e / (1 - e)
        phi_g = phi_m + (-mp.log(1 - y) - y - y * y / 2) / e2
        head = ((1 - 16 * e2) ** mp.mpf(-0.5) - 1 - 8 * e2) / 2
        deriv = 4 * e2 * ((1 - 4 * e2) ** mp.mpf(-1.5) - 1)
        return float(phi_g), float(phi_m + (head - deriv) / (2 * e2))


@pytest.mark.parametrize("eps", [1e-300, 1e-160, 1e-20, 1e-8, 1e-4, 0.01, 0.1, 0.125, 0.13, 0.2, 0.24])
def test_phi_g_and_phi_i_match_mpmath(eps):
    # The float closed forms divided by eps^2 = 0 below eps ~ 1e-162.
    phis = phi_functions(eps)
    phi_g, phi_i = phi_g_i_mpmath(eps)
    assert phis.phi_g == pytest.approx(phi_g, rel=1e-14)
    assert phis.phi_i == pytest.approx(phi_i, rel=1e-14)


# The bound entry points refuse inf and nan instead of returning them.
BOUND_ENTRY_POINTS = {
    "hk_entry_bound": lambda x: hk_entry_bound(1, 1, x),
    "phi_functions": phi_functions,
    "phi_n_of": phi_n_of,
    "subgaussian_bound": lambda x: subgaussian_bound(subgaussian_constants(0.5), x),
    "reg_gamhat_bound": lambda x: reg_gamhat_bound(
        GammaConfig(make_context(0.75), 0.5), 0, x, (1.0, 1.0)
    ),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(BOUND_ENTRY_POINTS))
def test_bound_entry_points_refuse_non_finite_input(name, bad):
    with pytest.raises(ValidationError):
        BOUND_ENTRY_POINTS[name](bad)
