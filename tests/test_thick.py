"""Finite-prefix index sets: densities, their trend, and harmonic subsums.

The references are counting identities: the evens below n contribute half of
a harmonic number, and the multiples of k have ceil(n/k) members in [0, n).
"""

import math

import pytest

from fbmkit.errors import ValidationError
from fbmkit.thick import ThickSet, harmonic_subsum, is_thick_estimate, upper_density


@pytest.mark.parametrize("n", [2, 3, 10, 11, 4096, 4097])
def test_harmonic_subsum_of_evens_is_half_a_harmonic_number(n):
    # Evens in [1, n) are 2k for k = 1..ceil(n/2)-1, and 1/(2k) is exactly
    # half of 1/k in binary floating point, so the correctly rounded sums agree.
    m = math.ceil(n / 2) - 1
    expected = 0.5 * math.fsum(1.0 / k for k in range(1, m + 1))
    assert harmonic_subsum(ThickSet.evens(n), n) == expected
    assert harmonic_subsum(ThickSet.evens(5000), n) == expected


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_multiples_have_density_tending_to_one_over_k(k):
    trend = is_thick_estimate(ThickSet.multiples(k, 4096))
    for n, density in zip(trend.horizons, trend.densities):
        # ceil(n/k) multiples of k lie in [0, n).
        assert density == math.ceil(n / k) / n
        assert 1.0 / k <= density < 1.0 / k + 1.0 / n
    assert trend.horizons[-1] == 4096
    assert trend.densities[-1] == pytest.approx(1.0 / k, abs=1.0 / 4096)


def test_vanishing_flag_separates_squares_from_naturals():
    assert is_thick_estimate(ThickSet.squares(4096)).looks_vanishing()
    assert not is_thick_estimate(ThickSet.naturals(4096)).looks_vanishing()


@pytest.mark.parametrize("n", [0, 65])
def test_out_of_prefix_horizons_are_rejected(n):
    ts = ThickSet.evens(64)
    with pytest.raises(ValidationError):
        upper_density(ts, n)
    with pytest.raises(ValidationError):
        harmonic_subsum(ts, n)
