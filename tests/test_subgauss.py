"""Sub-Gaussian tail constants of Hölder-regular Gaussian processes.

The identities come from the module's construction: c_c c_o^2 = 2/theta, so
the patched prefactor c_d = max(4, exp(c_c c_o^2)) equals max(4, e^(2/theta))
and the bound is at least 1 wherever the raw chained bound is not valid.
"""

import math

import numpy as np
import pytest

from fbmkit.cli import main
from fbmkit.errors import ValidationError
from fbmkit.subgauss import THETA_MIN, subgaussian_bound, subgaussian_constants

THETAS = [THETA_MIN, 0.0029, 0.003, 0.01, 0.05, 0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 1.0]


@pytest.mark.parametrize("theta", THETAS)
def test_constants_satisfy_their_identities(theta):
    consts = subgaussian_constants(theta)
    assert consts.c_c * consts.c_o**2 == pytest.approx(2.0 / theta, rel=1e-15)
    # exp turns a relative error d of its argument y = 2/theta into y*d.
    assert consts.c_d == pytest.approx(
        max(4.0, math.exp(2.0 / theta)), rel=max(1e-15, 2e-15 / theta)
    )


@pytest.mark.parametrize("theta", THETAS)
def test_bound_is_trivial_below_c_o_and_decreasing(theta):
    consts = subgaussian_constants(theta)
    below = np.linspace(0.0, consts.c_o, 50)
    assert np.all(subgaussian_bound(consts, below) >= 1.0 - 1e-12)
    values = subgaussian_bound(consts, np.linspace(0.0, 3.0 * consts.c_o, 200))
    steps = np.diff(values)
    assert np.all(steps <= 0.0)
    assert np.all(steps[values[1:] > 0.0] < 0.0)


def test_validation():
    consts = subgaussian_constants(0.5)
    with pytest.raises(ValidationError):
        subgaussian_bound(consts, -0.1)
    with pytest.raises(ValidationError):
        subgaussian_bound(consts, np.array([1.0, -1e-300]))
    for theta in (0.0, -0.5, 1.0 + 1e-12, 2.0):
        with pytest.raises(ValidationError):
            subgaussian_constants(theta)


def test_theta_below_the_overflow_limit_is_rejected(tmp_path, capsys):
    # c_d = exp(2/theta) overflowed (OverflowError, exit 1) below about 0.0028.
    assert math.isfinite(subgaussian_constants(0.0029).c_d)
    assert math.isfinite(subgaussian_constants(THETA_MIN).c_d)
    with pytest.raises(ValidationError, match=str(THETA_MIN)):
        subgaussian_constants(0.001)
    out = tmp_path / "subgauss.json"
    assert main(f"bounds subgauss --theta 0.001 --out {out}".split()) == 2
    assert str(THETA_MIN) in capsys.readouterr().err
    assert not out.exists()
