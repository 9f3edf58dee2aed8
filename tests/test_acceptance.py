"""The acceptance battery, one numbered criterion per test.

Each criterion runs through ``run_criterion`` with the battery's own seed,
so it draws exactly what ``run_all`` draws.  Criterion 10 checks a
decay-rate trend that the pinned parameter point does not satisfy at finite
depth; it is kept literal and must keep failing.  Criterion 11 (two full
batteries at different thread counts, compared byte for byte) is left to
``fbmkit selftest``: it would double the time of everything here.
"""

import pytest

from fbmkit.acceptance import CRITERION_NAMES, run_criterion

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
