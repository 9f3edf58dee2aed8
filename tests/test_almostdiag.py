"""Walk coding for the almost-diagonal counting bounds, and the bounds themselves.

The coding of a walk as a word over {p, P, m, M} lives here, as the oracle
of the injection behind ``tuple_count_bound``: it round-trips, refuses
malformed words, and maps the walks ``valid_tuple_count`` counts to as many
distinct words, never more than the bound.

The determinant and inverse-entry bounds must hold on every matrix of the
hypothesis class (unit diagonal, ``|a_ij| <= eps^|i-j|``) for every eps below
``max_feasible_epsilon()``, including the three instances that saturate the
envelope; a matrix outside the class is refused.  A batch checks those
three one at a time, within three times their stack in memory.  The stacked
check gives the margins of a per-matrix oracle (one ``slogdet`` and one
``inv`` per matrix) bit for bit, on any stack and in any block size.  The
phi_g and phi_i factors behind them are checked against their closed forms
in mpmath, down to eps where eps^2 underflows.  ``hk_entry_bound`` is at
least the exact sum of 1500 terms of its series, and +inf where the series
diverges.  These bounds, the sub-Gaussian tail bound and the regularity
bound of the increment field refuse inf and nan.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbmkit.almostdiag import (
    HK_TERMS,
    SLACK,
    adversarial_matrix,
    hk_entry_bound,
    matrix_batch_check,
    matrix_bounds_check,
    phi_functions,
    phi_n_of,
    tuple_count_bound,
    valid_tuple_count,
)
from fbmkit.context import make_context
from fbmkit.errors import ValidationError
from fbmkit.experiments import max_feasible_epsilon
from fbmkit.gamma import GammaConfig, reg_gamhat_bound
from fbmkit.rng import make_rng
from fbmkit.subgauss import subgaussian_bound, subgaussian_constants

EPS_MAX = max_feasible_epsilon()
sizes = st.integers(1, 40)
epsilons = st.floats(0.0, EPS_MAX, exclude_min=True, exclude_max=True)

steps = st.lists(
    st.integers(-12, 12).filter(lambda d: d != 0), min_size=1, max_size=20
)


def word_code(walk) -> str:
    """Injective coding of a walk (s_0=0, s_1, ..., s_k) as a word over pPmM.

    Each step of size d writes |d|-1 plain letters ('p' for up, 'm' for down)
    followed by one terminal letter ('P' / 'M'); word length equals the total
    step length.
    """
    walk = [int(v) for v in walk]
    if len(walk) < 2:
        raise ValidationError("walk must have at least one step")
    if walk[0] != 0:
        raise ValidationError(f"walk must start at 0, got {walk[0]}")
    out: list[str] = []
    for prev, cur in zip(walk[:-1], walk[1:]):
        d = cur - prev
        if d == 0:
            raise ValidationError(f"zero step at position {prev} is not allowed")
        plain, term = ("p", "P") if d > 0 else ("m", "M")
        out.append(plain * (abs(d) - 1) + term)
    return "".join(out)


def word_decode(word: str) -> tuple[int, ...]:
    """Inverse of word_code: rebuild the walk from 0, validating word structure."""
    walk = [0]
    run = 0
    run_sign = 0
    for ch in word:
        if ch not in "pPmM":
            raise ValidationError(f"invalid symbol {ch!r}; expected one of p, P, m, M")
        sign = 1 if ch in "pP" else -1
        if run and sign != run_sign:
            raise ValidationError("sign change inside a step run")
        run += 1
        run_sign = sign
        if ch in "PM":
            walk.append(walk[-1] + sign * run)
            run = 0
            run_sign = 0
    if run:
        raise ValidationError("word ends inside a step (missing terminal symbol)")
    return tuple(walk)


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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_word_code_injects_the_counted_walks(k):
    # Every k-step walk of total length n <= 8 from 0, grouped by its end z.
    words: dict[tuple[int, int], set[str]] = {}
    for sizes in itertools.product(range(1, 9), repeat=k):
        n = sum(sizes)
        if n > 8:
            continue
        for signs in itertools.product((1, -1), repeat=k):
            walk = (0, *itertools.accumulate(s * d for s, d in zip(signs, sizes)))
            words.setdefault((walk[-1], n), set()).add(word_code(walk))
    for (z, n), found in words.items():
        assert len(found) == valid_tuple_count(z, k, n) <= tuple_count_bound(z, k, n)
        assert all(len(w) == n for w in found)


def lags(n):
    idx = np.arange(n)
    return np.abs(idx[:, None] - idx[None, :]).astype(float)


def random_stack(k, n, eps, rng):
    """k unit-diagonal matrices with a_ij uniform in [-eps^|i-j|, eps^|i-j|]."""
    a = rng.uniform(-1.0, 1.0, size=(k, n, n)) * eps ** lags(n)
    a[:, np.arange(n), np.arange(n)] = 1.0
    return a


def oracle_margins(matrix, eps):
    """Determinant, off-diagonal and diagonal margins and ||H||_1 of one matrix.

    One ``slogdet`` and one ``inv`` of this matrix alone.
    """
    phis = phi_functions(eps)
    n = matrix.shape[0]
    sign, logdet = np.linalg.slogdet(matrix)
    det = float(sign * np.exp(logdet)) - float(np.exp(-n * phis.phi_g * eps * eps))
    b = np.linalg.inv(matrix)
    off_gap = 0.5 * (2.0 * phis.phi_h * eps) ** lags(n) - np.abs(b)
    np.fill_diagonal(off_gap, np.inf)
    diag = float((2.0 * phis.phi_i * eps * eps - np.abs(np.diag(b) - 1.0)).min())
    norm1 = float(np.abs(np.eye(n) - matrix).sum(axis=0).max())
    return det, float(off_gap.min()), diag, norm1


def adversarial_matrices(n, eps):
    """The three adversarial instances as a (3, n, n) stack."""
    return np.stack([adversarial_matrix(n, eps, kind) for kind in range(3)])


def assert_matches_oracle(report, matrices, eps):
    rows = np.array([oracle_margins(m, eps) for m in matrices]).reshape(-1, 4)
    assert report.checked == len(rows)
    assert report.violations == int(np.count_nonzero(np.any(rows[:, :3] < -SLACK, axis=1)))
    mins = rows[:, :3].min(axis=0, initial=math.inf)
    assert (report.min_det_margin, report.min_offdiag_margin, report.min_diag_margin) == tuple(mins)
    assert report.max_norm1_h == rows[:, 3].max(initial=0.0)


@given(st.integers(0, 6), sizes, epsilons, st.integers(0, 2**32 - 1))
def test_stacked_check_matches_the_per_matrix_oracle(k, n, eps, seed):
    stack = random_stack(k, n, eps, np.random.default_rng(seed))
    assert_matches_oracle(matrix_bounds_check(stack, eps), stack, eps)
    assert_matches_oracle(matrix_bounds_check(adversarial_matrices(n, eps), eps),
                          adversarial_matrices(n, eps), eps)


@given(sizes, epsilons, st.integers(0, 2**32 - 1))
def test_bounds_hold_on_the_hypothesis_class(n, eps, seed):
    stack = np.concatenate([random_stack(1, n, eps, np.random.default_rng(seed)),
                            adversarial_matrices(n, eps)])
    report = matrix_bounds_check(stack, eps)
    assert report.checked == 4 and report.violations == 0, report
    assert matrix_bounds_check(stack[0], eps).checked == 1


# Blocks of 2^18 entries: 64 matrices at n = 64, 163 at n = 40, all at n = 4.
@pytest.mark.parametrize("n,eps,trials", [
    (1, 0.1, 3), (4, 0.1, 0), (4, 0.05, 200), (40, 0.01, 170), (64, 0.1, 150),
])
def test_batch_check_is_the_oracle_on_one_draw(n, eps, trials):
    # The blocks read the stream as one (trials, n, n) draw would.
    report = matrix_batch_check(n, eps, trials, make_rng(5))
    matrices = np.concatenate([random_stack(trials, n, eps, make_rng(5)),
                               adversarial_matrices(n, eps)])
    assert_matches_oracle(report, matrices, eps)
    assert (report.n, report.eps, report.violations) == (n, eps, 0)


def test_a_batch_checks_its_adversarial_matrices_one_at_a_time():
    # bounds matrix --n 600 --eps 0.1 --trials 10 held 46.7 MiB with the
    # three adversarial matrices checked as one stack; each alone holds no
    # more than three times that stack, 3 * 3n^2 floats.
    n, eps = 600, 0.1
    tracemalloc.start()
    try:
        report = matrix_batch_check(n, eps, 10, make_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (3 * n * n * 8)
    # The report of the stacked check, from the same draw.
    stacked = [matrix_bounds_check(random_stack(10, n, eps, make_rng(5)), eps),
               matrix_bounds_check(adversarial_matrices(n, eps), eps)]
    assert report.checked == 13 and report.violations == sum(r.violations for r in stacked)
    for field, pick in (("min_det_margin", min), ("min_offdiag_margin", min),
                        ("min_diag_margin", min), ("max_norm1_h", max)):
        assert getattr(report, field) == pick(getattr(r, field) for r in stacked)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_the_adversarial_matrices_saturate_the_envelope(n):
    lag = lags(n)
    idx = np.arange(n)
    signs = np.stack([np.ones_like(lag), (-1.0) ** lag, (-1.0) ** (idx[:, None] + idx).astype(float)])
    want = 0.3 ** lag * signs
    want[:, idx, idx] = 1.0
    assert adversarial_matrices(n, 0.3).tobytes() == want.tobytes()
    with pytest.raises(ValidationError, match="kind"):
        adversarial_matrix(n, 0.3, 3)


@given(st.integers(2, 40), epsilons, st.data())
def test_entry_past_the_envelope_is_refused(n, eps, data):
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1).filter(lambda j: j != i))
    matrix = adversarial_matrices(n, eps)[0]
    limit = eps ** abs(i - j)
    matrix[i, j] = max(2.0 * limit, math.ulp(0.0))
    with pytest.raises(ValidationError, match="envelope"):
        matrix_bounds_check(matrix, eps)


@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_entry_is_refused(entry, bad):
    matrix = adversarial_matrices(3, 0.1)[1]
    matrix[entry] = bad
    with pytest.raises(ValidationError, match="finite"):
        matrix_bounds_check(matrix, 0.1)


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


def hk_series_coefficients(z, k, terms):
    """C(|z|+2m, m) * C(|z|+2m-1, k-1) for m = 0 .. terms-1 (0 where |z|+2m < 1)."""
    az = abs(z)
    return [math.comb(az + 2 * m, m) * math.comb(az + 2 * m - 1, k - 1) if az + 2 * m >= 1 else 0
            for m in range(terms)]


def at_least_exact_sum(bound, z, coefficients, eps):
    """Whether ``bound`` >= sum_m c_m eps^(|z|+2m), summed exactly in integers."""
    e = Fraction(eps)  # numerator / 2^q
    q = e.denominator.bit_length() - 1
    terms = len(coefficients)
    acc = 0  # Horner in eps^2, scaled by 2^(2q(terms-1))
    for m in reversed(range(terms)):
        acc = acc * e.numerator**2 + (coefficients[m] << (2 * q * (terms - 1 - m)))
    num, den = bound.as_integer_ratio()
    return num << (q * (abs(z) + 2 * (terms - 1))) >= den * acc * e.numerator ** abs(z)


@pytest.mark.parametrize("z,k", [(0, 2), (1, 1), (3, 2), (-20, 1)])
def test_hk_entry_bound_is_at_least_the_series(z, k):
    coefficients = hk_series_coefficients(z, k, 1500)
    for eps in (0.3, 0.45, 0.49):
        bound = hk_entry_bound(z, k, eps)
        assert math.isfinite(bound)
        assert at_least_exact_sum(bound, z, coefficients, eps)
    # The roundoff allowance is 1e-12 relative; the tail bound adds almost nothing at 0.3.
    assert not at_least_exact_sum(hk_entry_bound(z, k, 0.3) * (1 - 1e-11), z, coefficients, 0.3)


def test_hk_entry_bound_is_inf_where_it_cannot_bound():
    assert hk_entry_bound(1, 1, 0.5) == math.inf
    assert hk_entry_bound(1, 1, 5.0) == math.inf
    # With k near |z| + 2 * HK_TERMS the tail ratio bound exceeds 1.
    assert hk_entry_bound(0, 2 * HK_TERMS - 1, 0.1) == math.inf
    with pytest.raises(ValidationError, match="every summed term is 0"):
        hk_entry_bound(3, 3 + 2 * HK_TERMS + 1, 0.1)


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
