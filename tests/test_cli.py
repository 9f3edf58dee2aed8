"""Command-line defaults: every subcommand runs with only its required flags.

``selftest`` is left out: it runs the whole acceptance battery, which takes
tens of seconds.
"""

import pytest

from fbmkit.cli import main

REQUIRED_ONLY = [
    "sample fbm --hurst 0.75 --n 64 --dt 0.01",
    "sample levy --hurst 0.25 --n 64 --dt 0.01",
    "sample obm --n 64 --dt 0.01",
    "drift kernel --hurst 0.75",
    "drift obm --hurst 0.75",
    "drift regression --hurst 0.75",
    "drift validate --hurst 0.75",
    "drift validate --hurst 0.25",
    "invert --hurst 0.75",
    "gamma cov --hurst 0.75 --r 0.1",
    "gamma decay --hurst 0.75 --r 0.1",
    "gamma modulus --hurst 0.75 --r 0.1",
    "gamma modulus --hurst 0.25 --r 0.1",
    "gamma regbound --hurst 0.75 --r 0.1",
    "bounds matrix --n 8 --eps 0.1",
    "bounds subgauss --theta 0.5",
    "bounds thick",
    "bounds hk-count --z 2 --k 1 --n 6",
    "lil --hurst 0.75 --r 0.1",
    "arbitrage an-prob --hurst 0.75 --r 0.1 --alpha 0.5 --p 0.5 --n 4",
    "arbitrage ledger --hurst 0.75 --r 0.1 --alpha 0.5 --p 0.5 --n 8 --rtilde 0.05"
    " --alpha-prime 0.4 --p-prime 0.4 --pan 4=0.44,8=0.0993",
    "arbitrage threshold --hurst 0.75 --alpha 0.5 --alpha-prime 0.4 --p 0.5 --p-prime 0.4",
]


@pytest.mark.parametrize("command", REQUIRED_ONLY)
def test_defaults_are_a_valid_invocation(command, capsys):
    code = main(command.split())
    err = capsys.readouterr().err
    assert code == 0, err
