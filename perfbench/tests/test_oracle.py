"""The committed oracle table is what its generator produces."""

import json

import make_oracle


def test_table_matches_generator():
    with open(make_oracle.TABLE_PATH, encoding="utf-8") as fh:
        committed = json.load(fh)
    assert committed == make_oracle.build_table()


def test_c1_closed_form_matches_known_values():
    # Values pinned in the program's own test suite (tests/test_context.py).
    for hurst, value in (("0.25", 0.645998003740752), ("0.75", 1.0696446350319904)):
        assert abs(float(make_oracle.c1_closed_form(hurst)) - value) < 1e-15
