"""Walk coding for the almost-diagonal counting bounds."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbmkit.almostdiag import word_code, word_decode
from fbmkit.errors import ValidationError

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
