"""Property tests for the tree grammar and token scoring."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.grammar import TreeGrammar, token_distance
from repro.motion.letters import ALPHABET, shape_sequence

TOKENS = [
    "hbar", "vbar", "slash", "backslash", "click",
    "arc:left", "arc:right", "arc:up", "arc:down",
]

token_st = st.sampled_from(TOKENS)


@given(token_st)
def test_token_distance_identity(token):
    assert token_distance(token, token) == 0.0


@given(token_st, token_st)
def test_token_distance_symmetric(a, b):
    assert token_distance(a, b) == pytest.approx(token_distance(b, a))


@given(token_st, token_st)
def test_token_distance_bounded(a, b):
    d = token_distance(a, b)
    assert 0.0 <= d <= 1.0
    if a != b:
        assert d > 0.0


@given(st.sampled_from(ALPHABET))
def test_every_letter_reachable_in_tree(letter):
    g = TreeGrammar()
    assert letter in g.exact_match(shape_sequence(letter))


@given(st.sampled_from(ALPHABET), st.integers(min_value=0, max_value=3))
def test_prefix_always_contains_the_letter(letter, k):
    g = TreeGrammar()
    seq = shape_sequence(letter)
    prefix = seq[: min(k, len(seq))]
    assert letter in g.candidates_for_prefix(prefix)


@given(st.lists(token_st, min_size=1, max_size=4))
def test_candidates_monotone_in_prefix_length(tokens):
    g = TreeGrammar()
    prev = set(g.candidates_for_prefix(()))
    for k in range(1, len(tokens) + 1):
        current = set(g.candidates_for_prefix(tokens[:k]))
        assert current <= prev
        prev = current
