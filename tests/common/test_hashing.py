"""Unit tests for value coding (order-preserving hash, widths, words)."""

import datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import order_preserving_hash, string_hash, value_width, word_tokens
from repro.common.hashing import hash_for_types, stable_hash


class TestOrderPreservingHash:
    def test_int_maps_to_float_value(self):
        assert order_preserving_hash(42) == 42.0

    def test_float_identity(self):
        assert order_preserving_hash(3.25) == 3.25

    def test_bool(self):
        assert order_preserving_hash(False) == 0.0
        assert order_preserving_hash(True) == 1.0

    def test_date_is_days_since_epoch(self):
        assert order_preserving_hash(datetime.date(1970, 1, 2)) == 1.0

    def test_date_ordering(self):
        early = order_preserving_hash(datetime.date(1999, 12, 31))
        late = order_preserving_hash(datetime.date(2000, 1, 1))
        assert early < late

    def test_string_ordering_basic(self):
        assert order_preserving_hash("apple") < order_preserving_hash("banana")

    def test_string_prefix_ordering(self):
        assert order_preserving_hash("ab") < order_preserving_hash("abc")

    def test_empty_string_smallest(self):
        assert order_preserving_hash("") <= order_preserving_hash("a")

    def test_bytes_supported(self):
        assert order_preserving_hash(b"aa") < order_preserving_hash(b"ab")

    def test_null_rejected(self):
        with pytest.raises(ValueError):
            order_preserving_hash(None)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            order_preserving_hash(["a", "list"])

    @given(st.integers(min_value=-(10**12), max_value=10**12), st.integers(min_value=-(10**12), max_value=10**12))
    def test_integers_preserve_order(self, a, b):
        if a < b:
            assert order_preserving_hash(a) < order_preserving_hash(b)
        elif a == b:
            assert order_preserving_hash(a) == order_preserving_hash(b)

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=6),
           st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=6))
    def test_short_ascii_strings_preserve_order(self, a, b):
        # The hash folds only a prefix; strings within the prefix length
        # must order exactly.
        ha, hb = order_preserving_hash(a), order_preserving_hash(b)
        if a < b:
            assert ha <= hb
        if ha < hb:
            assert a < b


class TestStringHash:
    def test_deterministic(self):
        assert string_hash("hello world") == string_hash("hello world")

    def test_different_strings_usually_differ(self):
        assert string_hash("hello") != string_hash("world")

    def test_bytes_and_str_agree(self):
        assert string_hash("abc") == string_hash(b"abc")

    def test_range_is_32_bit(self):
        assert 0 <= string_hash("x" * 1000) <= 0xFFFFFFFF


class TestStableHash:
    """Nothing that differs between processes may reach a hash that
    places a row: not the ``str`` salt, not where ``None`` lives."""

    def test_is_the_builtin_hash_on_null_free_numeric_keys(self):
        # So a join may bind plain ``hash`` for INT keys and still agree
        # with ``stable_hash`` about every key that holds no NULL.
        for key in [(0,), (-1,), (7, 2.5), (True, 2 ** 70), (1.0,)]:
            assert stable_hash(key) == hash(key)

    def test_strings_nulls_and_dates_take_fixed_values(self):
        assert stable_hash("abc") == string_hash("abc")
        assert stable_hash(None) == 0
        assert stable_hash((None, "abc")) == hash((0, string_hash("abc")))
        assert stable_hash(datetime.date(1970, 1, 2)) == 719164

    def test_hash_for_types(self):
        assert hash_for_types(["INT", "DOUBLE", "BOOLEAN"]) is hash
        for salted in ("VARCHAR", "LONG VARCHAR", "DATE", None):
            assert hash_for_types(["INT", salted]) is stable_hash


class TestValueWidth:
    def test_int_width_is_one(self):
        assert value_width("INT") == 1.0

    def test_real_width_matches_paper(self):
        assert value_width("REAL") == 1e-35

    def test_case_insensitive(self):
        assert value_width("int") == value_width("INT")

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            value_width("FROBNICATOR")


class TestWordTokens:
    def test_simple_split(self):
        assert word_tokens("hello world") == ["hello", "world"]

    def test_any_amount_of_whitespace(self):
        assert word_tokens("  a \t b\n\nc ") == ["a", "b", "c"]

    def test_empty(self):
        assert word_tokens("") == []

    def test_punctuation_stays_attached(self):
        # The paper's definition is whitespace-separated sequences only.
        assert word_tokens("foo, bar.") == ["foo,", "bar."]
