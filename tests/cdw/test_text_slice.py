"""TextSlice widths and pieces against the decoded values.

A text column's slice answers width questions from its offsets
(:meth:`TextSlice.uniform_width` when they are evenly spaced), cuts its
values out of the blob with one struct unpack (:meth:`TextSlice.pieces`)
and finds whether any value holds some bytes (:meth:`TextSlice.free_of`).
Each answer must equal the one computed from the UTF-8 bytes of the
values, on every range and every sub-range, NULLs and empty values
included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cdw.columns import _PROGRESSION_STEP, TextColumn, TextSlice

NEEDLES = (b"|", b"\n", b"\\")


def _slice(values) -> TextSlice:
    column = TextColumn()
    column.append_many(values)
    return TextSlice(column, 0, len(values))


def _encoded(values) -> list:
    return [b"" if v is None else v.encode() for v in values]


class TestHasWidth:
    def test_all_empty_values(self):
        text = _slice(["", ""])
        assert text.has_width(0)
        assert not text.has_width(1)

    def test_empty_values_among_nulls(self):
        text = _slice(["", None, "", None])
        assert text.has_width(0)
        assert not text.has_width(2)

    def test_all_null_values_have_every_width(self):
        text = _slice([None, None])
        assert text.has_width(0) and text.has_width(3)

    def test_zero_rows(self):
        text = _slice([])
        assert text.has_width(0) and text.has_width(5)

    def test_a_value_with_bytes_has_no_zero_width(self):
        assert not _slice(["", "a", None]).has_width(0)
        assert not _slice(["ab", "cd"]).sub(1, 2).has_width(0)

    def test_non_null_widths(self):
        assert _slice(["ab", "cd", None, "ef"]).has_width(2)
        assert not _slice(["ab", "cde"]).has_width(2)


class TestUniformWidth:
    def test_uniform_width_families(self):
        cases = {
            0: ["", "", ""],
            1: ["a", "|", "\n"],
            8: ["abcdefgh", "12345678"],
            # equal characters, unequal bytes: no width in bytes.
            None: ["aé", "ab", "☃x"],
        }
        for width, values in cases.items():
            assert _slice(values).uniform_width() == width

    def test_nulls_break_a_width_unless_no_value_has_a_byte(self):
        assert _slice(["ab", None]).uniform_width() is None
        assert _slice(["", None]).uniform_width() == 0
        assert _slice([None, None]).uniform_width() == 0
        assert _slice([]).uniform_width() == 0

    def test_a_sub_of_a_sub_has_its_own_width(self):
        text = _slice(["abc", "de", "fg", "hi", "j"])
        inner = text.sub(0, 4).sub(1, 3)
        assert text.uniform_width() is None
        assert inner.uniform_width() == 2
        assert inner.pieces() == [b"de", b"fg"]
        assert inner.max_width() == 2


class TestLongSlices:
    """Slices longer than one packed compare of the offsets
    (``_PROGRESSION_STEP``): a width is a property of the whole slice,
    whichever step an uneven value falls in."""

    COUNT = 3 * _PROGRESSION_STEP + 5

    def test_an_even_long_slice_has_its_width(self):
        text = _slice(["abc"] * self.COUNT)
        assert text.uniform_width() == text.max_width() == 3
        assert text.sub(7, self.COUNT - 2).uniform_width() == 3

    @pytest.mark.parametrize("at", [0, _PROGRESSION_STEP - 1,
                                    _PROGRESSION_STEP,
                                    2 * _PROGRESSION_STEP + 1,
                                    COUNT - 1])
    def test_one_uneven_pair_anywhere_breaks_it(self, at):
        """A value one byte short and another one byte long keep the
        total of an even slice, so only the compare can tell."""
        values = ["abc"] * self.COUNT
        values[at] = "ab"
        values[(at + 1) % self.COUNT] = "abcd"
        text = _slice(values)
        assert text.uniform_width() is None
        assert text.max_width() == text.max_chars() == 4
        assert text.pieces() == _encoded(values)
        assert text.sub(1, self.COUNT).uniform_width() is None

    def test_max_chars_of_a_sub_slice_of_a_non_ascii_column(self):
        values = ["ab"] * self.COUNT + ["☃☃☃"]
        text = _slice(values)
        assert text.max_chars() == 3 and text.max_width() == 9
        assert text.sub(0, self.COUNT).max_chars() == 2


_VALUES = st.lists(st.one_of(
    st.none(),
    st.text(st.sampled_from("ab|\n\\é☃"), max_size=4),
    st.sampled_from(["", "wxyz", "wé"])), max_size=30)


@settings(max_examples=300, deadline=None)
@given(values=_VALUES, data=st.data())
def test_slices_agree_with_the_values(values, data):
    """Every range and a sub-range of it: the pieces, widths and needle
    checks equal the ones read off the values' bytes, and a gather by
    any order (repeats and omissions included) holds those values."""
    n = len(values)
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    column = TextColumn()
    column.append_many(values)
    text = TextSlice(column, lo, hi)
    start = data.draw(st.integers(0, hi - lo))
    stop = data.draw(st.integers(start, hi - lo))
    for part, want in ((text, values[lo:hi]),
                       (text.sub(start, stop), values[lo + start:
                                                      lo + stop])):
        pieces = _encoded(want)
        assert part.pieces() == pieces
        assert part.max_width() == max(map(len, pieces), default=0)
        assert part.max_chars() == max(
            [len(v) for v in want if v is not None], default=0)
        for width in {0, 1, 2, *map(len, pieces)}:
            assert part.has_width(width) == all(
                len(p) == width for p, v in zip(pieces, want)
                if v is not None)
        widths = set(map(len, pieces))
        assert part.uniform_width() == (widths.pop() if len(widths) == 1
                                        else 0 if not widths else None)
        for needles in (NEEDLES, NEEDLES[:1]):
            assert part.free_of(needles) == (not any(
                needle in piece for needle in needles for piece in pieces))
        order = data.draw(st.lists(st.integers(0, max(len(want) - 1, 0)),
                                   max_size=len(want) + 2)
                          if want else st.just([]))
        gathered = part.gather(order)
        assert gathered.to_list(0, len(order)) == [want[i] for i in order]
        assert TextSlice(gathered, 0, len(order)).pieces() == \
            [pieces[i] for i in order]
