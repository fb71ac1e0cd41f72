"""The experiment pin file (``benchmarks/pins.py``) in tier-1: a moved
number fails and says where, a new table asks for the update flag, an
update rewrites only what the run printed, and last-ulp float noise is
not a move."""

import importlib.util
import os

import pytest

_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "pins.py"
)
_spec = importlib.util.spec_from_file_location("pins", _PATH)
pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pins)

TITLE = "E99: a synthetic experiment"
HEADERS = ["label", "count", "ms (sim)"]
ROWS = [("first", 3, 12.5), ("second", 4, 1.0 / 3)]


def pinned(tmp_path, *tables):
    """A pin file holding ``tables`` ((title, headers, rows) each)."""
    path = str(tmp_path / "pins.txt")
    updater = pins.Pins(path, update=True)
    for table in tables:
        updater.check(*table)
    updater.save()
    return path


def test_unchanged_table_passes(tmp_path):
    path = pinned(tmp_path, (TITLE, HEADERS, ROWS))
    pins.Pins(path).check(TITLE, HEADERS, ROWS)


def test_a_change_in_the_sixth_significant_digit_fails_naming_table_and_row(
        tmp_path):
    path = pinned(tmp_path, (TITLE, HEADERS, ROWS))
    moved = [ROWS[0], ("second", 4, 1.0 / 3 * (1 + 2e-6))]
    with pytest.raises(AssertionError) as failure:
        pins.Pins(path).check(TITLE, HEADERS, moved)
    message = str(failure.value)
    assert message.startswith(TITLE + ": row 2 differs in column 'ms (sim)': "
                              "pinned 0.333333333333, printed 0.333334\n")
    assert "'second', 4, 0.333334" in message
    assert pins.UPDATE_FLAG in message


def test_a_missing_or_extra_row_fails(tmp_path):
    path = pinned(tmp_path, (TITLE, HEADERS, ROWS))
    with pytest.raises(AssertionError,
                       match="(?s)row 2 differs.*printed: \\(no row"):
        pins.Pins(path).check(TITLE, HEADERS, ROWS[:1])
    with pytest.raises(AssertionError,
                       match="(?s)row 3 differs.*pinned:  \\(no row"):
        pins.Pins(path).check(TITLE, HEADERS, ROWS + [("third", 5, 0.0)])


def test_a_title_with_no_section_fails_and_names_the_update_flag(tmp_path):
    path = pinned(tmp_path, (TITLE, HEADERS, ROWS))
    with pytest.raises(AssertionError) as failure:
        pins.Pins(path).check("E98: unpinned", HEADERS, ROWS)
    assert "E98: unpinned: no section" in str(failure.value)
    assert pins.UPDATE_FLAG in str(failure.value)


def test_an_update_rewrites_only_the_sections_printed_in_that_run(tmp_path):
    other = ("E97: printed earlier", ["x"], [(1,), (2,)])
    path = pinned(tmp_path, (TITLE, HEADERS, ROWS), other)
    updater = pins.Pins(path, update=True)
    moved = [("first", 30, 125.0)]
    updater.check(TITLE, HEADERS, moved)
    updater.save()
    sections = pins.read_pins(path)
    assert sections[TITLE] == ["'label', 'count', 'ms (sim)'",
                               "'first', 30, 125.0"]
    assert sections["E97: printed earlier"] == ["'x'", "1", "2"]
    checker = pins.Pins(path)
    checker.check(TITLE, HEADERS, moved)
    checker.check(*other)


def test_a_last_ulp_float_difference_passes(tmp_path):
    assert 0.1 + 0.2 != 0.3
    path = pinned(tmp_path, (TITLE, ["x"], [(0.1 + 0.2,)]))
    pins.Pins(path).check(TITLE, ["x"], [(0.3,)])


def test_ints_floats_and_strings_stay_distinct():
    assert [pins.pin_cell(v) for v in (1, 1.0, "1", True, None)] == [
        "1", "1.0", "'1'", "True", "None"]


def test_a_title_printed_twice_in_one_run_fails(tmp_path):
    checker = pins.Pins(pinned(tmp_path, (TITLE, HEADERS, ROWS)))
    checker.check(TITLE, HEADERS, ROWS)
    with pytest.raises(ValueError, match="two tables titled"):
        checker.check(TITLE, HEADERS, ROWS)


def test_a_pin_file_with_a_repeated_title_is_rejected(tmp_path):
    path = tmp_path / "pins.txt"
    path.write_text("## E1: a\n'x'\n1\n\n## E1: a\n'x'\n2\n")
    with pytest.raises(ValueError, match="a second section 'E1: a'"):
        pins.read_pins(str(path))


def test_the_committed_pin_file_reads_and_writes_back_unchanged(tmp_path):
    # read_pins rejects a repeated title, so this also holds them unique.
    sections = pins.read_pins(pins.PIN_FILE)
    copy = str(tmp_path / "pins.txt")
    pins.write_pins(copy, sections)
    with open(pins.PIN_FILE) as committed, open(copy) as written:
        assert written.read() == committed.read()
