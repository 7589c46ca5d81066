import pytest

from pacsdiv import ConfigError, YearRange, parse_year_range, parse_year_ranges


def test_long_form():
    assert parse_year_range("1985-1990") == YearRange(1985, 1990)


def test_short_form_same_century():
    assert parse_year_range("1985-90") == YearRange(1985, 1990)


def test_short_form_century_roll():
    # a two-digit end is the first later year ending in those digits,
    # however far: a swapped short form reaches into the next century
    assert parse_year_range("1995-00") == YearRange(1995, 2000)
    assert parse_year_range("2098-02") == YearRange(2098, 2102)
    assert parse_year_range("1995-90") == YearRange(1995, 2090)


def test_half_open_membership():
    window = YearRange(1985, 1990)
    assert 1985 in window
    assert 1989 in window
    assert 1990 not in window
    assert 1984 not in window


def test_label():
    assert YearRange(1985, 1990).label == "1985-1990"


@pytest.mark.parametrize(
    "bad",
    [
        "1990", "1990-1990", "1995-1990", "abc-1990", "1990-xyz", "",
        # a one-digit end year is no short form; a year is ASCII digits only
        "1990-5", "1_985-1_990", "+1985-90", "\u0661\u0669\u0668\u0665-\u0661\u0669\u0669\u0660", "1990 - 1995",
    ],
)
def test_rejects_bad_ranges(bad):
    with pytest.raises(ConfigError):
        parse_year_range(bad)


@pytest.mark.parametrize("text", ["1990-005", "1990-0995", "1995-1990"])
def test_reversed_range_names_the_text_given(text):
    # not the range its years parse to, such as 1990-5 for 1990-005
    with pytest.raises(ConfigError, match=f"^bad year range '{text}': start must be before end$"):
        parse_year_range(text)


def test_parse_list():
    ranges = parse_year_ranges("1985-90,1990-95, 1995-00")
    assert [r.label for r in ranges] == ["1985-1990", "1990-1995", "1995-2000"]


def test_parse_list_rejects_empty():
    with pytest.raises(ConfigError):
        parse_year_ranges(" , ")
