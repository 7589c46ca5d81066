import random

import pytest
from hypothesis import given, strategies as st

from pacsdiv import MalformedCode, PacsCode, parse_pacs
from helpers import build_tree_lca, distance, lca_level

level3 = st.tuples(st.integers(0, 9), st.integers(0, 4)).map(lambda t: f"{t[0]}{t[1]}")
codes = st.builds(PacsCode, st.integers(0, 3), st.integers(0, 2), level3)


def c(text):
    return parse_pacs(text)


def test_parse_truncates_to_level_three():
    assert parse_pacs("04.25.dg").text == "04.25"
    assert parse_pacs("04.25.-w").text == "04.25"
    assert parse_pacs("04.25").text == "04.25"


def test_parse_strips_whitespace():
    assert parse_pacs("  04.30.-w \n").text == "04.30"


def test_parse_fields():
    code = parse_pacs("64.70.P-")
    assert (code.level1, code.level2, code.level3) == (6, 4, "70")
    assert str(code) == "64.70"


@pytest.mark.parametrize(
    "bad", ["", "4.25", "04-25", "0a.25", "04.2", "04.x5", "ab.cd", "04:25", ".4.25"]
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(MalformedCode):
        parse_pacs(bad)


def test_constructor_validates():
    with pytest.raises(MalformedCode):
        PacsCode(10, 0, "25")
    with pytest.raises(MalformedCode):
        PacsCode(0, 4, "2x")


def test_every_way_to_build_a_code_validates():
    with pytest.raises(MalformedCode):
        PacsCode._make((10, 0, "25"))
    with pytest.raises(MalformedCode):
        parse_pacs("04.25")._replace(level3="2x")
    assert parse_pacs("04.25")._replace(level3="30") == parse_pacs("04.30")


def _every_code():
    return [PacsCode(a, b, f"{c}{d}") for a in range(10) for b in range(10) for c in range(10) for d in range(10)]


def test_codes_sort_by_their_levels():
    every = _every_code()
    assert len(set(every)) == 10_000
    shuffled = every[:]
    random.Random(8).shuffle(shuffled)
    assert sorted(shuffled) == sorted(shuffled, key=lambda c: (c.level1, c.level2, c.level3)) == every


def test_code_is_its_plain_tuple():
    for code in _every_code():
        plain = (code.level1, code.level2, code.level3)
        assert code == plain and hash(code) == hash(plain)
        assert parse_pacs(code.text) == code


def test_truncated_variants_are_one_code():
    left, right = parse_pacs("04.25.dg"), parse_pacs("04.25.-g")
    assert left == right and hash(left) == hash(right)
    assert len({left, right}) == 1


def test_code_is_immutable():
    code = parse_pacs("04.25.dg")
    for name in ("level1", "level3", "extra"):
        with pytest.raises(AttributeError):
            setattr(code, name, 1)
    assert code == PacsCode(0, 4, "25")


def test_code_repr():
    assert repr(parse_pacs("64.70.P-")) == "PacsCode(level1=6, level2=4, level3='70')"


def test_distance_examples():
    assert distance(c("04.25"), c("04.25")) == 0
    assert distance(c("04.25"), c("04.30")) == 1
    assert distance(c("04.25"), c("07.05")) == 2
    assert distance(c("04.25"), c("11.15")) == 3


def test_lca_level_examples():
    assert lca_level(c("04.25"), c("04.25")) == 3
    assert lca_level(c("04.25"), c("04.30")) == 2
    assert lca_level(c("04.25"), c("07.05")) == 1
    assert lca_level(c("04.25"), c("11.15")) == 0


@given(codes, codes)
def test_distance_symmetric(u, v):
    assert distance(u, v) == distance(v, u)


@given(codes, codes)
def test_distance_zero_iff_equal(u, v):
    assert (distance(u, v) == 0) == (u == v)


@given(codes, codes)
def test_distance_range(u, v):
    assert distance(u, v) in (0, 1, 2, 3)


@given(codes, codes, codes)
def test_ultrametric_inequality(u, v, w):
    assert distance(u, w) <= max(distance(u, v), distance(v, w))


@given(st.lists(codes, min_size=2, max_size=12, unique=True))
def test_prefix_lca_matches_explicit_tree(sample):
    tree_depth = build_tree_lca(sample)
    for u in sample:
        for v in sample:
            assert lca_level(u, v) == tree_depth(u, v)
