import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pacsdiv import (
    PacsCode,
    UnknownAuthor,
    YearRange,
    author_diversity,
    diversity_histogram,
    load_corpus,
    pacs_count_distributions,
    paper_diversity,
    parse_pacs,
    weitzman_diversity,
)
from conftest import paper
from helpers import (
    ORACLE_SIZE_CAP,
    SetTooLarge,
    block_count_diversity,
    greedy_insertion_sum,
    weitzman_permutation_oracle,
    weitzman_recursive_oracle,
)

level3 = st.tuples(st.integers(0, 9), st.integers(0, 4)).map(lambda t: f"{t[0]}{t[1]}")
codes = st.builds(PacsCode, st.integers(0, 3), st.integers(0, 2), level3)
# the full level-3 code space, for unions as large as real author histories
any_code = st.builds(
    PacsCode,
    st.integers(0, 9),
    st.integers(0, 9),
    st.integers(0, 99).map(lambda i: f"{i:02d}"),
)


def cs(*texts):
    return [parse_pacs(t) for t in texts]


def test_worked_example():
    assert weitzman_diversity(cs("04.25.dg", "07.05.Fb", "04.30.-w")) == 3


def test_worked_example_via_both_oracles():
    codes = cs("04.25", "07.05", "04.30")
    assert weitzman_recursive_oracle(codes) == 3
    assert weitzman_permutation_oracle(codes) == 3


def test_four_code_example():
    codes = cs("04.25", "04.30", "04.40", "11.15")
    assert weitzman_diversity(codes) == 5
    assert weitzman_permutation_oracle(codes) == 5


def test_trivial_sets():
    assert weitzman_diversity([]) == 0
    assert weitzman_diversity(cs("04.25")) == 0
    assert weitzman_diversity(cs("04.25", "04.25.dg")) == 0


def test_pair_diversity_is_distance():
    assert weitzman_diversity(cs("04.25", "07.05")) == 2
    assert weitzman_diversity(cs("04.25", "04.30")) == 1
    assert weitzman_diversity(cs("04.25", "11.15")) == 3


def test_oracles_reject_oversized_sets():
    big = [PacsCode(a, b, "10") for a in range(4) for b in range(3)]
    assert len(big) == ORACLE_SIZE_CAP + 2
    with pytest.raises(SetTooLarge):
        weitzman_recursive_oracle(big)
    with pytest.raises(SetTooLarge):
        weitzman_permutation_oracle(big[: ORACLE_SIZE_CAP - 1])


@given(st.lists(codes, min_size=0, max_size=6))
def test_three_way_oracle_agreement(sample):
    greedy = weitzman_diversity(sample)
    assert greedy == weitzman_recursive_oracle(sample)
    assert greedy == weitzman_permutation_oracle(sample)


@given(st.lists(codes, min_size=0, max_size=40))
def test_greedy_matches_block_counting(sample):
    assert weitzman_diversity(sample) == block_count_diversity(sample)


@settings(max_examples=60, deadline=None)
@given(
    # a drawn exact size: plain st.lists rarely goes past a dozen elements
    st.integers(0, 300).flatmap(lambda n: st.lists(any_code, min_size=n, max_size=n)),
    st.randoms(),
)
def test_large_sets_match_greedy(sample, rng):
    shuffled = list(sample)
    rng.shuffle(shuffled)
    assert weitzman_diversity(sample) == greedy_insertion_sum(shuffled)


@given(st.lists(codes, min_size=2, max_size=5, unique=True))
def test_insertion_order_invariance_exhaustive(sample):
    # every insertion order, replayed through an unsorted greedy
    results = {
        greedy_insertion_sum(perm) for perm in itertools.permutations(sample)
    }
    assert results == {weitzman_diversity(sample)}


@given(st.lists(codes, min_size=0, max_size=30), st.randoms())
def test_shuffled_insertion_matches_canonical(sample, rng):
    shuffled = list(sample)
    rng.shuffle(shuffled)
    assert greedy_insertion_sum(shuffled) == weitzman_diversity(sample)


@given(st.lists(codes, min_size=1, max_size=12, unique=True), codes)
def test_monotone_under_insertion(sample, extra):
    assert weitzman_diversity(sample + [extra]) >= weitzman_diversity(sample)


@given(st.lists(codes, min_size=1, max_size=20, unique=True))
def test_bounds(sample):
    d = weitzman_diversity(sample)
    assert 0 <= d <= 3 * (len(sample) - 1)


def test_maximal_when_fields_disjoint():
    # one code per top-level digit: every link costs the full depth
    sample = [PacsCode(a, 0, "10") for a in range(10)]
    assert weitzman_diversity(sample) == 3 * (len(sample) - 1)


def test_minimal_within_one_subfield():
    sample = [PacsCode(0, 4, f"{i}0") for i in range(8)]
    assert weitzman_diversity(sample) == len(sample) - 1


def test_histogram_counts_and_normalizes():
    assert diversity_histogram([0, 3, 3, 7]) == {0: 1, 3: 2, 7: 1}
    normalized = diversity_histogram([0, 3, 3, 7], normalize=True)
    assert normalized == {0: 0.25, 3: 0.5, 7: 0.25}
    assert diversity_histogram([]) == {}


def _mini_corpus(corpus_file):
    return load_corpus(
        corpus_file(
            [
                paper("a", 1990, ["x"], ["04.25.dg"]),
                paper("b", 1991, ["x", "y"], ["04.25.dg", "07.05.Fb"]),
                paper("c", 1992, ["y", "z"], []),
            ]
        )
    )


def test_author_diversity_windowed(corpus_file):
    corpus = _mini_corpus(corpus_file)
    assert author_diversity("x", corpus, YearRange(1990, 1991)) == 0
    assert author_diversity("x", corpus, YearRange(1990, 1992)) == 2
    assert author_diversity("z", corpus, YearRange(1990, 1993)) == 0


def test_author_diversity_unknown_author(corpus_file):
    corpus = _mini_corpus(corpus_file)
    with pytest.raises(UnknownAuthor):
        author_diversity("nobody", corpus, YearRange(1990, 1993))


def test_paper_diversity(corpus_file):
    corpus = _mini_corpus(corpus_file)
    assert paper_diversity(corpus.papers["b"]) == 2
    assert paper_diversity(corpus.papers["c"]) == 0


def test_pacs_count_distributions_excludes_zero_by_default(corpus_file):
    corpus = _mini_corpus(corpus_file)
    authors, papers = pacs_count_distributions(corpus, YearRange(1990, 1993))
    assert papers == {1: 0.5, 2: 0.5}
    assert authors == {2: 1.0}


def test_pacs_count_distributions_include_zero(corpus_file):
    corpus = _mini_corpus(corpus_file)
    authors, papers = pacs_count_distributions(
        corpus, YearRange(1990, 1993), include_zero_pacs=True
    )
    assert papers == {0: pytest.approx(1 / 3), 1: pytest.approx(1 / 3), 2: pytest.approx(1 / 3)}
    assert authors == {0: pytest.approx(1 / 3), 2: pytest.approx(2 / 3)}
