import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pacsdiv import (
    PacsCode,
    YearRange,
    load_corpus,
    pacs_count_distributions,
    parse_pacs,
    weitzman_diversity,
)
from pacsdiv.corpus import _histogram
from pacsdiv.diversity import _code_count, _CodeBits, _diversity
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


# the collections the mask step takes: lists with repeats, tuples and
# sets, empty ones and singletons included, of up to 40 codes
code_collections = st.lists(st.one_of(codes, any_code), max_size=40).flatmap(
    lambda sample: st.sampled_from([sample, tuple(sample), set(sample)])
)


@given(code_collections, code_collections)
def test_mask_step_matches_the_oracles(first, second):
    bits = _CodeBits()
    mask = bits.mask(first)
    assert _diversity(mask) == block_count_diversity(first)
    if len(set(first)) <= ORACLE_SIZE_CAP:
        assert _diversity(mask) == weitzman_recursive_oracle(first)
    assert _code_count(mask) == len(set(first))
    union = mask | bits.mask(second)
    assert bits.decoder()(union) == set(first) | set(second)


def test_maximal_when_fields_disjoint():
    # one code per top-level digit: every link costs the full depth
    sample = [PacsCode(a, 0, "10") for a in range(10)]
    assert weitzman_diversity(sample) == 3 * (len(sample) - 1)


def test_minimal_within_one_subfield():
    sample = [PacsCode(0, 4, f"{i}0") for i in range(8)]
    assert weitzman_diversity(sample) == len(sample) - 1


def test_histogram_counts_and_normalizes():
    assert _histogram([0, 3, 3, 7]) == {0: 0.25, 3: 0.5, 7: 0.25}
    assert _histogram([]) == {}


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


def _author_diversity(corpus, name, window):
    return weitzman_diversity(dict(corpus.author_unions(window, cumulative=False)).get(name, set()))


def test_author_diversity_windowed(corpus_file):
    corpus = _mini_corpus(corpus_file)
    assert _author_diversity(corpus, "x", YearRange(1990, 1991)) == 0
    assert _author_diversity(corpus, "x", YearRange(1990, 1992)) == 2
    assert _author_diversity(corpus, "z", YearRange(1990, 1993)) == 0


def test_paper_diversity(corpus_file):
    corpus = _mini_corpus(corpus_file)
    assert weitzman_diversity(corpus.papers["b"].pacs) == 2
    assert weitzman_diversity(corpus.papers["c"].pacs) == 0


def test_pacs_count_distributions_excludes_zero_by_default(corpus_file):
    corpus = _mini_corpus(corpus_file)
    authors, papers = pacs_count_distributions(corpus, YearRange(1990, 1993), include_zero_pacs=False)
    assert papers == {1: 0.5, 2: 0.5}
    assert authors == {2: 1.0}


def test_pacs_count_distributions_include_zero(corpus_file):
    corpus = _mini_corpus(corpus_file)
    authors, papers = pacs_count_distributions(
        corpus, YearRange(1990, 1993), include_zero_pacs=True
    )
    assert papers == {0: pytest.approx(1 / 3), 1: pytest.approx(1 / 3), 2: pytest.approx(1 / 3)}
    assert authors == {0: pytest.approx(1 / 3), 2: pytest.approx(2 / 3)}
