"""Weitzman diversity of PACS subject codes and citation analysis.

The package measures how topically diverse papers and authors are,
using the hierarchical structure of PACS codes as an ultrametric,
and relates that diversity to citation trajectories. Codes are
compared at the first three hierarchy levels; the diversity of a set
is its Weitzman diversity, which on this ultrametric is the total branch
length of the tree the set spans.
"""

from .cohorts import (
    CITATION_KEY_SCHEME,
    SHARE_KEY_SCHEME,
    DiversityGroupScheme,
    FlowMatrix,
    SeriesEntry,
    assign_group,
    band_scheme_from_spec,
    citation_distribution_by_diversity,
    citations_by_age,
    citations_by_diversity,
    diversity_share_table,
    group_fraction_table,
    group_scheme_from_spec,
    transition_flows,
)
from .corpus import (
    AuthorId,
    Corpus,
    IngestConfig,
    IngestStats,
    PaperRecord,
    SummaryStats,
    corpus_summary,
    diversity_distributions,
    load_corpus,
    normalize_author,
    pacs_count_distributions,
    papers_with_pacs_fraction_by_year,
)
from .diversity import weitzman_diversity
from .errors import (
    ConfigError,
    DuplicateDoi,
    EmptyCohort,
    EmptyPeriod,
    FormatError,
    IoFailure,
    MalformedCode,
    OverlappingWindows,
    PacsDivError,
)
from .taxonomy import PacsCode, parse_pacs
from .years import YearRange, parse_year_range, parse_year_ranges

__version__ = "0.1.0"

__all__ = [
    "AuthorId",
    "CITATION_KEY_SCHEME",
    "ConfigError",
    "Corpus",
    "DiversityGroupScheme",
    "DuplicateDoi",
    "EmptyCohort",
    "EmptyPeriod",
    "FlowMatrix",
    "FormatError",
    "IngestConfig",
    "IngestStats",
    "IoFailure",
    "MalformedCode",
    "OverlappingWindows",
    "PacsCode",
    "PacsDivError",
    "PaperRecord",
    "SHARE_KEY_SCHEME",
    "SeriesEntry",
    "SummaryStats",
    "YearRange",
    "assign_group",
    "band_scheme_from_spec",
    "citation_distribution_by_diversity",
    "citations_by_age",
    "citations_by_diversity",
    "corpus_summary",
    "diversity_distributions",
    "diversity_share_table",
    "group_fraction_table",
    "group_scheme_from_spec",
    "load_corpus",
    "normalize_author",
    "pacs_count_distributions",
    "papers_with_pacs_fraction_by_year",
    "parse_pacs",
    "parse_year_range",
    "parse_year_ranges",
    "transition_flows",
    "weitzman_diversity",
]
