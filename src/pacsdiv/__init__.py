"""Weitzman diversity of PACS subject codes and citation analysis.

The package measures how topically diverse papers and authors are,
using the hierarchical structure of PACS codes as an ultrametric,
and relates that diversity to citation trajectories. Codes are
compared at the first three hierarchy levels; the diversity of a set
is its Weitzman diversity, which on this ultrametric is the total branch
length of the tree the set spans.
"""

from .cohorts import *
from .corpus import *
from .diversity import *
from .errors import *
from .taxonomy import *
from .years import *

__version__ = "0.1.0"

# each public name is declared once, in its module's __all__; importing a
# submodule also binds its name here
__all__ = [*cohorts.__all__, *corpus.__all__, *diversity.__all__, *errors.__all__, *taxonomy.__all__, *years.__all__]
