"""Standard monomial combinatorics on wonderful group compactifications.

Exact integer and rational arithmetic throughout; weights are tuples of
fundamental-weight coordinates under Bourbaki numbering of the simple roots.
"""

from __future__ import annotations

from .demazure import char_dim, demazure_character, weyl_dim
from .monomials import (
    GradedTable,
    MonomialIndex,
    basis_indices,
    graded_counts,
    is_standard_on_closure,
    nonstandard_components,
    nonstandard_orbits,
)
from .orbits import (
    OrbitLabel,
    OrbitPoset,
    SchubertPair,
    build_poset,
    closure_leq,
    dimension,
    schubert_pairs,
    stratum_components,
)
from .paths import (
    LSPath,
    PathPair,
    generate_pairs,
    generate_paths,
    initial_direction,
    root_lower,
)
from .rootsys import (
    RootSystem,
    RootSystemError,
    build,
    dominant_below,
    from_name,
    is_dominant,
)
from .verify import CheckResult, run_suite
from .weyl import WeylElement, WeylGroup, weyl_group

__version__ = "0.1.0"


__all__ = [
    "CheckResult",
    "GradedTable",
    "LSPath",
    "MonomialIndex",
    "OrbitLabel",
    "OrbitPoset",
    "PathPair",
    "RootSystem",
    "RootSystemError",
    "SchubertPair",
    "WeylElement",
    "WeylGroup",
    "basis_indices",
    "build",
    "build_poset",
    "char_dim",
    "closure_leq",
    "demazure_character",
    "dimension",
    "dominant_below",
    "from_name",
    "generate_pairs",
    "generate_paths",
    "graded_counts",
    "initial_direction",
    "is_dominant",
    "is_standard_on_closure",
    "nonstandard_components",
    "nonstandard_orbits",
    "root_lower",
    "run_suite",
    "schubert_pairs",
    "stratum_components",
    "weyl_dim",
    "weyl_group",
]
