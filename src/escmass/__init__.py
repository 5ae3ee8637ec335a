"""escmass: escape-of-mass experiments on locally symmetric spaces.

Exact root-system combinatorics, Iwasawa/Langlands matrix decompositions,
reduction into Siegel domains, Haar samplers for a catalog of subgroups, and
exact limit-component classifiers with Monte Carlo cross-checks.

The usual entry points are re-exported here; the submodules hold the rest:

- :mod:`escmass.qfield`   exact rationals extended by a quadratic surd
- :mod:`escmass.rootsys`  root data, Weyl chambers, faces, weights
- :mod:`escmass.lingrp`   group elements, decompositions, divergence norms
- :mod:`escmass.reduction` lattice reduction into Siegel coordinates
- :mod:`escmass.measures` subgroup samplers and empirical boundary masses
- :mod:`escmass.limits`   limit-component classifiers for the encoded cases
- :mod:`escmass.cli`      scenario files, the ``escmass`` command
"""

from .cli import load_scenario, main, run_scenario
from .limits import (
    LimitDescriptor,
    NotCoveredError,
    SequenceSpec,
    levi_translate_classify,
    ma_split,
    sequence_spec,
    sequence_translate,
    sl2r_classify,
    sl3_classify,
    unip_limit_I,
)
from .lingrp import (
    GroupElement,
    ParabolicIndex,
    group_element,
    iwasawa,
    langlands,
    verify_dalpha,
)
from .measures import (
    BoundaryHistogram,
    EmpiricalMeasure,
    SubgroupSpec,
    boundary_histogram,
    embedded_sl2,
    empirical_measure,
    format_histogram,
    full_unipotent_radical,
    levi_semisimple_nc,
    one_param_unipotent,
    product_subgroup,
    trivial_subgroup,
)
from .qfield import QMatrix, QuadNum, qmat
from .rootsys import build_type_a, locate_chamber, make_vector

__version__ = "0.1.0"

__all__ = [
    "BoundaryHistogram",
    "EmpiricalMeasure",
    "GroupElement",
    "LimitDescriptor",
    "NotCoveredError",
    "ParabolicIndex",
    "QMatrix",
    "QuadNum",
    "SequenceSpec",
    "SubgroupSpec",
    "boundary_histogram",
    "build_type_a",
    "embedded_sl2",
    "empirical_measure",
    "format_histogram",
    "full_unipotent_radical",
    "group_element",
    "iwasawa",
    "langlands",
    "levi_semisimple_nc",
    "levi_translate_classify",
    "load_scenario",
    "locate_chamber",
    "ma_split",
    "main",
    "make_vector",
    "one_param_unipotent",
    "product_subgroup",
    "qmat",
    "run_scenario",
    "sequence_spec",
    "sequence_translate",
    "sl2r_classify",
    "sl3_classify",
    "trivial_subgroup",
    "unip_limit_I",
    "verify_dalpha",
]
