"""fracmatch: exact fractional matching numbers, certificates, and
complement-sum bound checking for small graphs."""

from .errors import GraphFormatError, InternalInconsistencyError, PreconditionError
from .graph import Graph, MAX_VERTICES
from .graph6 import emit_edgelist, emit_graph6, parse_edgelist, parse_graph6
from .halfint import HalfInt
from .fm import (
    BergeWitness,
    FractionalMatching,
    alpha_prime,
    berge_deficiency,
    canonical_fm,
    canonicalize_fm,
    extract_fm,
    oracle_alpha_exhaustive,
)

from .partition import (
    GoodPartition,
    PropertyReport,
    good_partition,
    partition_dump,
    verify_partition,
)

from .families import (
    FamilyLabel,
    FamilyTag,
    SmallAlphaReport,
    classify_equality_family,
    classify_small_alpha,
    small_alpha_ng,
)

from .ngbounds import (
    BoundReport,
    CaseDescriptor,
    SweepStats,
    TheoremBound,
    construct_complement_fm,
    construct_complement_fm_nearquarter,
    ng_sum,
    sweep_with_rows,
)

from .harness import (
    SampleSpec,
    enumerate_graphs,
    enumeration_count,
    resolve_workers,
    run_sweep,
    sample_graph,
    sample_graphs,
    sample_masks,
)

from .bulk import BULK_MAX_N, bulk_alpha2

from .selftest import (
    SuiteResult,
    branch_corpus,
    run_all,
    run_construction_suite,
    threshold_probe,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "MAX_VERTICES",
    "HalfInt",
    "GoodPartition",
    "PropertyReport",
    "good_partition",
    "verify_partition",
    "partition_dump",
    "FractionalMatching",
    "BergeWitness",
    "alpha_prime",
    "berge_deficiency",
    "canonical_fm",
    "canonicalize_fm",
    "extract_fm",
    "oracle_alpha_exhaustive",
    "FamilyLabel",
    "FamilyTag",
    "SmallAlphaReport",
    "classify_equality_family",
    "classify_small_alpha",
    "small_alpha_ng",
    "BoundReport",
    "TheoremBound",
    "CaseDescriptor",
    "SweepStats",
    "ng_sum",
    "construct_complement_fm",
    "construct_complement_fm_nearquarter",
    "sweep_with_rows",
    "SampleSpec",
    "enumerate_graphs",
    "enumeration_count",
    "sample_graph",
    "sample_graphs",
    "sample_masks",
    "run_sweep",
    "resolve_workers",
    "BULK_MAX_N",
    "bulk_alpha2",
    "SuiteResult",
    "run_all",
    "run_construction_suite",
    "branch_corpus",
    "threshold_probe",
    "emit_graph6",
    "parse_graph6",
    "emit_edgelist",
    "parse_edgelist",
    "GraphFormatError",
    "PreconditionError",
    "InternalInconsistencyError",
    "__version__",
]
