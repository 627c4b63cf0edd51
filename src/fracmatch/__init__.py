"""fracmatch: exact fractional matching numbers, certificates, and
complement-sum bound checking for small graphs.

The top level exports what the command line, the sweep harness and the
tests of the paper's claims use; everything else is imported from its
submodule (for example fracmatch.graph6.emit_edgelist)."""

from .errors import GraphFormatError, InternalInconsistencyError, PreconditionError
from .families import classify_equality_family, classify_small_alpha
from .fm import alpha_prime, berge_deficiency, canonical_fm
from .graph import Graph
from .graph6 import emit_graph6, parse_graph6
from .halfint import HalfInt
from .harness import SampleSpec, run_sweep
from .ngbounds import (
    construct_complement_fm,
    construct_complement_fm_nearquarter,
    ng_sum,
    sweep_with_rows,
)
from .partition import good_partition, verify_partition

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "HalfInt",
    "emit_graph6",
    "parse_graph6",
    "alpha_prime",
    "berge_deficiency",
    "canonical_fm",
    "good_partition",
    "verify_partition",
    "classify_equality_family",
    "classify_small_alpha",
    "ng_sum",
    "construct_complement_fm",
    "construct_complement_fm_nearquarter",
    "sweep_with_rows",
    "SampleSpec",
    "run_sweep",
    "GraphFormatError",
    "PreconditionError",
    "InternalInconsistencyError",
    "__version__",
]
