"""fracmatch: exact fractional matching numbers, certificates, and
complement-sum bound checking for small graphs.

The top level exports what the command line, the sweep harness and the
tests of the paper's claims use; everything else is imported from its
submodule (for example fracmatch.graph6.emit_edgelist).

Exports resolve on first access (PEP 562): `import fracmatch` loads no
submodule, and reading fracmatch.<name> imports only the module that
defines it, so a sweep never loads the certificate layers."""

from importlib import import_module

__version__ = "0.1.0"

# The submodule that defines each exported name, in the order of __all__.
_DEFINED_IN = {
    "graph": ("Graph",),
    "halfint": ("HalfInt",),
    "graph6": ("emit_graph6", "parse_graph6"),
    "fm": ("alpha_prime", "berge_deficiency", "canonical_fm"),
    "partition": ("good_partition", "verify_partition"),
    "families": ("classify_equality_family", "classify_small_alpha"),
    "ngbounds": ("ng_sum", "construct_complement_fm", "construct_complement_fm_nearquarter",
                 "sweep_with_rows"),
    "harness": ("SampleSpec", "run_sweep"),
    "errors": ("GraphFormatError", "PreconditionError", "InternalInconsistencyError"),
}
_EXPORTS = {name: module for module, names in _DEFINED_IN.items() for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # uncached, so that a name follows a test's or a tracer's rebinding
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
