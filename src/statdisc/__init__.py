"""Stationary holomorphic discs on hyperquadrics.

Construction and inversion of the closed-form disc family, regular
lifts and their Hilbert-transform realization, boundary matrix symbols
with exact Birkhoff partial indices and the Maslov index, and Newton
continuation of the family onto perturbed hypersurfaces.

`import statdisc` loads none of the submodules: reading a public name
looks it up in `_EXPORTS` (PEP 562 `__getattr__`) and imports only its
submodule.  The result is not stored here, so `statdisc.X` is always the
submodule's current `X`, also while a test or the benchmark's tracer
has replaced it.
"""

import importlib

# every submodule needs numpy, and the benchmark reads numpy's share of
# `import statdisc` from the `-X importtime` tree of this import
import numpy  # noqa: F401

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "boundary_analysis": (
            "circle_nodes",
            "construct_regular_lift",
            "hilbert_transform",
            "holomorphic_defect",
            "winding_number",
        ),
        "disc": (
            "ClosedFormLift",
            "Disc",
            "DiscParams",
            "GluingReport",
            "LiftParams",
            "disc_through",
            "invert_disc",
            "make_disc",
            "projectivize_lift",
            "verify_gluing",
        ),
        "indices": (
            "LaurentMatrix",
            "MatrixSymbol",
            "PartialIndices",
            "birkhoff_partial_indices",
            "build_B",
            "build_G",
            "maslov_index",
            "partial_indices",
            "toeplitz_kernel_indices",
            "verify_reduction_chain",
        ),
        "quadric": (
            "Hyperquadric",
            "PerturbedHypersurface",
            "exists_disc_centered",
            "satisfies_condition_star",
        ),
        "rh_solver": (
            "GluedDisc",
            "SolveConfig",
            "center_map_jacobians",
            "family_dimension",
            "indicatrix_sample",
            "solve_glued_disc",
            "solve_with_homotopy",
            "transport_jet",
        ),
    }.items()
    for name in names
}

__all__ = sorted([*_EXPORTS, "kernel_backend"])


def kernel_backend():
    # one numpy path; kept while perfbench/run.py records it in its environment
    return "numpy"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        # also the fall-through of `from statdisc import <submodule>`
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return __all__
