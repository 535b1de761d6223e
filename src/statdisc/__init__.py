"""Stationary holomorphic discs on hyperquadrics.

Construction and inversion of the closed-form disc family, regular
lifts and their Hilbert-transform realization, boundary matrix symbols
with exact Birkhoff partial indices and the Maslov index, and Newton
continuation of the family onto perturbed hypersurfaces.
"""

from .boundary_analysis import (
    BoundaryFunction,
    circle_nodes,
    construct_regular_lift,
    fourier,
    hilbert_transform,
    holomorphic_defect,
    synth,
    winding_number,
)
from .disc import (
    Disc,
    DiscParams,
    GluingReport,
    LiftParams,
    closed_form_lift,
    disc_through,
    invert_disc,
    make_disc,
    projectivize_lift,
    verify_gluing,
)
from .indices import (
    LaurentMatrix,
    MatrixSymbol,
    PartialIndices,
    birkhoff_partial_indices,
    build_B,
    build_G,
    maslov_index,
    partial_indices,
    toeplitz_kernel_indices,
    verify_reduction_chain,
)
from .quadric import (
    Hyperquadric,
    PerturbedHypersurface,
    PointEval,
    exists_disc_centered,
    satisfies_condition_star,
)
from .rh_solver import (
    GluedDisc,
    SolveConfig,
    center_map_jacobians,
    family_dimension,
    indicatrix_sample,
    solve_glued_disc,
    solve_with_homotopy,
    transport_jet,
)

__version__ = "0.1.0"


def kernel_backend():
    # one numpy path; kept while perfbench/run.py records it in its environment
    return "numpy"


__all__ = [
    "BoundaryFunction",
    "Disc",
    "DiscParams",
    "GluedDisc",
    "GluingReport",
    "Hyperquadric",
    "LaurentMatrix",
    "LiftParams",
    "MatrixSymbol",
    "PartialIndices",
    "PerturbedHypersurface",
    "PointEval",
    "SolveConfig",
    "birkhoff_partial_indices",
    "build_B",
    "build_G",
    "center_map_jacobians",
    "circle_nodes",
    "closed_form_lift",
    "construct_regular_lift",
    "disc_through",
    "exists_disc_centered",
    "family_dimension",
    "fourier",
    "hilbert_transform",
    "holomorphic_defect",
    "indicatrix_sample",
    "invert_disc",
    "kernel_backend",
    "make_disc",
    "maslov_index",
    "partial_indices",
    "projectivize_lift",
    "satisfies_condition_star",
    "solve_glued_disc",
    "solve_with_homotopy",
    "synth",
    "toeplitz_kernel_indices",
    "transport_jet",
    "verify_gluing",
    "verify_reduction_chain",
    "winding_number",
]
