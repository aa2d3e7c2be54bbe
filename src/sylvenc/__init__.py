"""Verified outer enclosures for interval generalized Sylvester equations.

Given interval (or complex disk) coefficient matrices, the library computes
interval matrices guaranteed to contain every solution of every member
point equation A X B + C X D = F.  The main entry points:

* :func:`mkw_solve` - diagonal preconditioning plus a Krawczyk verification
  loop; cost grows with the cubes of the side lengths.
* :func:`itr_solve` - iterative residual-division refinement of a verified
  start box.
* :func:`mkw_block_solve` - block-triangular fallback for defective or
  badly conditioned midpoints.
* :func:`full_krawczyk_solve` - dense reference on the Kronecker normal
  form, for cross-checking on small problems.

Problem generators, sampling audits, serialization, and a benchmark driver
round out the toolkit; the ``sylvenc`` console script exposes them.
"""

from .baseline import (
    BASELINE_CAP,
    KronSystem,
    build_Q_kron,
    full_krawczyk_solve,
    point_solve,
    residual_membership,
    sample_solutions,
)
from .bench import BenchRecord, SoundnessViolation, compute_metrics, run_benchmark
from .blockdiag import (
    block_diagonalize,
    interval_back_substitute,
    mkw_block_solve,
)
from .errors import (
    EigenDecompositionError,
    EnclosureError,
    InconsistentEnclosureError,
    IntervalOverflowError,
    NoInitialEnclosureError,
    SingularMatrixError,
    SingularPreconditionerError,
    SizeCapError,
)
from .intervals import (
    IMatrix,
    Rect,
    as_imatrix,
    disks_to_rect,
    epsilon_inflate,
    im_matmul,
    in_interior,
    rect_to_disks,
)
from .krawczyk import Enclosure, mkw_solve
from .linalg import eig_decompose, inverse_enclosure, kron, unvec, vec
from .precond import PrecondSystem, transform_enclose
from .problems import (
    FAMILIES,
    GenSpec,
    gen_gallery_example,
    gen_random_example,
    generate,
    lehmer,
    parter,
)
from .refine import GammaState, gamma_step, itr_solve
from .serialize import (
    dump_json,
    enclosure_from_dict,
    enclosure_to_dict,
    imatrix_from_dict,
    imatrix_to_dict,
    load_json,
    pmatrix_from_dict,
    pmatrix_to_dict,
    system_from_dict,
    system_to_dict,
)
from .system import SylvesterSystem

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # interval core
    "IMatrix",
    "Rect",
    "as_imatrix",
    "im_matmul",
    "in_interior",
    "epsilon_inflate",
    "disks_to_rect",
    "rect_to_disks",
    # linear algebra
    "eig_decompose",
    "inverse_enclosure",
    "kron",
    "vec",
    "unvec",
    # systems and solvers
    "SylvesterSystem",
    "PrecondSystem",
    "transform_enclose",
    "Enclosure",
    "mkw_solve",
    "block_diagonalize",
    "interval_back_substitute",
    "mkw_block_solve",
    "GammaState",
    "gamma_step",
    "itr_solve",
    # baseline and audits
    "KronSystem",
    "BASELINE_CAP",
    "build_Q_kron",
    "full_krawczyk_solve",
    "point_solve",
    "sample_solutions",
    "residual_membership",
    # harness
    "FAMILIES",
    "GenSpec",
    "generate",
    "gen_random_example",
    "gen_gallery_example",
    "parter",
    "lehmer",
    "BenchRecord",
    "SoundnessViolation",
    "compute_metrics",
    "run_benchmark",
    # serialization
    "imatrix_to_dict",
    "imatrix_from_dict",
    "pmatrix_to_dict",
    "pmatrix_from_dict",
    "system_to_dict",
    "system_from_dict",
    "enclosure_to_dict",
    "enclosure_from_dict",
    "dump_json",
    "load_json",
    # errors
    "EnclosureError",
    "IntervalOverflowError",
    "SingularMatrixError",
    "SingularPreconditionerError",
    "EigenDecompositionError",
    "InconsistentEnclosureError",
    "SizeCapError",
    "NoInitialEnclosureError",
]
