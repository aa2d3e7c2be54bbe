"""Block-triangular fallback for defective midpoints.

The diagonal preconditioner needs an eigenvector basis of the midpoint
coefficients.  When that basis is ill conditioned (defective or clustered
eigenvalues), the Schur-based block solver groups the troublesome
eigenvalues into small triangular blocks and still delivers a verified
enclosure.
"""

import numpy as np

from sylvenc import (
    EnclosureError,
    IMatrix,
    SylvesterSystem,
    mkw_block_solve,
    mkw_solve,
    sample_solutions,
)

# midpoint of A is a 2x2 Jordan block: one eigenvector for two eigenvalues
A = IMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]), np.full((2, 2), 1e-8))
B = IMatrix(np.eye(2))
C = IMatrix(np.eye(2))
D = IMatrix(np.diag([2.0, 3.0]), np.full((2, 2), 1e-8))
X_true = np.array([[1.0, 2.0], [3.0, 4.0]])
F = IMatrix(A.mid @ X_true @ B.mid + C.mid @ X_true @ D.mid, np.full((2, 2), 1e-8))
system = SylvesterSystem(A=A, B=B, C=C, D=D, F=F)

try:
    enc = mkw_solve(system)
    print("diagonal solver verified:", enc.verified)
except EnclosureError as exc:
    print("diagonal solver failed:", exc)

blk = mkw_block_solve(system)
print("block solver verified:", blk.verified)
print("block sizes on the left side:", blk.blockform.a_sizes)
print("total radius: %.3e" % float(blk.evaluated.rad.sum()))

solutions = np.stack(sample_solutions(system, n_samples=200, seed=4))
inside = int(blk.evaluated.contains_point(solutions).sum())  # one answer per sample
print(f"sampled member solutions contained: {inside}/{len(solutions)}")
