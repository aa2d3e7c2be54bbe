"""Verified enclosure of an interval generalized Sylvester equation.

We build a random interval system A X B + C X D = F, compute a rigorous
outer enclosure of its united solution set with the diagonal-preconditioned
Krawczyk solver, and stress the result against exactly solved member
systems.
"""

import numpy as np

from sylvenc import GenSpec, generate, mkw_solve, residual_membership, sample_solutions

spec = GenSpec(family="kyc31", m=6, alpha=1e-4, seed=11)
system = generate(spec)
print("system: family", spec.family, "m =", spec.m, "alpha =", spec.alpha)

enc = mkw_solve(system)
print("verified:", enc.verified, "after", enc.iterations, "inflation step(s)")
print("mean enclosure radius: %.3e" % float(enc.evaluated.rad.mean()))

# draw member systems, solve them exactly, and confirm containment
solutions = np.stack(sample_solutions(system, n_samples=500, seed=1))
inside = int(enc.evaluated.contains_point(solutions).sum())  # one answer per sample
print(f"sampled member solutions contained: {inside}/{len(solutions)}")

# the residual predicate gives an independent membership certificate
ok = residual_membership(system, solutions[:50]).all()
print("residual membership certificate on 50 samples:", ok)

# a point far outside is rigorously excluded
far = solutions[0] + 10.0
print("far-away matrix excluded:", not residual_membership(system, far))
