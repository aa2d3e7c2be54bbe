"""Tightening an enclosure with the residual-division iteration.

Started from the box ``Xtilde + H`` that the Krawczyk solver back-transforms,
each step bounds the coupling terms, divides by the diagonal denominators,
and intersects with the previous iterate.  The iterates form a nested chain,
and each entry reports the narrowest of three valid disks, so refinement is
never wider than the Krawczyk enclosure.  The steps below start instead from
the wider verification box ``Xtilde + X``, where the nesting is easy to see.
"""

from sylvenc import GenSpec, gamma_step, generate, itr_solve, mkw_solve
from sylvenc.intervals import as_imatrix, disks_to_rect, rect_to_disks

system = generate(GenSpec(family="kyc31", m=8, alpha=1e-5, seed=3))

base = mkw_solve(system)
print("initial verified box, total radius %.6e" % float(base.evaluated.rad.sum()))

refined = itr_solve(system, initial=base)
print(
    "refined in %d step(s), total radius %.6e"
    % (refined.iterations, float(refined.evaluated.rad.sum()))
)
print("width ratio refined/initial: %.6f" % (
    float(refined.evaluated.rad.sum()) / float(base.evaluated.rad.sum())
))

# watch the nesting directly
Y = disks_to_rect(as_imatrix(base.Xtilde) + base.Xbox)
for k in range(4):
    Ynext = gamma_step(base.precond, Y)
    assert Ynext.subset_of(Y)
    print(
        "step %d: sum of rectangle half-widths %.6e (nested: True)"
        % (k + 1, float(rect_to_disks(Ynext).rad.sum()))
    )
    Y = Ynext
