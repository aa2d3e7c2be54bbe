"""Request corpora of the benchmark workloads.

Every workload is a fixed list of systems.  The run's seed relabels the
unknowns of each system by a random row permutation ``p`` and column
permutation ``q`` (``X'[i, j] = X[p[i], q[j]]``), which maps the system to
one with the same spectra, conditioning and solution set up to relabeling.
So each seed hands the library different input bytes, while widths, iteration
counts and verification outcomes stay those of the corpus up to rounding; the
seed also drives every sampled member system of the audits.

A request is one enclosure request: a system plus the plan of solver calls
the workload makes for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

import sylvenc
from sylvenc import FAMILIES, GenSpec, IMatrix, SylvesterSystem

ALPHA = 1e-6
JORDAN_RAD = 1e-8

# plans: which solvers a request runs, in order
PLAN_REFINE = "mkw+itr"          # mkw, then itr from mkw's box when mkw verified
PLAN_FALLBACK = "mkw|blk"        # mkw, then blk when mkw did not verify
PLAN_ORACLE = "mkw+itr+ver"      # mkw, itr from its box, and the dense oracle

# where audit members come from
MEMBERS_OWN = "own"              # benchmark's O(m^3) solver, drawn before timing
MEMBERS_PRE = "pre"              # sample_solutions, drawn before timing
MEMBERS_PASS = "pass"            # sample_solutions, drawn inside every timed pass


@dataclass(frozen=True)
class SystemSpec:
    """One corpus entry; ``expect_verified`` is the request's known outcome."""

    family: str
    m: int
    gen_seed: int
    samples: int
    expect_verified: bool = True

    @property
    def label(self) -> str:
        return f"{self.family}/m{self.m}/s{self.gen_seed}"


@dataclass(frozen=True)
class Workload:
    name: str
    plan: str
    members: str
    specs: tuple[SystemSpec, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="diag-400",
            plan=PLAN_REFINE,
            members=MEMBERS_OWN,
            specs=(
                SystemSpec("kyc31", 400, 0, 2),
                SystemSpec("sylvester32", 400, 0, 2),
                SystemSpec("gallery33", 400, 0, 2),
                # known honest failure: mkw does not verify this system
                SystemSpec("kyc31", 400, 2, 2, expect_verified=False),
            ),
        ),
        Workload(
            name="block-defective",
            plan=PLAN_FALLBACK,
            members=MEMBERS_PRE,
            specs=tuple(SystemSpec("jordan", m, s, 2) for m in (32, 48) for s in (0, 1)),
        ),
        Workload(
            name="audit-small",
            plan=PLAN_ORACLE,
            members=MEMBERS_PASS,
            specs=tuple(
                SystemSpec(fam, m, 0, k) for m, k in ((32, 8), (8, 500)) for fam in FAMILIES
            ),
        ),
    )
}


def jordan_system(m: int, seed: int) -> SylvesterSystem:
    """Defective-midpoint system ``A X B + X = F`` with 2x2 Jordan blocks in A.

    ``mid A = Q J Q^T`` for a seeded orthogonal ``Q`` and ``J`` made of
    ``m/2`` Jordan blocks (``m`` even) with eigenvalues spread over [1, 3]; ``mid B`` is
    diagonal with entries in [1, 2]; C = D = I.  A, B and F carry radius
    ``JORDAN_RAD`` in every entry.  No diagonalizing basis exists for
    ``mid A``, which is what the block-triangular solver is for.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    k = m // 2
    lam = np.linspace(1.0, 3.0, k) + 0.01 * rng.uniform(-1.0, 1.0, k)
    J = np.zeros((m, m))
    idx = np.arange(k)
    J[2 * idx, 2 * idx] = lam
    J[2 * idx + 1, 2 * idx + 1] = lam
    J[2 * idx, 2 * idx + 1] = 1.0
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    mu = rng.uniform(1.0, 2.0, m)
    F = rng.uniform(0.5, 1.5, (m, m))
    rad = np.full((m, m), JORDAN_RAD)
    eye = IMatrix(np.eye(m))
    return SylvesterSystem(
        A=IMatrix(Q @ J @ Q.T, rad), B=IMatrix(np.diag(mu), rad), C=eye, D=eye, F=IMatrix(F, rad)
    )


def base_system(spec: SystemSpec) -> SylvesterSystem:
    if spec.family == "jordan":
        return jordan_system(spec.m, spec.gen_seed)
    # looked up at call time so that a traced run sees the call
    return sylvenc.generate(GenSpec(family=spec.family, m=spec.m, alpha=ALPHA, seed=spec.gen_seed))


def relabel(sys: SylvesterSystem, p: np.ndarray, q: np.ndarray) -> SylvesterSystem:
    """The system whose solutions are ``X[p][:, q]`` for solutions X of ``sys``."""

    def take(x: IMatrix, rows: np.ndarray, cols: np.ndarray) -> IMatrix:
        ix = np.ix_(rows, cols)
        return IMatrix(x.mid[ix], x.rad[ix])

    return SylvesterSystem(
        A=take(sys.A, p, p),
        B=take(sys.B, q, q),
        C=take(sys.C, p, p),
        D=take(sys.D, q, q),
        F=take(sys.F, p, q),
    )


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one (run seed, purpose, index) key."""
    return np.random.default_rng([seed, *key])


def stream_int(seed: int, *key: int) -> int:
    """Integer seed for library calls that take one (``sample_solutions``)."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def build_corpus(workload: Workload, seed: int) -> list[SylvesterSystem]:
    """The workload's systems, relabeled by the run seed."""
    out = []
    for i, spec in enumerate(workload.specs):
        rng = stream(seed, 0, i)
        out.append(relabel(base_system(spec), rng.permutation(spec.m), rng.permutation(spec.m)))
    return out


def draw_member(sys: SylvesterSystem, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Point coefficients (A, B, C, D, F), each entry uniform in its (real) interval."""
    mats = (sys.A, sys.B, sys.C, sys.D, sys.F)
    return tuple(x.mid + x.rad * rng.uniform(-1.0, 1.0, size=x.shape) for x in mats)


def member_solution(A, B, C, D, F) -> np.ndarray:
    """Solution of the point equation ``A X B + C X D = F`` in O(m^3 + n^3).

    Reduces to ``(C^-1 A) X + X (D B^-1) = C^-1 F B^-1`` and solves that
    standard Sylvester equation by Bartels-Stewart.
    """
    a = np.linalg.solve(C, A)
    b = np.linalg.solve(B.T, D.T).T
    q = np.linalg.solve(C, np.linalg.solve(B.T, F.T).T)
    return scipy.linalg.solve_sylvester(a, b, q)
