"""Seeded input generators for the four benchmark workloads.

Everything the library receives is built here from a `random.Random`
seeded by the workload name and the run seed, so the same seed gives
byte-identical inputs on every commit.  Nothing is imported from the
repository's test suite.
"""

import itertools
import random
from fractions import Fraction

from chiraltorus import (
    AltTensor,
    CdoIsoClass,
    DiffPoly,
    ExactScalar,
    NondegClass,
    RationalMatrix,
    SingularMatrix,
    TdoIsoClass,
    torus_lagrangian,
)

S = ExactScalar


def make_rng(workload: str, seed: int) -> random.Random:
    # a str seed is hashed with sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


# ----------------------------------------------------------------------
# scalars and matrices
# ----------------------------------------------------------------------

def gaussian_scalar(rng, den=6) -> ExactScalar:
    return S(
        Fraction(rng.randint(-8, 8), rng.randint(1, den)),
        Fraction(rng.randint(-8, 8), rng.randint(1, den)),
    )


def real_rational(rng) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4)))


def invertible_matrix(rng, n, entry) -> RationalMatrix:
    """A random n x n matrix with entries from entry(rng); singular draws
    are detected exactly and redrawn."""
    while True:
        m = RationalMatrix([[entry(rng) for _ in range(n)] for _ in range(n)])
        if not m.det().is_zero():
            return m


def alt_tensor(rng, k, n, valdim=None) -> AltTensor:
    coeffs = {}
    for key in itertools.combinations(range(1, n + 1), k):
        if valdim is None:
            coeffs[key] = gaussian_scalar(rng)
        else:
            coeffs[key] = [gaussian_scalar(rng) for _ in range(valdim)]
    return AltTensor(k, n, coeffs, valdim)


# ----------------------------------------------------------------------
# fm_transform: nondegenerate mu with CDO and TDO classes
# ----------------------------------------------------------------------

def nondeg_class(rng, n) -> NondegClass:
    # NondegClass takes the determinant itself and rejects a singular draw
    while True:
        rows = [[gaussian_scalar(rng) for _ in range(n)] for _ in range(n)]
        try:
            return NondegClass(RationalMatrix(rows))
        except SingularMatrix:
            continue


def cdo_class(rng, n) -> CdoIsoClass:
    # below dimension 3 there are no 3-tensor keys, but the type wants one
    lam = alt_tensor(rng, 3, n) if n >= 3 else AltTensor(3, n, {})
    return CdoIsoClass(n, lam, alt_tensor(rng, 2, n, valdim=n))


def tdo_class(rng, n) -> TdoIsoClass:
    c = RationalMatrix([[gaussian_scalar(rng) for _ in range(n)] for _ in range(n)])
    return TdoIsoClass(c, alt_tensor(rng, 2, n))


# ----------------------------------------------------------------------
# mode_algebra: densities and torus Lagrangians
# ----------------------------------------------------------------------

def density(rng, nfields, max_order, maxterms=2, maxfactors=2) -> DiffPoly:
    """A random polynomial density in the x/p jets up to sigma-order
    max_order, some terms carrying an e(m) Fourier factor.

    The order bound keeps every item short: under the constant twist,
    one random triple in fifty at order 2 took 16 s on its own.
    """
    out = DiffPoly.zero()
    for _ in range(rng.randint(1, maxterms)):
        mono = DiffPoly.const(gaussian_scalar(rng))
        if rng.random() < 0.5:
            mono = mono * DiffPoly.trig(rng.randint(-2, 2))
        for _ in range(rng.randint(1, maxfactors)):
            i = rng.randint(1, nfields)
            mono = mono * DiffPoly.jet(i, rng.choice((0, 1)), rng.randint(0, max_order))
        out = out + mono
    return out


def metric_rows(rng, n):
    """A positive-definite rational metric g = A^T A, as string rows."""
    a = invertible_matrix(rng, n, lambda r: S(real_rational(r)))
    g = a.transpose() * a
    return [[str(g[(i, j)]) for j in range(n)] for i in range(n)]


def bfield_rows(rng, n, with_b):
    rows = [["0"] * n for _ in range(n)]
    if with_b:
        for i in range(n):
            for j in range(i + 1, n):
                v = real_rational(rng)
                rows[i][j] = str(v)
                rows[j][i] = str(-v)
    return rows


def torus_lagrangian_for(rng, n):
    return torus_lagrangian(metric_rows(rng, n), bfield_rows(rng, n, n > 1))


# ----------------------------------------------------------------------
# lattice_cli and fock_modes: lattice models
# ----------------------------------------------------------------------

def lattice_model_json(rng, n, with_b):
    """A model file body: random metric, optional B-field, random basis."""
    basis = invertible_matrix(rng, n, lambda r: S(real_rational(r)))
    return {
        "n": n,
        "g": metric_rows(rng, n),
        "B": bfield_rows(rng, n, with_b),
        "L": [[str(basis[(i, j)]) for j in range(n)] for i in range(n)],
    }
