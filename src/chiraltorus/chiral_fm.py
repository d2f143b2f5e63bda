"""Fourier-Mukai transform on classes of chiral and twisted differential
operators over an abelian variety, in its finite-dimensional avatar.

An isomorphism class of CDOs on a complex torus with Lie algebra g is a
pair (lambda, nu) with lambda in (Lambda^3 g)* and nu in Hom(Lambda^2 g,
g-hat); a class of TDOs is a pair (c, omega) in Hom(g, g-hat) x
(Lambda^2 g)*.  A nondegenerate mu in Hom(g, g-hat) indexes a transform
that pulls all of this data back along mu^{-1}.  The linear-algebra
shadow of the transform on period matrices is A |-> -A^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import (
    AltTensor,
    DimensionMismatch,
    RationalMatrix,
    SingularMatrix,
    alt_pullback,
    invert,
)


@dataclass(frozen=True)
class CdoIsoClass:
    """A point of the moduli of CDO classes: (lambda, nu).

    lambda is an alternating 3-tensor on g; nu is an alternating
    2-tensor on g valued in the dual space g-hat (same dimension n).
    """

    n: int
    lam: AltTensor
    nu: AltTensor

    def __post_init__(self):
        if self.lam.degree != 3 or self.lam.dim != self.n or self.lam.valdim is not None:
            raise DimensionMismatch("lambda must be a scalar 3-tensor on g")
        if self.nu.degree != 2 or self.nu.dim != self.n or self.nu.valdim != self.n:
            raise DimensionMismatch("nu must be a 2-tensor on g valued in dim n")

    @staticmethod
    def zero(n: int) -> "CdoIsoClass":
        return CdoIsoClass(n, AltTensor(3, n, {}), AltTensor(2, n, {}, valdim=n))

    def to_json(self):
        return {"n": self.n, "lambda": self.lam.to_json(), "nu": self.nu.to_json()}

    @staticmethod
    def from_json(data) -> "CdoIsoClass":
        return CdoIsoClass(
            data["n"],
            AltTensor.from_json(data["lambda"]),
            AltTensor.from_json(data["nu"]),
        )


@dataclass(frozen=True)
class CdoMorphism:
    """An (auto)morphism of a CDO class: an element h of (Lambda^2 g)*.

    Composition is addition of h; every object of the groupoid has the
    same automorphism group.
    """

    h: AltTensor

    def __post_init__(self):
        if self.h.degree != 2 or self.h.valdim is not None:
            raise DimensionMismatch("morphism data must be a scalar 2-tensor")

    def compose(self, other: "CdoMorphism") -> "CdoMorphism":
        return CdoMorphism(self.h + other.h)

    @staticmethod
    def identity(n: int) -> "CdoMorphism":
        return CdoMorphism(AltTensor(2, n, {}))

    def to_json(self):
        return {"h": self.h.to_json()}

    @staticmethod
    def from_json(data) -> "CdoMorphism":
        return CdoMorphism(AltTensor.from_json(data["h"]))


@dataclass(frozen=True)
class TdoIsoClass:
    """A class of twisted differential operators: (c, omega)."""

    c: RationalMatrix
    omega: AltTensor

    def __post_init__(self):
        if self.c.rows != self.c.cols:
            raise DimensionMismatch("c must be square")
        if self.omega.degree != 2 or self.omega.dim != self.c.rows or self.omega.valdim is not None:
            raise DimensionMismatch("omega must be a scalar 2-tensor of matching dim")

    @staticmethod
    def zero(n: int) -> "TdoIsoClass":
        return TdoIsoClass(RationalMatrix.zeros(n, n), AltTensor(2, n, {}))

    def to_json(self):
        return {"c": self.c.to_json(), "omega": self.omega.to_json()}

    @staticmethod
    def from_json(data) -> "TdoIsoClass":
        return TdoIsoClass(
            RationalMatrix.from_json(data["c"]),
            AltTensor.from_json(data["omega"]),
        )


@dataclass(frozen=True)
class NondegClass:
    """A nondegenerate element mu of Hom(g, g-hat); indexes the transform."""

    mu: RationalMatrix

    def __post_init__(self):
        if self.mu.rows != self.mu.cols:
            raise DimensionMismatch("mu must be square")
        if self.mu.det().is_zero():
            raise SingularMatrix("mu must be nondegenerate")

    @property
    def n(self) -> int:
        return self.mu.rows

    def inverse_class(self) -> "NondegClass":
        return NondegClass(invert(self.mu))

    def to_json(self):
        return {"mu": self.mu.to_json()}

    @staticmethod
    def from_json(data) -> "NondegClass":
        return NondegClass(RationalMatrix.from_json(data["mu"]))


def vertex_algebroid_pairing(lam: AltTensor, x: int, y: int):
    """The covector z |-> lambda(x, y, z) attached to a pair of basis
    directions; skew in (x, y) because lambda is alternating."""
    if lam.degree != 3:
        raise DimensionMismatch("pairing requires a 3-tensor")
    n = lam.dim
    if not (1 <= x <= n and 1 <= y <= n):
        raise DimensionMismatch("basis index out of range")
    return tuple(lam.evaluate((x, y, z)) for z in range(1, n + 1))


def fm_linear(a: RationalMatrix) -> RationalMatrix:
    """Transform on period matrices: A |-> -A^{-1}."""
    return -invert(a)


def fm_linear_differential(a: RationalMatrix, b: RationalMatrix):
    """Differential of fm_linear at a in direction b: (-a^{-1}, a^{-1} b a^{-1})."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionMismatch("direction must have the same shape as the base point")
    inv = invert(a)
    return (-inv, inv * b * inv)


def fm_cdo(mu: NondegClass, x: CdoIsoClass) -> CdoIsoClass:
    """Transform a CDO class along mu.

    lambda pulls back along mu^{-1} as a 3-form; nu pulls back along
    mu^{-1} in both form slots and is post-composed with mu^{-1} on
    values: nu'(w1 ^ w2) = mu^{-1}( nu(mu^{-1} w1 ^ mu^{-1} w2) ).
    """
    if mu.n != x.n:
        raise DimensionMismatch("mu and class dimensions differ")
    lam_out = alt_pullback(3, mu.mu, x.lam)
    inv = invert(mu.mu)
    nu_out = alt_pullback(2, mu.mu, x.nu).map_values(lambda v: inv.apply(v))
    return CdoIsoClass(x.n, lam_out, nu_out)


def fm_cdo_morphism(mu: NondegClass, m: CdoMorphism) -> CdoMorphism:
    """Transport a morphism: h pulls back along mu^{-1} as a 2-form."""
    if mu.n != m.h.dim:
        raise DimensionMismatch("mu and morphism dimensions differ")
    return CdoMorphism(alt_pullback(2, mu.mu, m.h))


def fm_tdo(mu: NondegClass, x: TdoIsoClass) -> TdoIsoClass:
    """Transform a TDO class along mu: c' = mu^{-1} c mu^{-1}, omega pulls back.

    This is the degree-one specialization of the CDO formula; on the
    class c = mu it returns mu^{-1}, so the negated transform realizes
    c |-> -c^{-1} on that example.
    """
    if mu.n != x.c.rows:
        raise DimensionMismatch("mu and class dimensions differ")
    inv = invert(mu.mu)
    return TdoIsoClass(inv * x.c * inv, alt_pullback(2, mu.mu, x.omega))
