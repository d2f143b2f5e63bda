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

from .exactlin import (
    AltTensor,
    DimensionMismatch,
    Frozen,
    RationalMatrix,
    SingularMatrix,
    _integer,
    _pullback_by_inverse,
)


class CdoIsoClass(Frozen):
    """A point of the moduli of CDO classes: (lambda, nu).

    lambda is an alternating 3-tensor on g; nu is an alternating
    2-tensor on g valued in the dual space g-hat (same dimension n).
    """

    __slots__ = _fields = ("n", "lam", "nu")

    def __init__(self, n: int, lam: AltTensor, nu: AltTensor):
        _integer(n, "CDO class size n")
        if lam.degree != 3 or lam.dim != n or lam.valdim is not None:
            raise DimensionMismatch("lambda must be a scalar 3-tensor on g")
        if nu.degree != 2 or nu.dim != n or nu.valdim != n:
            raise DimensionMismatch("nu must be a 2-tensor on g valued in dim n")
        self._set(n=n, lam=lam, nu=nu)

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


class CdoMorphism(Frozen):
    """An (auto)morphism of a CDO class: an element h of (Lambda^2 g)*.

    Composition is addition of h; every object of the groupoid has the
    same automorphism group.
    """

    __slots__ = _fields = ("h",)

    def __init__(self, h: AltTensor):
        if h.degree != 2 or h.valdim is not None:
            raise DimensionMismatch("morphism data must be a scalar 2-tensor")
        self._set(h=h)

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


class TdoIsoClass(Frozen):
    """A class of twisted differential operators: (c, omega)."""

    __slots__ = _fields = ("c", "omega")

    def __init__(self, c: RationalMatrix, omega: AltTensor):
        if c.rows != c.cols:
            raise DimensionMismatch("c must be square")
        if omega.degree != 2 or omega.dim != c.rows or omega.valdim is not None:
            raise DimensionMismatch("omega must be a scalar 2-tensor of matching dim")
        self._set(c=c, omega=omega)

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


class NondegClass(Frozen):
    """A nondegenerate element mu of Hom(g, g-hat); indexes the transform.

    mu^{-1} is computed once, when the class is built, and doubles as
    the nondegeneracy check; a class made by inverse_class is handed the
    mu it came from instead.  The stored inverse is not part of the
    value, and not an argument of the constructor.
    """

    __slots__ = ("mu", "_inv")
    _fields = ("mu",)

    def __init__(self, mu: RationalMatrix):
        if mu.rows != mu.cols:
            raise DimensionMismatch("mu must be square")
        try:
            inv = mu.inverse()
        except SingularMatrix:
            raise SingularMatrix("mu must be nondegenerate") from None
        self._set(mu=mu, _inv=inv)

    @property
    def n(self) -> int:
        return self.mu.rows

    def mu_inverse(self) -> RationalMatrix:
        """mu^{-1}, as stored when the class was built."""
        return self._inv

    def inverse_class(self) -> "NondegClass":
        return NondegClass._trusted(mu=self._inv, _inv=self.mu)

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
    return tuple(lam.evaluate((x, y, z)) for z in range(1, lam.dim + 1))


def fm_linear(a: RationalMatrix) -> RationalMatrix:
    """Transform on period matrices: A |-> -A^{-1}."""
    return -a.inverse()


def fm_linear_differential(a: RationalMatrix, b: RationalMatrix):
    """Differential of fm_linear at a in direction b, read off F = fm_linear:
    (F(a), F(a) b F(a)), which is (-a^{-1}, a^{-1} b a^{-1})."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionMismatch("direction must have the same shape as the base point")
    f = fm_linear(a)
    return (f, f * b * f)


def fm_cdo(mu: NondegClass, x: CdoIsoClass) -> CdoIsoClass:
    """Transform a CDO class along mu.

    lambda pulls back along mu^{-1} as a 3-form; nu pulls back along
    mu^{-1} in both form slots and is post-composed with mu^{-1} on
    values: nu'(w1 ^ w2) = mu^{-1}( nu(mu^{-1} w1 ^ mu^{-1} w2) ).
    """
    if mu.n != x.n:
        raise DimensionMismatch("mu and class dimensions differ")
    inv = mu.mu_inverse()
    return CdoIsoClass(x.n, _pullback_by_inverse(inv, x.lam),
                       _pullback_by_inverse(inv, x.nu, on_values=True))


def fm_cdo_morphism(mu: NondegClass, m: CdoMorphism) -> CdoMorphism:
    """Transport a morphism: h pulls back along mu^{-1} as a 2-form."""
    if mu.n != m.h.dim:
        raise DimensionMismatch("mu and morphism dimensions differ")
    return CdoMorphism(_pullback_by_inverse(mu.mu_inverse(), m.h))


def fm_tdo(mu: NondegClass, x: TdoIsoClass) -> TdoIsoClass:
    """Transform a TDO class along mu: c' = mu^{-1} c mu^{-1}, omega pulls back.

    This is the degree-one specialization of the CDO formula; on the
    class c = mu it returns mu^{-1}, so the negated transform realizes
    c |-> -c^{-1} on that example.
    """
    if mu.n != x.c.rows:
        raise DimensionMismatch("mu and class dimensions differ")
    inv = mu.mu_inverse()
    return TdoIsoClass(inv * x.c * inv, _pullback_by_inverse(inv, x.omega))
