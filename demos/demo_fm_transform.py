"""Walk through the transform on isomorphism classes of chiral and
twisted differential operators over a two-dimensional torus.

The transform is parametrized by a nondegenerate pairing mu.  On linear
data it acts by a -> -a^(-1); on full chiral classes it conjugates the
degree-3 and degree-2 pieces by mu as well.  Applying it with mu and
then with mu^(-1) must return the input exactly.
"""

import json

from chiraltorus import (
    AltTensor,
    CdoIsoClass,
    ExactScalar,
    NondegClass,
    RationalMatrix,
    TdoIsoClass,
    fm_cdo,
    fm_linear,
    fm_tdo,
)

S = ExactScalar
LINE = "-" * 64


def show(label, obj):
    print(label)
    print(json.dumps(obj.to_json(), indent=2, sort_keys=True))
    print()


def main():
    print(LINE)
    print("polarization data")
    print(LINE)
    # a principal (symplectic) pairing and a scaled diagonal one
    mu_symp = NondegClass(RationalMatrix([["0", "1"], ["-1", "0"]]))
    mu_diag = NondegClass(RationalMatrix([["2", "0"], ["0", "4"]]))
    show("mu (symplectic):", mu_symp)
    show("mu (diagonal):", mu_diag)

    print(LINE)
    print("the linear avatar: a -> -a^(-1)")
    print(LINE)
    a = RationalMatrix([["2", "1"], ["0", "1"]])
    fa = fm_linear(a)
    print("a      =", a.to_json())
    print("F(a)   =", fa.to_json())
    print("F(F(a)) =", fm_linear(fa).to_json(), " (returns a)")
    assert fm_linear(fa) == a
    print()

    print(LINE)
    print("a chiral class and its transform")
    print(LINE)
    # on a 2-torus the degree-3 part is forced to vanish
    lam = AltTensor(3, 2, {})
    nu = AltTensor(2, 2, {(1, 2): [S("1"), S("1/2")]}, valdim=2)
    x = CdoIsoClass(2, lam, nu)
    show("input class:", x)
    y = fm_cdo(mu_symp, x)
    show("transformed class:", y)
    back = fm_cdo(mu_symp.inverse_class(), y)
    show("transformed back:", back)
    assert back == x
    print("involution check: F_{mu^-1} . F_mu = id   OK")
    print()

    print(LINE)
    print("twisted classes: the base point goes to its negated inverse")
    print(LINE)
    base = TdoIsoClass(mu_diag.mu, AltTensor(2, 2, {}))
    out = fm_tdo(mu_diag, base)
    show("input c = mu:", base)
    show("output:", out)
    assert out.c == mu_diag.mu.inverse()
    assert fm_linear(mu_diag.mu) == out.c.scale(S(-1))
    print("on the base point the transform inverts mu; composing with")
    print("the global sign gives c -> -c^(-1)   OK")


if __name__ == "__main__":
    main()
