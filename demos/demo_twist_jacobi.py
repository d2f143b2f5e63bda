"""Twisting the momentum brackets and watching Jacobi fail.

The canonical bracket table admits a totally antisymmetric twist
h_{ijk}: it deforms the momentum-momentum entries by h_{ijk} d_sigma x^k.
A constant twist still satisfies the Jacobi identity; a twist with
nonconstant coefficients generically does not, and the cyclic residual
is computed here exactly.
"""

from chiraltorus import (
    BracketTable,
    DiffPoly,
    boson_table,
    jacobi_residual,
    parse_expr,
)

LINE = "-" * 64
P = parse_expr

# a small zoo of densities mixing positions, momenta, and derivatives
TRIPLES = (
    ("p1^2", "x1*p2", "ds.x2"),
    ("e(2)*p1", "e(-1)*x2*p1", "p2^2"),
    ("x1*x2*p1", "ds.x1*p2", "x2^2"),
    ("p1*p2", "e(1)*x1", "ds.x2*p1"),
)


def residual_report(table, triples):
    for a, b, c in triples:
        r = jacobi_residual(table, P(a), P(b), P(c))
        print(f"  ({a}, {b}, {c}): residual = {r}")


def main():
    print(LINE)
    print("twist entries are totally antisymmetric in the three indices")
    print(LINE)
    t = BracketTable(twist={(1, 2, 3): "x4"})
    for idx in ((1, 2, 3), (2, 1, 3), (2, 3, 1), (1, 3, 2)):
        print(f"  h_{idx} = {t.twist_coefficient(*idx)}")
    print("  momentum bracket {p_1, p_2} =", t.base_bracket((1, 1), (2, 1)))
    print()

    print(LINE)
    print("the untwisted table satisfies Jacobi")
    print(LINE)
    residual_report(boson_table(), TRIPLES)
    print()

    print(LINE)
    print("a constant twist also closes")
    print(LINE)
    residual_report(boson_table(twist={(1, 2, 3): "1"}), TRIPLES)
    print()

    print(LINE)
    print("a field-dependent twist obstructs: h_123 = x^4")
    print(LINE)
    bad = boson_table(twist={(1, 2, 3): "x4"})
    for m1, m2, m3 in ((1, 1, 1), (0, 0, 1), (2, -1, 3)):
        r = jacobi_residual(
            bad,
            DiffPoly.trig(m1) * P("p1"),
            DiffPoly.trig(m2) * P("p2"),
            DiffPoly.trig(m3) * P("p3"),
        )
        print(f"  momentum modes ({m1},{m2},{m3}): residual = {r}")
    print("  the residual is i (m1+m2+m3) e(m1+m2+m3) x^4, so it")
    print("  vanishes exactly when the mode sum does")
    print()
    r = jacobi_residual(bad, P("phi*p1"), P("psi*p2"), P("p3"))
    print("  with symbol profiles phi, psi: residual =", r)


if __name__ == "__main__":
    main()
