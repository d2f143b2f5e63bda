"""Acceptance gate: the ten binding checks for this workbench.

One test per criterion, every comparison at exact equality (Gaussian
rationals throughout; there is no tolerance anywhere).  Each test prints
a single PASS line on success, so `pytest -v -rA tests/test_acceptance.py`
reads as a checklist.

Sizes are chosen so the whole gate runs in seconds: where a criterion
quantifies over a whole lattice box whose pair count would be millions
of Python-level checks, the test combines an exhaustive table on a
smaller box with an exact bilinear-decomposition certificate plus a
deterministic sample on the stated box, which together cover the stated
range; the PASS line says so.
"""

import random
from collections import Counter
from fractions import Fraction

from chiraltorus.exactlin import AltTensor, ExactScalar, RationalMatrix
from chiraltorus.chiral_fm import (
    NondegClass,
    TdoIsoClass,
    fm_cdo,
    fm_linear,
    fm_tdo,
)
from chiraltorus.jetcalc import (
    DiffPoly,
    boson_circle_lagrangian,
    gen_conformal,
    gen_sigma,
    gen_tau,
    gen_translation,
    noether,
    parse_expr,
    restrict_to_sol0,
    torus_lagrangian,
    variational_one_form,
)
from chiraltorus.coisson import (
    DeltaExpansion,
    FourierClass,
    LocalDensity,
    boson_table,
    density_bracket,
    dz_density,
    fourier_bracket,
    from_tau_jets,
    generator_density,
    hamiltonian_flow,
    jacobi_residual,
)
from chiraltorus.fockq import (
    FockTruncation,
    LatticeModel,
    SparseOp,
    build_model,
    central_charge,
    chiral_sectors,
    enumerate_sectors,
    ko_locality,
    one_dim_model,
    partition_function,
    spectrum_point,
    t_dual,
    vertex_exponents,
)

from test_exactlin import rand_invertible
from test_chiral_fm import make_cdo
from test_coisson import rand_density
from test_fockq import pairing_oracle, u_poly

S = ExactScalar
ZERO = S(0)
ONE = S(1)
I = S(0, 1)
HALF = S(Fraction(1, 2))
TABLE = boson_table()
P = parse_expr


def heis(mode, sign="+"):
    return generator_density("heis" + sign, mode)


def vir(mode, sign="+"):
    return generator_density("vir" + sign, mode)


def rand_rational(rng):
    num = rng.randint(-6, 6)
    den = rng.choice((1, 1, 2, 3, 4))
    return Fraction(num, den)


def rand_real_invertible(rng, n):
    while True:
        m = RationalMatrix(
            [[S(rand_rational(rng)) for _ in range(n)] for _ in range(n)]
        )
        if not m.det().is_zero():
            return m


def rand_lattice_model(rng, n, with_b):
    a = rand_real_invertible(rng, n)
    g = a.transpose() * a
    b_rows = [[ZERO] * n for _ in range(n)]
    if with_b:
        for i in range(n):
            for j in range(i + 1, n):
                v = S(rand_rational(rng))
                b_rows[i][j] = v
                b_rows[j][i] = -v
    basis = rand_real_invertible(rng, n)
    return LatticeModel(n, g, RationalMatrix(b_rows), basis)


# ----------------------------------------------------------------------
# criterion 1: the transform squares to the identity
# ----------------------------------------------------------------------

def test_c01_transform_involution():
    rng = random.Random(1001)
    for k in range(200):
        n = rng.randint(2, 4)
        mu = NondegClass(rand_invertible(rng, n))
        x = make_cdo(rng, n)
        back = fm_cdo(mu.inverse_class(), fm_cdo(mu, x))
        assert back == x, f"instance {k} (n={n})"
        a = mu.mu
        assert fm_linear(fm_linear(a)) == a, f"linear instance {k}"
    print("criterion 1 PASS: transform involution on 200 random classes, dims 2-4")


# ----------------------------------------------------------------------
# criterion 2: the linear avatar on one-dimensional classes
# ----------------------------------------------------------------------

def test_c02_linear_avatar_inverts_the_base_point():
    rng = random.Random(1002)
    for k in range(50):
        n = rng.randint(2, 4)
        mu = NondegClass(rand_invertible(rng, n))
        x = TdoIsoClass(mu.mu, AltTensor(2, n, {}))
        out = fm_tdo(mu, x)
        # on the class c = mu the transform returns mu^{-1}; composing
        # with the global minus sign realizes c -> -c^{-1}
        assert out.c == mu.mu.inverse(), f"instance {k}"
        assert fm_linear(mu.mu) == out.c.scale(S(-1)), f"instance {k}"
        assert out.omega == AltTensor(2, n, {})
    print("criterion 2 PASS: degree-one transform realizes c -> -c^(-1) on 50 random base points")


# ----------------------------------------------------------------------
# criterion 3: the Noether golden suite, token for token
# ----------------------------------------------------------------------

def test_c03_noether_golden_suite():
    lag = boson_circle_lagrangian()

    # variational 1-form of the circle boson
    gamma = variational_one_form(lag)
    assert gamma.component(((1, 0, 0),), ("s",)) == P("i*dt.x1")
    assert gamma.component(((1, 0, 0),), ("t",)) == P("-i*ds.x1")
    assert len(gamma.coeffs) == 2

    # energy current of tau-translation
    H = noether(lag, gen_tau(1))
    assert H.component((), ("s",)) == P("-1/2*i*(dt.x1^2 - ds.x1^2)")
    assert H.component((), ("t",)) == P("i*dt.x1*ds.x1")

    # as an x/p density this is the displayed energy density
    on_shell = restrict_to_sol0(H, lag)
    sigma_part = on_shell.coeffs[((), ("s",))]
    assert from_tau_jets(sigma_part) == generator_density("hamiltonian").poly

    # sigma-translation current
    Hs = noether(lag, gen_sigma(1))
    assert Hs.component((), ("s",)) == P("-i*dt.x1*ds.x1")
    assert Hs.component((), ("t",)) == P("1/2*i*(ds.x1^2 - dt.x1^2)")

    # momentum current of the target translation
    Hm = noether(lag, gen_translation(1, 1))
    assert Hm.component((), ("s",)) == P("-i*dt.x1")
    assert Hm.component((), ("t",)) == P("i*ds.x1")

    # the two conformal halves
    Hz = noether(lag, gen_conformal(1))
    assert Hz.component((), ("t",)) == P("-f*dz.x1^2")
    assert Hz.component((), ("s",)) == P("-i*f*dz.x1^2")
    Hzb = noether(lag, gen_conformal(1, holomorphic=False))
    assert Hzb.component((), ("t",)) == P("g*dzb.x1^2")
    assert Hzb.component((), ("s",)) == P("-i*g*dzb.x1^2")

    # tau-translation is the sum of the chiral halves, before and after
    # restriction to the time-zero solution slice
    H_z = noether(lag, gen_conformal(1, with_symbol=False))
    H_zb = noether(lag, gen_conformal(1, holomorphic=False, with_symbol=False))
    assert H == H_z + H_zb
    assert restrict_to_sol0(H) == restrict_to_sol0(H_z) + restrict_to_sol0(H_zb)

    # torus variational 1-form with a B-field
    L2 = torus_lagrangian([[1, 0], [0, 2]], [[0, 1], [-1, 0]])
    g2 = variational_one_form(L2)
    assert g2.component(((1, 0, 0),), ("s",)) == P("i*dt.x1 - ds.x2")
    assert g2.component(((2, 0, 0),), ("s",)) == P("2*i*dt.x2 + ds.x1")
    assert g2.component(((1, 0, 0),), ("t",)) == P("-i*ds.x1 - dt.x2")
    assert g2.component(((2, 0, 0),), ("t",)) == P("-2*i*ds.x2 + dt.x1")

    # torus momentum current keeps the B-term
    Hm2 = noether(L2, gen_translation(2, 1))
    assert Hm2.component((), ("s",)) == P("-i*dt.x1 + ds.x2")
    assert Hm2.component((), ("t",)) == P("i*ds.x1 + dt.x2")

    # torus energy current; the B-field drops out
    g_rows = [[1, 0], [0, 2]]
    Ht = noether(torus_lagrangian(g_rows, [[0, 3], [-3, 0]]), gen_tau(2))
    assert Ht.component((), ("s",)) == P("-1/2*i*(dt.x1^2 + 2*dt.x2^2 - ds.x1^2 - 2*ds.x2^2)")
    assert Ht.component((), ("t",)) == P("i*(ds.x1*dt.x1 + 2*ds.x2*dt.x2)")
    assert Ht == noether(torus_lagrangian(g_rows), gen_tau(2))

    # torus conformal currents, both chiralities
    L0 = torus_lagrangian(g_rows)
    Hc = noether(L0, gen_conformal(2))
    assert Hc.component((), ("t",)) == P("-f*(dz.x1^2 + 2*dz.x2^2)")
    assert Hc.component((), ("s",)) == P("-i*f*(dz.x1^2 + 2*dz.x2^2)")
    Hcb = noether(L0, gen_conformal(2, holomorphic=False))
    assert Hcb.component((), ("t",)) == P("g*(dzb.x1^2 + 2*dzb.x2^2)")
    assert Hcb.component((), ("s",)) == P("-i*g*(dzb.x1^2 + 2*dzb.x2^2)")

    print("criterion 3 PASS: Noether golden suite, token for token")


# ----------------------------------------------------------------------
# criterion 4: coisson structure constants on the full mode grid
# ----------------------------------------------------------------------

def test_c04_coisson_structure_constants():
    zero = FourierClass.zero()
    modes = range(-6, 7)

    for m in modes:
        for n in modes:
            # Heisenberg pairs, both chiralities
            out = fourier_bracket(heis(m), heis(n), TABLE)
            want = FourierClass(DiffPoly.const(S(0, -m) * HALF)) if m + n == 0 else zero
            assert out == want, f"heis+ ({m},{n})"
            out = fourier_bracket(heis(m, "-"), heis(n, "-"), TABLE)
            want = FourierClass(DiffPoly.const(S(0, m) * HALF)) if m + n == 0 else zero
            assert out == want, f"heis- ({m},{n})"

            # Witt pairs, both chiralities
            out = fourier_bracket(vir(m), vir(n), TABLE)
            assert out == FourierClass(vir(m + n).poly.scale(m - n)), f"vir+ ({m},{n})"
            out = fourier_bracket(vir(m, "-"), vir(n, "-"), TABLE)
            assert out == FourierClass(vir(m + n, "-").poly.scale(n - m)), f"vir- ({m},{n})"

            # Witt action on the currents
            out = fourier_bracket(vir(m), heis(n), TABLE)
            assert out == FourierClass(heis(m + n).poly.scale(-n)), f"vir+ heis+ ({m},{n})"
            out = fourier_bracket(vir(m, "-"), heis(n, "-"), TABLE)
            assert out == FourierClass(heis(m + n, "-").poly.scale(n)), f"vir- heis- ({m},{n})"

            # momentum against winding profiles: i m delta_{m,-n} delta_ij
            for i in (1, 2):
                for j in (1, 2):
                    out = fourier_bracket(
                        P(f"e({-m})*p{i}"), P(f"e({-n})*ds.x{j}"), TABLE
                    )
                    want = (
                        FourierClass(DiffPoly.const(S(0, m)))
                        if m + n == 0 and i == j else zero
                    )
                    assert out == want, f"heisenberg pair ({m},{n},{i},{j})"

    # opposite chiralities commute
    for m in range(-2, 3):
        for n in range(-2, 3):
            assert fourier_bracket(heis(m), heis(n, "-"), TABLE).is_zero()
            assert fourier_bracket(vir(m), vir(n, "-"), TABLE).is_zero()
            assert fourier_bracket(vir(m), heis(n, "-"), TABLE).is_zero()
            assert fourier_bracket(vir(m, "-"), heis(n), TABLE).is_zero()

    # energy grading: eigenvalue -n on chiral modes, +n on antichiral
    H = generator_density("hamiltonian")
    for n in range(-6, 7):
        out = fourier_bracket(H, heis(n), TABLE)
        assert out == FourierClass(heis(n).poly.scale(-n))
        assert out == fourier_bracket(vir(0), heis(n), TABLE)
        mirror = fourier_bracket(H, heis(n, "-"), TABLE)
        assert mirror == FourierClass(heis(n, "-").poly.scale(n))
        assert mirror == fourier_bracket(vir(0, "-"), heis(n, "-"), TABLE)
    assert FourierClass(H.poly) == FourierClass(vir(0).poly + vir(0, "-").poly)

    # density level: current and stress-tensor self-brackets
    a = dz_density(1).scale(I)
    assert density_bracket(a, a, TABLE) == DeltaExpansion({1: DiffPoly.const(HALF)})
    g = [[2, 0], [0, 3]]
    b = [[0, 5], [-5, 0]]
    for (i, j, gij) in ((1, 1, "1/2"), (2, 2, "1/3"), (1, 2, "0")):
        E = density_bracket(
            dz_density(i, g, b).scale(I), dz_density(j, g, b).scale(I), TABLE
        )
        assert E == DeltaExpansion({1: DiffPoly.const(S(gij)).scale(HALF)})
    T = dz_density(1) ** 2
    at = T.scale(-I)
    assert density_bracket(at, at, TABLE) == DeltaExpansion({1: T.scale(2), 0: -(T.D("s"))})

    # flow computations: the coisson dynamics of the free boson
    flow = hamiltonian_flow(H, P("x1"), TABLE)
    assert flow == LocalDensity("-i*p1")
    assert flow.poly == from_tau_jets(P("dt.x1"))
    velocity = from_tau_jets(P("dt.x1"))
    assert hamiltonian_flow(H, velocity, TABLE) == LocalDensity("-ds.ds.x1")
    assert hamiltonian_flow(H, P("7"), TABLE).poly.is_zero()
    first = hamiltonian_flow(H, P("x1"), TABLE)
    assert not FourierClass(first.poly).is_zero()
    assert FourierClass(hamiltonian_flow(H, first.poly, TABLE).poly).is_zero()

    print("NOTE: grading asserted as {H, a_n} = -n a_n (antichiral +n), the unique")
    print("NOTE: normalization consistent with the Heisenberg and Witt tables at once")
    print("criterion 4 PASS: structure constants exact on the mode grid |m|,|n| <= 6")


# ----------------------------------------------------------------------
# criterion 5: Jacobi identity and its twist obstruction
# ----------------------------------------------------------------------

def test_c05_jacobi_and_twist_obstruction():
    rng = random.Random(1005)
    for k in range(50):
        a = rand_density(rng, maxterms=2, maxfactors=2)
        b = rand_density(rng, maxterms=2, maxfactors=2)
        c = rand_density(rng, maxterms=2, maxfactors=2)
        assert jacobi_residual(TABLE, a, b, c).is_zero(), f"untwisted triple {k}"

    twisted = boson_table(twist={(1, 2, 3): "1"})
    for k in range(50):
        a = rand_density(rng, nfields=3, maxterms=2, maxfactors=2)
        b = rand_density(rng, nfields=3, maxterms=2, maxfactors=2)
        c = rand_density(rng, nfields=3, maxterms=2, maxfactors=2)
        assert jacobi_residual(twisted, a, b, c).is_zero(), f"constant-twist triple {k}"

    # a non-closed polynomial twist obstructs with the exact residual
    bad = boson_table(twist={(1, 2, 3): "x4"})
    for m1, m2, m3 in ((1, 1, 1), (0, 0, 1), (2, -1, 3)):
        r = jacobi_residual(
            bad,
            DiffPoly.trig(m1) * P("p1"),
            DiffPoly.trig(m2) * P("p2"),
            DiffPoly.trig(m3) * P("p3"),
        )
        total = m1 + m2 + m3
        want = FourierClass((DiffPoly.trig(total) * P("x4")).scale(S(0, total)))
        assert r == want
        assert not r.is_zero()

    print("criterion 5 PASS: Jacobi holds on 100 random triples; non-closed twist obstructs exactly")


# ----------------------------------------------------------------------
# criterion 6: quantum mode algebra on truncated Fock modules
# ----------------------------------------------------------------------

QUANTUM_CASES = (
    (1, [["2"]], 8),
    (2, [["2", "1"], ["1", "2"]], 5),
    (3, [["2", "1", "0"], ["1", "2", "1"], ["0", "1", "2"]], 4),
)


def _quantum_model(n, g_rows):
    zero = [["0"] * n for _ in range(n)]
    ident = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    return build_model(n, g_rows, zero, ident)


def test_c06_quantum_commutators_and_central_charge():
    for n, g_rows, N in QUANTUM_CASES:
        model = _quantum_model(n, g_rows)
        g_inv = RationalMatrix(g_rows).inverse()
        fock = FockTruncation(model, [0] * n, N)

        # oscillator commutators: [a^i_m, a^j_n] = -1/2 g^{ij} m delta_{m,-n}
        for m in range(-N, N + 1):
            for n_ in range(-N, N + 1):
                guard = fock.vectors_up_to_level(N - abs(m) - abs(n_))
                if not guard:
                    continue
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        comm = fock.alpha(i, m).commutator(fock.alpha(j, n_))
                        coeff = (
                            g_inv[(i - 1, j - 1)] * S(m) * S(Fraction(-1, 2))
                            if m + n_ == 0 else ZERO
                        )
                        want = SparseOp.identity(fock.dim, coeff)
                        assert comm.agrees_on(want, guard), (n, N, m, n_, i, j)

        # the Virasoro action on oscillators: [L_k, a^j_m] = -m a^j_{k+m}
        kmax = min(N, 6)
        vir_ops = {k: fock.virasoro(k) for k in range(-kmax, kmax + 1)}
        for k in range(-3, 4):
            for m in range(-3, 4):
                if abs(k + m) > N:
                    continue
                guard = fock.vectors_up_to_level(N - abs(k) - abs(m) - 1)
                if not guard:
                    continue
                for j in range(1, n + 1):
                    comm = vir_ops[k].commutator(fock.alpha(j, m))
                    want = fock.alpha(j, k + m).scale(S(-m))
                    assert comm.agrees_on(want, guard), (n, N, k, m, j)

        # Virasoro brackets: [L_j, L_k] - (j-k) L_{j+k} is central with c = n
        for j in range(-3, 4):
            for k in range(-3, 4):
                if abs(j + k) > kmax:
                    continue
                guard = fock.vectors_up_to_level(N - abs(j) - abs(k) - 1)
                if not guard:
                    continue
                comm = vir_ops[j].commutator(vir_ops[k])
                central = (
                    S(Fraction(n, 12)) * S(j ** 3 - j)
                    if j + k == 0 else ZERO
                )
                want = vir_ops[j + k].scale(S(j - k)) + SparseOp.identity(fock.dim, central)
                assert comm.agrees_on(want, guard), (n, N, j, k)

        # the measured central charge is the number of bosons
        assert central_charge(model, N=3) == S(n)

    print("criterion 6 PASS: mode algebra and measured c = n on truncations (n,N) = (1,8), (2,5), (3,4)")


# ----------------------------------------------------------------------
# criterion 7: zero-mode spectrum displays and sector weights
# ----------------------------------------------------------------------

def test_c07_spectrum_displays_and_sector_weights():
    # one-dimensional display: the pair (1/2(l - l*), 1/2(l + l*))
    for model in (one_dim_model(), one_dim_model(2)):
        for m in range(-3, 4):
            for ms in range(-3, 4):
                p_plus, p_minus = spectrum_point(model, [m], [ms])
                disp1 = model.canon(u_poly({1: Fraction(m, 2), -1: Fraction(-ms, 2)}))
                disp2 = model.canon(u_poly({1: Fraction(m, 2), -1: Fraction(ms, 2)}))
                # the first display operator carries the opposite sign
                # relative to the weight convention
                assert -p_plus[0] == disp1, (m, ms)
                assert p_minus[0] == disp2, (m, ms)

    # n-dimensional display on a hand-derived case with a B-field:
    # g = id, B = ((0,1),(-1,0)), l = e1, l* = 0
    mB = build_model(2, [["1", "0"], ["0", "1"]],
                     [["0", "1"], ["-1", "0"]],
                     [["1", "0"], ["0", "1"]])
    p_plus, p_minus = spectrum_point(mB, [1, 0], [0, 0])
    assert [x.as_exact() for x in p_plus] == [S("-1/2"), S("-1/2")]
    assert [x.as_exact() for x in p_minus] == [S("1/2"), S("-1/2")]

    # and on a hand-derived diagonal case: g = diag(2,3), l = e1, l* = e2*
    mD = build_model(2, [["2", "0"], ["0", "3"]],
                     [["0", "0"], ["0", "0"]],
                     [["1", "0"], ["0", "1"]])
    p_plus, p_minus = spectrum_point(mD, [1, 0], [0, 1])
    assert [x.as_exact() for x in p_plus] == [S("-1/2"), S("1/6")]
    assert [x.as_exact() for x in p_minus] == [S("1/2"), S("1/6")]

    # display identities over a box: p- - p+ = l and g(p+ + p-) = l* - B(l)
    for model in (mB, mD):
        g = model.g
        B = model.B
        for s in enumerate_sectors(model, 2):
            p_plus, p_minus = spectrum_point(model, s.l_coords, s.lstar_coords)
            # no unit: the ambient vectors are the bases times the coordinates
            l_vec = list(model.Lbasis.apply(s.l_coords))
            ls_vec = list(model.LstarBasis.apply(s.lstar_coords))
            diff = [(pm.as_exact() - pp.as_exact()) for pp, pm in zip(p_plus, p_minus)]
            assert diff == l_vec, s
            tot = [(pp.as_exact() + pm.as_exact()) for pp, pm in zip(p_plus, p_minus)]
            g_tot = [sum((g[(r, c)] * tot[c] for c in range(2)), ZERO) for r in range(2)]
            b_l = [sum((B[(c, r)] * l_vec[c] for c in range(2)), ZERO) for r in range(2)]
            want = [lsv - blv for lsv, blv in zip(ls_vec, b_l)]
            assert g_tot == want, s

    # sector weights: h = -1/4 g^{-1}(a+, a+), recomputed from raw data,
    # and equal to the measured vacuum energy of the sector's Fock module
    g_inv = RationalMatrix([["1", "0"], ["0", "1"]]).inverse()
    for s in enumerate_sectors(mB, 1):
        l_vec = list(mB.Lbasis.apply(s.l_coords))
        ls_vec = list(mB.LstarBasis.apply(s.lstar_coords))
        b_l = [sum((mB.B[(c, r)] * l_vec[c] for c in range(2)), ZERO) for r in range(2)]
        a_plus = [-lsv + blv + lv for lsv, blv, lv in zip(ls_vec, b_l, l_vec)]
        h_raw = sum(
            (a_plus[r] * a_plus[c] * g_inv[(r, c)] for r in range(2) for c in range(2)),
            ZERO,
        ) * S(Fraction(-1, 4))
        assert s.h.as_exact() == h_raw, s

    for coords in (([1, 0], [0, 0]), ([1, -1], [0, 1]), ([0, 1], [1, 1])):
        s = mB.sector(*coords)
        fock = FockTruncation(mB, [x.as_exact() for x in s.a_plus], 0)
        l0 = fock.virasoro(0)
        vac = fock.index[((), ())]
        h = s.h.as_exact()
        want = {} if h.is_zero() else {vac: h}
        assert l0.column(vac) == want, coords

    print("criterion 7 PASS: spectrum displays and sector weights on hand-derived cases and boxes")


# ----------------------------------------------------------------------
# criterion 8: locality of sector pair exponents
# ----------------------------------------------------------------------

def _integral(x) -> bool:
    return x.im == 0 and x.re.denominator == 1


def test_c08_locality_of_vertex_exponents():
    rng = random.Random(1008)
    specs = [(1, False)] * 4 + [(1, True)] * 4 + \
            [(2, False)] * 4 + [(2, True)] * 4 + \
            [(3, False)] * 2 + [(3, True)] * 2
    assert len(specs) == 20

    for idx, (n, with_b) in enumerate(specs):
        model = rand_lattice_model(rng, n, with_b)

        # dual-pairing certificate: the coordinate pairing matrix is the
        # identity, so <l1*, l2> + <l2*, l1> is an integer for every pair
        assert model.pairing_matrix() == RationalMatrix.identity(n), idx

        if n == 1:
            # exhaustive on the stated box
            report = ko_locality(model, 3)
            assert report["all_integral"], idx
            assert len(report["pairs"]) == 49 * 49
        else:
            # exhaustive for n = 2 on a smaller box; for n = 3 the full
            # pair count is half a million and the certificate below
            # carries the claim instead
            if n == 2:
                report = ko_locality(model, 1)
                assert report["all_integral"], idx
            # the exact decomposition on basis sectors ...
            basis = []
            for i in range(n):
                e = [0] * n
                e[i] = 1
                basis.append((tuple(e), (0,) * n))
                basis.append(((0,) * n, tuple(e)))
            for c1 in basis:
                for c2 in basis:
                    s1 = model.sector(*c1)
                    s2 = model.sector(*c2)
                    hol, antihol = vertex_exponents(s1, s2)
                    diff = (hol - antihol).as_exact()
                    assert diff == S(pairing_oracle(model, s1, s2)), (idx, c1, c2)
            # ... plus a deterministic sample on the stated box; the
            # difference is bilinear in the two coordinate pairs, so the
            # basis table extends to the whole lattice
            for _ in range(150):
                c = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(4)]
                s1 = model.sector(c[0], c[1])
                s2 = model.sector(c[2], c[3])
                hol, antihol = vertex_exponents(s1, s2)
                diff = (hol - antihol).as_exact()
                assert _integral(diff), (idx, c)
                assert diff == S(pairing_oracle(model, s1, s2)), (idx, c)

    print("criterion 8 PASS: exponent differences integral for 20 random models (exhaustive + certificate + box sample)")


# ----------------------------------------------------------------------
# criterion 9: duality of torus models
# ----------------------------------------------------------------------

def test_c09_duality_involution_and_spectrum_invariance():
    skew = build_model(2, [["2", "1"], ["1", "2"]],
                       [["0", "0"], ["0", "0"]],
                       [["1", "1"], ["0", "1"]])
    diag3 = build_model(3, [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]],
                        [["0"] * 3] * 3,
                        [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])

    # involution
    for model in (one_dim_model(), one_dim_model("1/2"), skew, diag3):
        assert t_dual(t_dual(model)) == model

    # the self-dual fixed points
    assert t_dual(one_dim_model(1)) == one_dim_model(1)
    ident2 = build_model(2, [["1", "0"], ["0", "1"]],
                         [["0", "0"], ["0", "0"]],
                         [["1", "0"], ["0", "1"]])
    assert t_dual(ident2) == ident2

    # weight multiset invariance on the symmetric box of cutoff 4
    for model in (one_dim_model(), one_dim_model(2), skew):
        dual = t_dual(model)
        mine = Counter(
            (str(s.h), str(s.hbar)) for s in enumerate_sectors(model, 4)
        )
        theirs = Counter(
            (str(s.h), str(s.hbar)) for s in enumerate_sectors(dual, 4)
        )
        assert mine == theirs

    # exact partition function identity at order 6
    m1 = one_dim_model(2)
    assert partition_function(m1, 4, 6) == partition_function(t_dual(m1), 4, 6)
    assert partition_function(skew, 2, 6) == partition_function(t_dual(skew), 2, 6)

    print("criterion 9 PASS: duality involution, fixed points, and weight spectrum invariance")


# ----------------------------------------------------------------------
# criterion 10: the chiral algebra of a model
# ----------------------------------------------------------------------

def test_c10_chiral_algebra_extraction():
    # generic scale: only the vacuum sector is chiral
    generic = one_dim_model()
    found = chiral_sectors(generic, 3)
    assert [(s.l_coords, s.lstar_coords) for s in found] == [((0,), (0,))]

    # self-dual circle: the chiral sectors form the doubled lattice
    selfdual = one_dim_model(1)
    found = chiral_sectors(selfdual, 3)
    assert [(s.l_coords, s.lstar_coords) for s in found] == [
        ((k,), (-k,)) for k in range(-3, 4)
    ]
    for s in found:
        k = s.l_coords[0]
        assert s.a_plus[0] == u_poly({1: 2 * k})

    # self-dual torus: labels are 2 g(l) on the nose
    ident2 = build_model(2, [["1", "0"], ["0", "1"]],
                         [["0", "0"], ["0", "0"]],
                         [["1", "0"], ["0", "1"]])
    found = chiral_sectors(ident2, 2)
    assert len(found) == 25
    for s in found:
        assert s.lstar_coords == tuple(-x for x in s.l_coords)
        assert [x.as_exact() for x in s.a_plus] == [S(2 * x) for x in s.l_coords]

    # the self-dual partition function splits into two parity blocks
    # with disjoint weight supports
    def parity(s):
        d = s.l_coords[0] - s.lstar_coords[0]
        return d % 2

    full = partition_function(selfdual, 3, 4)
    even = partition_function(selfdual, 3, 4, sector_filter=lambda s: parity(s) == 0)
    odd = partition_function(selfdual, 3, 4, sector_filter=lambda s: parity(s) == 1)
    assert even + odd == full
    assert set(even.coeffs) & set(odd.coeffs) == set()
    for (e, eb) in even.coeffs:
        assert e.denominator == 1 and eb.denominator == 1
    for (e, eb) in odd.coeffs:
        assert e % 1 == Fraction(3, 4) and eb % 1 == Fraction(3, 4)

    print("criterion 10 PASS: chiral sectors (generic, self-dual) and the parity split of the partition function")
