"""Variational calculus tests: total derivatives, the bicomplex identity,
prolongation, Noether currents, and the on-shell restriction.

Expected values that are not forced by an identity were derived by hand
once and frozen here as parseable strings.
"""

import json
import random

import pytest

from chiraltorus.exactlin import ExactScalar
from chiraltorus.jetcalc import (
    DiffPoly,
    EvolutionaryField,
    Lagrangian,
    Monomial,
    NonLinearEL,
    NotASymmetry,
    NotFirstOrder,
    VariationalForm,
    boson_circle_lagrangian,
    contract,
    dz_jet,
    dzb_jet,
    enumerate_monomials,
    euler_lagrange,
    gen_conformal,
    gen_sigma,
    gen_tau,
    gen_translation,
    noether,
    parse_expr,
    poly_str,
    poly_to_tree,
    prolong,
    restrict_to_sol0,
    substitute_jets,
    torus_lagrangian,
    total_derivative,
    tree_to_poly,
    variational_one_form,
    wave_reduce_poly,
)

from test_exactlin import rand_scalar

S = ExactScalar
I = S(0, 1)

jet = DiffPoly.jet
sym = DiffPoly.symbol
trig = DiffPoly.trig
const = DiffPoly.const


def rand_poly(rng, nfields=2, max_order=2, nterms=3, with_syms=True):
    out = DiffPoly.zero()
    for _ in range(rng.randint(1, nterms)):
        mono = const(rand_scalar(rng))
        for _ in range(rng.randint(0, 3)):
            kind = rng.randint(0, 3 if with_syms else 1)
            if kind <= 1:
                i = rng.randint(1, nfields)
                a = rng.randint(0, max_order)
                b = rng.randint(0, max_order - a)
                mono = mono * jet(i, a, b)
            elif kind == 2:
                mono = mono * sym(rng.choice(["f", "g", "phi", "psi"]), rng.randint(0, 2))
            else:
                mono = mono * trig(rng.randint(-2, 2))
        out = out + mono
    return out


def rand_form(rng):
    parts = {}
    keys = [(i, a, b) for i in (1, 2) for a in (0, 1) for b in (0, 1)]
    for _ in range(rng.randint(1, 3)):
        v = rng.randint(0, 2)
        vkeys = tuple(rng.sample(keys, v))
        h = rng.choice([(), ("t",), ("s",), ("t", "s")])
        parts[(vkeys, h)] = rand_poly(rng)
    return VariationalForm(parts)


def rand_first_order_lagrangian(rng, n=2):
    out = DiffPoly.zero()
    for _ in range(rng.randint(1, 4)):
        mono = const(rand_scalar(rng))
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(1, n)
            a = rng.randint(0, 1)
            b = 0 if a else rng.randint(0, 1)
            mono = mono * jet(i, a, b)
        if rng.random() < 0.3:
            mono = mono * sym(rng.choice(["f", "g"]), rng.randint(0, 1))
        out = out + mono
    return Lagrangian(out, n=n)


def delta_x_term(els):
    """sum_i E_i delta x^i ^ dtau ^ dsigma as a VariationalForm."""
    parts = {}
    for i, e in enumerate(els, start=1):
        parts[(((i, 0, 0),), ("t", "s"))] = e
    return VariationalForm(parts)


class TestTotalDerivative:
    def test_order_bump(self):
        assert jet(1, 0, 0).D("s") == jet(1, 0, 1)
        assert jet(1, 0, 0).D("t") == jet(1, 1, 0)

    def test_leibniz_square(self):
        ut = jet(1, 1, 0)
        assert (ut * ut).D("t") == jet(1, 2, 0) * ut * 2

    def test_hol_symbol_chain(self):
        # D_sigma(f * d_z x) = i f' d_z x + f * d_sigma d_z x
        lhs = (sym("f") * dz_jet(1)).D("s")
        d_sigma_dz = (jet(1, 1, 1) - jet(1, 0, 2).scale(I)).scale(S.coerce(1) / S.coerce(2))
        rhs = sym("f", 1) * dz_jet(1) * I + sym("f") * d_sigma_dz
        assert lhs == rhs

    def test_antiholomorphic_rule(self):
        assert sym("g").D("s") == sym("g", 1).scale(-I)
        assert sym("g").D("t") == sym("g", 1)

    def test_circle_symbol_rule(self):
        assert sym("phi").D("t") == DiffPoly.zero()
        assert sym("phi").D("s") == sym("phi", 1)

    def test_trig_rule(self):
        assert trig(3).D("t") == DiffPoly.zero()
        assert trig(3).D("s") == trig(3).scale(I * 3)
        assert trig(-2).D("s") == trig(-2).scale(I * (-2))

    def test_derivatives_commute(self):
        rng = random.Random(71)
        for _ in range(20):
            p = rand_poly(rng)
            assert p.D("t").D("s") == p.D("s").D("t")

    def test_wrapper_accepts_long_names(self):
        p = jet(1, 0, 0) * jet(2, 1, 0)
        assert total_derivative("tau", p) == p.D("t")
        assert total_derivative("sigma", p) == p.D("s")
        with pytest.raises(ValueError):
            total_derivative("x", p)

    def test_holomorphic_symbols_are_dz_constant(self):
        # 2 D_zbar f = (D_tau + i D_sigma) f = 0, and the mirror for g
        f = sym("f", 2)
        assert f.D("t") + f.D("s").scale(I) == DiffPoly.zero()
        g = sym("g")
        assert g.D("t") - g.D("s").scale(I) == DiffPoly.zero()


class TestRingAndPartials:
    def test_partial_multiplicity(self):
        p = jet(1, 1, 0) ** 3
        assert p.partial((1, 1, 0)) == jet(1, 1, 0) ** 2 * 3
        assert p.partial((1, 0, 1)) == DiffPoly.zero()

    def test_like_terms_merge(self):
        assert jet(1, 0, 0) + jet(1, 0, 0) - jet(1, 0, 0).scale(2) == DiffPoly.zero()

    def test_product_derivation_consistency(self):
        rng = random.Random(5)
        for _ in range(10):
            p, q = rand_poly(rng), rand_poly(rng)
            assert (p * q).D("s") == p.D("s") * q + p * q.D("s")

    def test_substitute_jets_shift(self):
        # p_1 -> p_1 + 2 d_sigma x^2, consistently through sigma-derivatives
        shift = jet(1, 1, 0) + jet(2, 0, 1).scale(2)
        mapping = {(1, 1): shift}
        assert substitute_jets(jet(1, 1, 0) ** 2, mapping) == shift * shift
        assert substitute_jets(jet(1, 1, 3), mapping) == shift.D("s").D("s").D("s")
        assert substitute_jets(jet(2, 1, 0), mapping) == jet(2, 1, 0)


class TestParserPrinter:
    def test_jet_atoms(self):
        assert parse_expr("x3") == jet(3, 0, 0)
        assert parse_expr("dt.x1") == jet(1, 1, 0)
        assert parse_expr("ds.ds.x2") == jet(2, 0, 2)
        assert parse_expr("p2") == jet(2, 1, 0)
        assert parse_expr("ds.p1") == jet(1, 1, 1)

    def test_lightcone_sugar(self):
        assert parse_expr("dz.x1") == dz_jet(1)
        assert parse_expr("dzb.x1") == dzb_jet(1)
        assert parse_expr("dz.x1 + dzb.x1") == jet(1, 1, 0)

    def test_symbols_and_trig(self):
        assert parse_expr("fp") == sym("f", 1)
        assert parse_expr("gpp") == sym("g", 2)
        assert parse_expr("phi*psi") == sym("phi") * sym("psi")
        assert parse_expr("e(2)") == trig(2)
        assert parse_expr("e(-3)") == trig(-3)

    def test_arithmetic(self):
        got = parse_expr("1/2*i*(dt.x1^2 - ds.x1^2)")
        want = (jet(1, 1, 0) ** 2 - jet(1, 0, 1) ** 2).scale(I / S.coerce(2))
        assert got == want
        assert parse_expr("-x1 + 2*x1") == jet(1, 0, 0)

    def test_parse_errors(self):
        for bad in ["q1", "x", "dt.2", "x1 +", "pp", "e(2", "x1 x2"]:
            with pytest.raises(ValueError):
                parse_expr(bad)

    def test_round_trip_random(self):
        rng = random.Random(12)
        for _ in range(25):
            p = rand_poly(rng)
            assert parse_expr(poly_str(p)) == p

    def test_round_trip_xp_style(self):
        p = jet(1, 1, 0) * jet(2, 1, 2) + jet(1, 0, 1).scale(I)
        s = poly_str(p, style="xp")
        assert "p1" in s and "ds.ds.p2" in s
        assert parse_expr(s) == p

    def test_tree_round_trip(self):
        rng = random.Random(13)
        for _ in range(10):
            p = rand_poly(rng)
            blob = json.dumps(poly_to_tree(p), sort_keys=True)
            assert tree_to_poly(json.loads(blob)) == p

    def test_zero_prints_and_parses(self):
        assert poly_str(DiffPoly.zero()) == "0"
        assert parse_expr("0") == DiffPoly.zero()


class TestEulerLagrange:
    def test_free_boson(self):
        L = boson_circle_lagrangian()
        assert euler_lagrange(L) == [parse_expr("-i*(dt.dt.x1 + ds.ds.x1)")]

    def test_torus_b_term_drops(self):
        L = torus_lagrangian([[1, 0], [0, 1]], [[0, 1], [-1, 0]])
        els = euler_lagrange(L)
        assert els[0] == parse_expr("-i*(dt.dt.x1 + ds.ds.x1)")
        assert els[1] == parse_expr("-i*(dt.dt.x2 + ds.ds.x2)")

    def test_general_metric(self):
        L = torus_lagrangian([[1, 2], [2, 1]])
        els = euler_lagrange(L)
        assert els[0] == parse_expr("-i*(dt.dt.x1 + ds.ds.x1) - 2*i*(dt.dt.x2 + ds.ds.x2)")

    def test_zero_lagrangian(self):
        L = Lagrangian(DiffPoly.zero(), n=2)
        assert euler_lagrange(L) == [DiffPoly.zero(), DiffPoly.zero()]

    def test_not_first_order(self):
        with pytest.raises(NotFirstOrder):
            Lagrangian(jet(1, 2, 0))


class TestVariationalOneForm:
    def test_free_boson(self):
        gamma = variational_one_form(boson_circle_lagrangian())
        assert gamma.component(((1, 0, 0),), ("s",)) == parse_expr("i*dt.x1")
        assert gamma.component(((1, 0, 0),), ("t",)) == parse_expr("-i*ds.x1")
        assert len(gamma.parts) == 2

    def test_torus_with_b_field(self):
        # dsigma row: i g(u_tau)_j - (b u_sigma)_j; dtau row is minus the
        # honest Legendre transform i g(u_sigma)_j + (b u_tau)_j
        L = torus_lagrangian([[1, 0], [0, 2]], [[0, 1], [-1, 0]])
        gamma = variational_one_form(L)
        assert gamma.component(((1, 0, 0),), ("s",)) == parse_expr("i*dt.x1 - ds.x2")
        assert gamma.component(((2, 0, 0),), ("s",)) == parse_expr("2*i*dt.x2 + ds.x1")
        assert gamma.component(((1, 0, 0),), ("t",)) == parse_expr("-i*ds.x1 - dt.x2")
        assert gamma.component(((2, 0, 0),), ("t",)) == parse_expr("-2*i*ds.x2 + dt.x1")

    def test_zero(self):
        assert variational_one_form(Lagrangian(DiffPoly.zero(), n=1)).is_zero()


class TestBicomplex:
    def test_master_identity_boson(self):
        L = boson_circle_lagrangian()
        lhs = L.form().vertical_differential() \
            + variational_one_form(L).horizontal_differential() \
            - delta_x_term(euler_lagrange(L))
        assert lhs.is_zero()

    def test_master_identity_torus(self):
        L = torus_lagrangian([[2, 1], [1, 3]], [[0, 5], [-5, 0]])
        lhs = L.form().vertical_differential() \
            + variational_one_form(L).horizontal_differential() \
            - delta_x_term(euler_lagrange(L))
        assert lhs.is_zero()

    def test_master_identity_random(self):
        rng = random.Random(99)
        for _ in range(8):
            L = rand_first_order_lagrangian(rng)
            lhs = L.form().vertical_differential() \
                + variational_one_form(L).horizontal_differential() \
                - delta_x_term(euler_lagrange(L))
            assert lhs.is_zero()

    def test_d_squared(self):
        rng = random.Random(101)
        for _ in range(10):
            w = rand_form(rng)
            assert w.horizontal_differential().horizontal_differential().is_zero()

    def test_delta_squared(self):
        rng = random.Random(102)
        for _ in range(10):
            w = rand_form(rng)
            assert w.vertical_differential().vertical_differential().is_zero()

    def test_anticommutation(self):
        rng = random.Random(103)
        for _ in range(10):
            w = rand_form(rng)
            lhs = w.horizontal_differential().vertical_differential() \
                + w.vertical_differential().horizontal_differential()
            assert lhs.is_zero()


class TestProlong:
    def test_tau_translation_on_square(self):
        got = prolong(gen_tau(1), jet(1, 0, 1) ** 2)
        assert got == jet(1, 0, 1) * jet(1, 1, 1) * 2

    def test_target_translation_kills_bare_free(self):
        L = boson_circle_lagrangian()
        assert prolong(gen_translation(1, 1), L.density).is_zero()
        L2 = torus_lagrangian([[1, 0], [0, 1]], [[0, 1], [-1, 0]])
        assert prolong(gen_translation(2, 2), L2.density).is_zero()

    def test_conformal_density_is_exact(self):
        # x-hat(L) equals the density of -d(f * d_z x * d_zbar x * dzbar)
        L = boson_circle_lagrangian()
        q = prolong(gen_conformal(1), L.density)
        w = sym("f") * dz_jet(1) * dzb_jet(1)
        assert q == w.D("t").scale(I) + w.D("s")
        alpha = VariationalForm({((), ("t",)): -w, ((), ("s",)): w.scale(I)})
        d_alpha = alpha.horizontal_differential()
        assert d_alpha.component((), ("t", "s")) == q
        assert len(d_alpha.parts) == 1

    def test_prolong_through_delta_slots(self):
        # generator x^2 on delta x: the slot picks up the linearization 2x delta x
        form = VariationalForm({(((1, 0, 0),), ()): const(1)})
        got = prolong([jet(1, 0, 0) ** 2], form)
        assert got.component(((1, 0, 0),), ()) == jet(1, 0, 0) * 2

    def test_leibniz(self):
        rng = random.Random(31)
        gen = [rand_poly(rng, max_order=1, with_syms=False), jet(2, 1, 0)]
        for _ in range(6):
            p, q = rand_poly(rng), rand_poly(rng)
            assert prolong(gen, p * q) == prolong(gen, p) * q + p * prolong(gen, q)

    def test_commutes_with_total_derivatives(self):
        rng = random.Random(32)
        gen = [jet(1, 1, 0) * jet(1, 0, 0), sym("f") * dz_jet(2)]
        field = EvolutionaryField(gen)
        for _ in range(6):
            p = rand_poly(rng)
            for c in ("t", "s"):
                assert field.apply_poly(p.D(c)) == field.apply_poly(p).D(c)


class TestNoether:
    def test_hamiltonian_circle(self):
        H = noether(boson_circle_lagrangian(), gen_tau(1))
        assert H.component((), ("s",)) == parse_expr("-1/2*i*(dt.x1^2 - ds.x1^2)")
        assert H.component((), ("t",)) == parse_expr("i*dt.x1*ds.x1")
        assert len(H.parts) == 2

    def test_momentum_circle(self):
        H = noether(boson_circle_lagrangian(), gen_translation(1, 1))
        assert H.component((), ("s",)) == parse_expr("-i*dt.x1")
        assert H.component((), ("t",)) == parse_expr("i*ds.x1")

    def test_sigma_translation_circle(self):
        H = noether(boson_circle_lagrangian(), gen_sigma(1))
        assert H.component((), ("s",)) == parse_expr("-i*dt.x1*ds.x1")
        assert H.component((), ("t",)) == parse_expr("1/2*i*(ds.x1^2 - dt.x1^2)")

    def test_conformal_circle(self):
        # H_{f dz} = -f (d_z x)^2 dz, expanded over dtau, dsigma
        H = noether(boson_circle_lagrangian(), gen_conformal(1))
        assert H.component((), ("t",)) == parse_expr("-f*dz.x1^2")
        assert H.component((), ("s",)) == parse_expr("-i*f*dz.x1^2")

    def test_antiholomorphic_circle(self):
        H = noether(boson_circle_lagrangian(), gen_conformal(1, holomorphic=False))
        assert H.component((), ("t",)) == parse_expr("g*dzb.x1^2")
        assert H.component((), ("s",)) == parse_expr("-i*g*dzb.x1^2")

    def test_tau_translation_splits_into_chiral_halves(self):
        L = boson_circle_lagrangian()
        H_tau = noether(L, gen_tau(1))
        H_z = noether(L, gen_conformal(1, with_symbol=False))
        H_zb = noether(L, gen_conformal(1, holomorphic=False, with_symbol=False))
        assert H_tau == H_z + H_zb
        assert restrict_to_sol0(H_tau) == restrict_to_sol0(H_z) + restrict_to_sol0(H_zb)

    def test_hamiltonian_torus(self):
        g = [[1, 0], [0, 2]]
        b = [[0, 3], [-3, 0]]
        H = noether(torus_lagrangian(g, b), gen_tau(2))
        want_s = parse_expr("-1/2*i*(dt.x1^2 + 2*dt.x2^2 - ds.x1^2 - 2*ds.x2^2)")
        want_t = parse_expr("i*(ds.x1*dt.x1 + 2*ds.x2*dt.x2)")
        assert H.component((), ("s",)) == want_s
        assert H.component((), ("t",)) == want_t
        # the B-field does not contribute to the energy current
        assert H == noether(torus_lagrangian(g), gen_tau(2))

    def test_momentum_torus_includes_b(self):
        L = torus_lagrangian([[1, 0], [0, 2]], [[0, 1], [-1, 0]])
        H1 = noether(L, gen_translation(2, 1))
        assert H1.component((), ("s",)) == parse_expr("-i*dt.x1 + ds.x2")
        assert H1.component((), ("t",)) == parse_expr("i*ds.x1 + dt.x2")

    def test_conformal_torus(self):
        L = torus_lagrangian([[1, 0], [0, 2]])
        H = noether(L, gen_conformal(2))
        assert H.component((), ("t",)) == parse_expr("-f*(dz.x1^2 + 2*dz.x2^2)")
        assert H.component((), ("s",)) == parse_expr("-i*f*(dz.x1^2 + 2*dz.x2^2)")

    def test_not_a_symmetry(self):
        with pytest.raises(NotASymmetry):
            noether(boson_circle_lagrangian(), [jet(1, 0, 0) ** 2])

    def test_wrong_signature_metric_rejected(self):
        density = (jet(1, 1, 0) ** 2 - jet(1, 0, 1) ** 2).scale(I / S.coerce(2))
        with pytest.raises(NonLinearEL):
            noether(Lagrangian(density), gen_tau(1))


class TestRestrict:
    def test_rewrite_rule(self):
        assert restrict_to_sol0(jet(1, 2, 0)) == -jet(1, 0, 2)
        assert restrict_to_sol0(jet(1, 3, 1)) == -jet(1, 1, 3)
        assert restrict_to_sol0(jet(1, 4, 0)) == jet(1, 0, 4)
        assert wave_reduce_poly(jet(1, 2, 0) + jet(1, 0, 2)).is_zero()

    def test_hamiltonian_restricts_to_sigma_part(self):
        H = noether(boson_circle_lagrangian(), gen_tau(1))
        got = restrict_to_sol0(H)
        assert got == VariationalForm(
            {((), ("s",)): parse_expr("-1/2*i*(dt.x1^2 - ds.x1^2)")}
        )

    def test_sigma_translation_restricts(self):
        H = noether(boson_circle_lagrangian(), gen_sigma(1))
        assert restrict_to_sol0(H) == VariationalForm(
            {((), ("s",)): parse_expr("-i*dt.x1*ds.x1")}
        )

    def test_delta_slots_rewrite(self):
        w = VariationalForm({(((1, 2, 0),), ("s",)): const(5)})
        got = restrict_to_sol0(w)
        assert got == VariationalForm({(((1, 0, 2),), ("s",)): const(-5)})

    def test_model_validation(self):
        wave = boson_circle_lagrangian()
        restrict_to_sol0(jet(1, 2, 0), wave)
        bad = Lagrangian((jet(1, 1, 0) ** 2 - jet(1, 0, 1) ** 2).scale(I))
        with pytest.raises(NonLinearEL):
            restrict_to_sol0(jet(1, 2, 0), bad)


class TestEnumerateMonomials:
    def test_single_field_weight_one(self):
        got = enumerate_monomials((0, (1,), ()), 1)
        assert got == [
            Monomial(0, (), ((1, 0, 1),)),
            Monomial(0, (), ((1, 1, 0),)),
        ]

    def test_forbid_bare(self):
        content = (0, (1, 1), ())
        full = enumerate_monomials(content, 1)
        strict = enumerate_monomials(content, 1, forbid_bare=True)
        assert strict == []
        assert any((1, 0, 0) in m.jets for m in full)

    def test_symbol_weight_split(self):
        got = enumerate_monomials((2, (), ("f",)), 1)
        assert got == [Monomial(2, (("f", 1),), ())]
