"""Bracket calculus on circle densities: delta expansions, Fourier-mode
classes, structure constants of the free-boson mode algebras, flows,
and the twisted Jacobi probe."""

import operator
import random
import re
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraltorus import coisson
from chiraltorus.exactlin import ChiraltorusError, DimensionMismatch, NotAntisymmetric
from chiraltorus.exactlin import ExactScalar as S
from chiraltorus.jetcalc import (
    DiffPoly,
    _as_poly,
    _blocks,
    _image_basis,
    _integer_view,
    _reduce_table,
    block_key,
    boson_circle_lagrangian,
    gen_tau,
    noether,
    parse_expr,
    restrict_to_sol0,
)
from chiraltorus.coisson import (
    BracketTable,
    DeltaExpansion,
    FourierClass,
    LocalDensity,
    NotADensity,
    UnknownFamily,
    as_density,
    b_shift,
    boson_table,
    density_bracket,
    dz_density,
    dzb_density,
    fourier_bracket,
    from_tau_jets,
    generator_density,
    hamiltonian_flow,
    jacobi_residual,
    mode_structure_constants,
    normal_form,
    variational_derivative,
)
import delta_oracle as oracle
from test_exactlin import rand_scalar

I = S(0, 1)
HALF = S("1/2")
TABLE = boson_table()


def P(text):
    return parse_expr(text)


def rand_density(rng, nfields=2, maxterms=3, maxfactors=3, with_syms=False):
    out = DiffPoly.zero()
    for _ in range(rng.randint(1, maxterms)):
        mono = DiffPoly.const(rand_scalar(rng))
        if rng.random() < 0.5:
            mono = mono * DiffPoly.trig(rng.randint(-2, 2))
        for _ in range(rng.randint(1, maxfactors)):
            i = rng.randint(1, nfields)
            a = rng.choice([0, 1])
            b = rng.randint(0, 2)
            mono = mono * DiffPoly.jet(i, a, b)
        if with_syms and rng.random() < 0.3:
            mono = mono * DiffPoly.symbol(rng.choice(["phi", "psi"]), rng.randint(0, 1))
        out = out + mono
    return out


# ----------------------------------------------------------------------
# delta expansions
# ----------------------------------------------------------------------

class TestDeltaExpansion:
    """The slot calculus of the reference path in delta_oracle."""

    def test_taylor_transport_order_two(self):
        # F(s) d^2 delta = F d^2 - 2 F' d + F'' at s'
        F = P("e(3)*x1")
        E = oracle.transport(DeltaExpansion({2: DiffPoly.const(1)}), F)
        assert oracle.coefficient(E, 2) == F
        assert oracle.coefficient(E, 1) == F.D("s").scale(-2)
        assert oracle.coefficient(E, 0) == F.D("s").D("s")

    def test_zero_is_the_empty_expansion(self):
        zero = DeltaExpansion.zero()
        assert zero == DeltaExpansion() and zero.is_zero() and str(zero) == "0"
        E = DeltaExpansion({1: P("p1"), 0: P("x1")})
        assert E + zero == E and E - E == zero

    def test_transport_of_constant_is_multiplication(self):
        E = DeltaExpansion({1: P("p1"), 0: P("x1")})
        assert oracle.transport(E, DiffPoly.const(5)) == E.scale(5)

    def test_second_slot_derivative(self):
        E = DeltaExpansion({0: P("x1")})
        D = oracle.d_sigma_prime(E)
        assert oracle.coefficient(D, 0) == P("ds.x1")
        assert oracle.coefficient(D, 1) == P("-x1")

    def test_diagonal_derivative_hits_coefficients(self):
        # (d_sigma + d_sigma') of an expansion differentiates each c_k
        rng = random.Random(7)
        for _ in range(10):
            E = DeltaExpansion({0: rand_density(rng), 1: rand_density(rng)})
            both = oracle.d_sigma(E) + oracle.d_sigma_prime(E)
            expected = DeltaExpansion(
                {k: oracle.coefficient(E, k).D("s") for k in (0, 1)}
            )
            assert both == expected

    def test_trig_transport_matches_difference_rule(self):
        # [e_m(s) - e_m(s')] d delta = -(d e_m)(s') delta
        m = 4
        E = DeltaExpansion({1: DiffPoly.const(1)})
        moved = oracle.transport(E, DiffPoly.trig(m))
        direct = oracle.mul_second_slot(E, DiffPoly.trig(m))
        diff = moved + direct.scale(-1)
        assert diff == DeltaExpansion({0: DiffPoly.trig(m).D("s").scale(-1)})


# ----------------------------------------------------------------------
# the generator table
# ----------------------------------------------------------------------

class TestBracketTable:
    def test_momentum_field_pairing(self):
        t = BracketTable()
        assert t.base_bracket((2, 1), (2, 0)) == DiffPoly.const(1)
        assert t.base_bracket((2, 0), (2, 1)) == DiffPoly.const(-1)
        assert t.base_bracket((1, 1), (2, 0)).is_zero()
        assert t.base_bracket((1, 0), (2, 0)).is_zero()

    def test_boson_table_scale(self):
        assert boson_table().scale == S(-1)

    def test_twist_full_antisymmetry(self):
        t = BracketTable(twist={(1, 2, 3): "x4"})
        x4 = P("x4")
        assert t.twist_coefficient(1, 2, 3) == x4
        assert t.twist_coefficient(2, 1, 3) == -x4
        assert t.twist_coefficient(2, 3, 1) == x4
        assert t.twist_coefficient(3, 1, 2) == x4
        assert t.twist_coefficient(1, 3, 2) == -x4
        assert t.twist_coefficient(1, 1, 2).is_zero()
        assert t.twist_coefficient(1, 2, 4).is_zero()

    def test_twisted_momentum_bracket(self):
        t = BracketTable(twist={(1, 2, 3): "x4"})
        assert t.momentum_momentum(1, 2) == P("x4*ds.x3")
        assert t.momentum_momentum(2, 1) == P("-x4*ds.x3")
        assert t.momentum_momentum(1, 3) == P("-x4*ds.x2")
        assert t.momentum_momentum(1, 4).is_zero()

    def test_twist_validation(self):
        with pytest.raises(ValueError):
            BracketTable(twist={(2, 1, 3): "x1"})
        with pytest.raises(ValueError):
            BracketTable(twist={(1, 2, 3): "ds.x1"})
        with pytest.raises(ValueError):
            BracketTable(twist={(1, 2, 3): "p1"})

    def test_zero_twist_value_leaves_no_entry(self):
        t = BracketTable(twist={(1, 2, 3): "0", (1, 2, 4): "x1 - x1"})
        assert t.twist == {}
        assert t.momentum_momentum(1, 2).is_zero()

    @pytest.mark.parametrize("twist,message", [
        ({(1, 2, 3): 5}, "twist value must be a string or a DiffPoly, got 5"),
        ({(1, 2, 3): None}, "twist value must be a string or a DiffPoly, got None"),
        ({(1, 2, 3): ["x4"]}, "twist value must be a string or a DiffPoly, got ['x4']"),
        ({(1, 2): "x4"}, "twist key must be three indices, got (1, 2)"),
        ({(1, 2, 3, 4): "x4"}, "twist key must be three indices, got (1, 2, 3, 4)"),
        ({5: "x4"}, "twist key must be three indices, got 5"),
    ], ids=["value-int", "value-None", "value-list", "key-2", "key-4", "key-int"])
    def test_twist_entry_of_the_wrong_type_is_refused(self, twist, message):
        with pytest.raises(ChiraltorusError, match=f"^{re.escape(message)}$") as info:
            BracketTable(twist=twist)
        assert info.value.exit_code == 1


# ----------------------------------------------------------------------
# density brackets
# ----------------------------------------------------------------------

class TestDensityBracket:
    def test_chiral_current_self_bracket(self):
        # {i d_z x(s), i d_z x(s')} = (1/2) d_sigma delta
        a = dz_density(1).scale(I)
        E = density_bracket(a, a, TABLE)
        assert E == DeltaExpansion({1: DiffPoly.const(HALF)})

    def test_chiral_antichiral_commute_for_any_b_field(self):
        g = [[1, 0], [0, 2]]
        b = [[0, 3], [-3, 0]]
        for i in (1, 2):
            for j in (1, 2):
                E = density_bracket(
                    dz_density(i, g, b), dzb_density(j, g, b), TABLE
                )
                assert E.is_zero()

    def test_chiral_bracket_sees_inverse_metric(self):
        # {i d_z x^i, i d_z x^j} = (1/2) g^{ij} d delta, B-independent
        g = [[2, 0], [0, 3]]
        b = [[0, 5], [-5, 0]]
        for (i, j, gij) in ((1, 1, "1/2"), (2, 2, "1/3"), (1, 2, "0")):
            E = density_bracket(
                dz_density(i, g, b).scale(I), dz_density(j, g, b).scale(I), TABLE
            )
            expected = DiffPoly.const(S(gij)) .scale(HALF)
            assert E == DeltaExpansion({1: expected})

    def test_stress_density_self_bracket(self):
        # coefficients 2 T(s') and -d_s' T(s') on d delta and delta
        T = dz_density(1) ** 2
        a = T.scale(-I)
        E = density_bracket(a, a, TABLE)
        assert E == DeltaExpansion({1: T.scale(2), 0: -(T.D("s"))})

    def test_first_slot_derivative_rule(self):
        rng = random.Random(11)
        for _ in range(8):
            a = rand_density(rng)
            b = rand_density(rng)
            lhs = density_bracket(a.D("s"), b, TABLE)
            assert lhs == oracle.d_sigma(density_bracket(a, b, TABLE))

    def test_second_slot_derivative_rule(self):
        rng = random.Random(12)
        for _ in range(8):
            a = rand_density(rng)
            b = rand_density(rng)
            lhs = density_bracket(a, b.D("s"), TABLE)
            assert lhs == oracle.d_sigma_prime(density_bracket(a, b, TABLE))

    def test_leibniz_in_second_slot(self):
        rng = random.Random(13)
        for _ in range(6):
            a = rand_density(rng, maxterms=1)
            b = rand_density(rng, maxterms=1, maxfactors=2)
            c = rand_density(rng, maxterms=1, maxfactors=2)
            lhs = density_bracket(a, b * c, TABLE)
            rhs = oracle.mul_second_slot(density_bracket(a, b, TABLE), c) + \
                oracle.mul_second_slot(density_bracket(a, c, TABLE), b)
            assert lhs == rhs

    def test_density_validation(self):
        with pytest.raises(NotADensity):
            density_bracket(P("dt.dt.x1"), P("x1"), TABLE)
        with pytest.raises(NotADensity):
            density_bracket(P("f*x1"), P("x1"), TABLE)
        assert str(LocalDensity("phi*p1")) == "phi*p1"  # circle symbols are fine
        with pytest.raises(NotADensity, match="^cannot interpret 5 as a density$") as info:
            as_density(5)
        assert type(info.value) is NotADensity
        assert info.value.exit_code == 2


# ----------------------------------------------------------------------
# the Euler operator against the slot-calculus reference path
# ----------------------------------------------------------------------

ORACLE_TABLES = {
    "untwisted": boson_table(),
    "constant": boson_table(twist={(1, 2, 3): "1"}),
    "x1": boson_table(twist={(1, 2, 3): "x1"}),
    "x4x1": boson_table(twist={(1, 2, 4): "x4*x1"}),
}

gaussian = st.builds(
    S, st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
).filter(lambda c: not c.is_zero())
jets = st.builds(DiffPoly.jet, st.integers(1, 4), st.integers(0, 1), st.integers(0, 2))
factors = st.one_of(
    jets,
    st.builds(DiffPoly.trig, st.integers(-2, 2)),
    st.builds(DiffPoly.symbol, st.sampled_from(["phi", "psi"]), st.integers(0, 1)),
)


def densities(max_terms=2, max_factors=3):
    """Sums of up to max_terms monomials: a Gaussian-rational coefficient,
    a jet, and up to max_factors - 1 further jets, trig modes or symbols."""
    term = st.builds(
        lambda c, u, rest: reduce(operator.mul, rest, u.scale(c)),
        gaussian, jets, st.lists(factors, max_size=max_factors - 1),
    )
    return st.lists(term, min_size=1, max_size=max_terms).map(sum)


class TestEulerOperator:
    def test_euler_operator_of_a_known_density(self):
        # delta/delta x of x ds.x^2 = ds.x^2 - D(2 x ds.x) = -ds.x^2 - 2 x ds.ds.x
        out = variational_derivative(P("x1*ds.x1^2 + e(1)*p2"))
        assert out == {(1, 0): P("-ds.x1^2 - 2*x1*ds.ds.x1"), (2, 1): P("e(1)")}

    def test_higher_coefficients_are_binomial(self):
        # (lambda - D)^2 phi = lambda^2 phi - 2 lambda phi' + phi''
        poly = P("phi*ds.ds.x1")
        assert variational_derivative(poly, 2) == {(1, 0): P("phi")}
        assert variational_derivative(poly, 1) == {(1, 0): P("-2*phip")}
        assert variational_derivative(poly, 0) == {(1, 0): P("phipp")}
        assert variational_derivative(poly, 3) == {}

    @settings(max_examples=40, deadline=None)
    @given(f=densities())
    def test_total_derivatives_die(self, f):
        assert variational_derivative(f.D("s")) == {}

    def test_jacobi_takes_one_normal_form(self, monkeypatch):
        calls = []
        real = coisson.normal_form
        monkeypatch.setattr(coisson, "normal_form", lambda d: calls.append(1) or real(d))
        jacobi_residual(ORACLE_TABLES["x1"], P("e(1)*p1"), P("p2*x3"), P("ds.p3"))
        assert len(calls) == 1

    def test_jacobi_takes_each_arguments_euler_operator_once(self, monkeypatch):
        # three for a, b and c, and one for each of the three inner brackets
        seen = []
        real = coisson._euler
        monkeypatch.setattr(coisson, "_euler",
                            lambda view: seen.append(coisson._as_poly(*view)) or real(view))
        args = [P("e(1)*p1"), P("p2*x3"), P("ds.p3")]
        jacobi_residual(ORACLE_TABLES["x1"], *args)
        assert len(seen) == 6
        assert [sum(poly == arg for poly in seen) for arg in args] == [1, 1, 1]

    @pytest.mark.parametrize("k", [True, -1, 1.5, "1"])
    def test_bad_order_is_refused(self, k):
        with pytest.raises(ChiraltorusError, match=r"^k must be"):
            variational_derivative(P("phi*ds.ds.x1"), k)


@pytest.mark.parametrize("name", sorted(ORACLE_TABLES))
class TestAgainstSlotCalculus:
    @settings(max_examples=25, deadline=None)
    @given(a=densities(), b=densities())
    def test_brackets_and_flows(self, name, a, b):
        table = ORACLE_TABLES[name]
        assert density_bracket(a, b, table) == oracle.slot_bracket(a, b, table)
        assert fourier_bracket(a, b, table) == oracle.slot_fourier_bracket(a, b, table)
        assert hamiltonian_flow(a, b, table) == oracle.slot_flow(a, b, table)

    @settings(max_examples=12, deadline=None)
    @given(a=densities(2, 2), b=densities(2, 2), c=densities(2, 2))
    def test_jacobi_residual(self, name, a, b, c):
        table = ORACLE_TABLES[name]
        got = jacobi_residual(table, a, b, c)
        assert got == oracle.slot_jacobi_residual(table, a, b, c)


# ----------------------------------------------------------------------
# normal forms and Fourier classes
# ----------------------------------------------------------------------

def every_layer_normal_form(density) -> DiffPoly:
    """normal_form with each block's basis built over every weight from 0
    to the target's top, where normal_form builds only the layers its
    reduction can pivot on."""
    table, D = _integer_view(coisson.as_density(density).coeffs)
    out = DiffPoly.zero()
    for content, target in _blocks(table, "s"):
        top = max(block_key(m, "s")[1] for m in target)
        _, basis = _image_basis(content, tuple(range(top + 1)), "s", True)
        out = out + _as_poly(*_reduce_table(target, D, basis))
    return out


# the densities fourier_bracket normalizes, on every twist, and a density
# of its own: trig modes, phi/psi and jets of every order the strategy draws
@pytest.mark.parametrize("name", sorted(ORACLE_TABLES))
@settings(max_examples=50, deadline=None)
@given(a=densities(2, 2), b=densities(2, 2), c=densities())
def test_normal_form_equals_the_every_layer_reduction(name, a, b, c):
    for density in (coisson._pairing(a, b, ORACLE_TABLES[name]), c):
        assert normal_form(density) == every_layer_normal_form(density)


class TestNormalForm:
    def test_total_derivatives_die(self):
        assert FourierClass("ds.x1").is_zero()
        assert FourierClass("ds.p2").is_zero()
        assert FourierClass(P("x1*p1").D("s")).is_zero()

    def test_nonzero_mode_constants_die(self):
        assert FourierClass("e(3)").is_zero()
        assert FourierClass("e(-1)").is_zero()
        assert not FourierClass("1").is_zero()

    def test_bare_field_with_mode_survives(self):
        c = FourierClass("e(2)*x1")
        assert not c.is_zero()
        assert c.rep == P("e(2)*x1")

    def test_by_parts_with_mode(self):
        m = 3
        lhs = FourierClass(DiffPoly.trig(m) * P("ds.x1"))
        rhs = FourierClass(DiffPoly.trig(m) * P("x1").scale(S(0, -m)))
        assert lhs == rhs

    def test_by_parts_two_factors(self):
        assert FourierClass("ds.ds.x1*x1") == FourierClass("-ds.x1^2")

    def test_idempotent_and_shift_invariant(self):
        rng = random.Random(17)
        for _ in range(10):
            a = rand_density(rng, with_syms=True)
            junk = rand_density(rng, maxterms=2)
            nf = normal_form(a)
            assert normal_form(nf) == nf
            assert FourierClass(a + junk.D("s")) == FourierClass(a)

    def test_class_arithmetic(self):
        a = FourierClass("e(1)*x1")
        z = a + a.scale(-1)
        assert z.is_zero()
        assert (-a) == a.scale(-1)
        assert (a - "e(1)*x1").is_zero()
        # ds.x1*x2 is -x1*ds.x2 modulo total derivatives
        assert str(a - "2*ds.x1*x2") == "[2*x1*ds.x2 + e(1)*x1]"
        assert str(FourierClass.zero()) == "[0]"


class TestFourierBracket:
    @pytest.mark.parametrize("i", [0, -2])
    def test_field_index_below_one_never_reaches_the_bracket(self, i):
        # fourier_bracket(x_i', x_i, ...) gave [-1] for i = 0 and -2 while
        # jets took any index
        with pytest.raises(ChiraltorusError, match=f"^field index {i} is below 1$"):
            fourier_bracket(DiffPoly.jet(i, 1, 0), DiffPoly.jet(i, 0, 0), boson_table())

    def test_field_index_below_one_never_reaches_from_tau_jets(self):
        with pytest.raises(ChiraltorusError, match="^field index 0 is below 1$"):
            from_tau_jets(DiffPoly.jet(0, 1, 0) + DiffPoly.jet(1, 1, 0), [[1]])

    def test_momentum_against_winding_profile(self):
        # {int phi p_1, int psi d_s x^1} = -int phi' psi
        out = fourier_bracket(P("phi*p1"), P("psi*ds.x1"), TABLE)
        assert out == FourierClass("-phip*psi")
        zero = fourier_bracket(P("phi*p1"), P("psi*ds.x2"), TABLE)
        assert zero.is_zero()

    def test_momentum_winding_modes(self):
        # e^{-ims} p against e^{-ins} d_s x: i m delta_{m,-n}
        out = fourier_bracket(P("e(-3)*p1"), P("e(3)*ds.x1"), TABLE)
        assert out == FourierClass(DiffPoly.const(S(0, 3)))
        assert fourier_bracket(P("e(-2)*p1"), P("e(-5)*ds.x1"), TABLE).is_zero()

    def test_antisymmetry_on_classes(self):
        rng = random.Random(23)
        for _ in range(8):
            a = rand_density(rng)
            b = rand_density(rng)
            ab = fourier_bracket(a, b, TABLE)
            ba = fourier_bracket(b, a, TABLE)
            assert ab == -ba

    def test_exact_densities_are_central(self):
        rng = random.Random(29)
        for _ in range(6):
            a = rand_density(rng)
            b = rand_density(rng)
            assert fourier_bracket(a.D("s"), b, TABLE).is_zero()
            assert fourier_bracket(a, b.D("s"), TABLE).is_zero()

    def test_well_defined_on_classes(self):
        rng = random.Random(31)
        for _ in range(6):
            a = rand_density(rng)
            b = rand_density(rng)
            junk = rand_density(rng, maxterms=1)
            lhs = fourier_bracket(a + junk.D("s"), b, TABLE)
            assert lhs == fourier_bracket(a, b, TABLE)


# ----------------------------------------------------------------------
# mode families of the free boson
# ----------------------------------------------------------------------

def heis(mode, sign="+"):
    return generator_density("heis" + sign, mode)


def vir(mode, sign="+"):
    return generator_density("vir" + sign, mode)


class TestModeFamilies:
    def test_generators_from_tau_jets(self):
        assert heis(2) == LocalDensity(
            (DiffPoly.trig(2) * dz_density(1)).scale(I)
        )
        assert vir(3) == LocalDensity(
            (DiffPoly.trig(3) * dz_density(1) ** 2).scale(-I)
        )
        assert generator_density("momentum") == LocalDensity(
            from_tau_jets(P("-i*dt.x1"))
        )

    def test_energy_density_from_noether_current(self):
        lag = boson_circle_lagrangian()
        current = noether(lag, gen_tau(1))
        on_shell = restrict_to_sol0(current, lag)
        sigma_part = on_shell.coeffs[((), ("s",))]
        assert from_tau_jets(sigma_part) == generator_density("hamiltonian").poly

    @pytest.mark.parametrize("call, exc", [
        # a B-field larger than the metric, a ragged one, a symmetric one
        (lambda: dz_density(1, [[1]], [[0, 5], [-5, 0]]), DimensionMismatch),
        (lambda: dz_density(1, [[1, 0], [0, 1]], [[0, 1]]), DimensionMismatch),
        (lambda: dz_density(1, [[1, 0], [0, 1]], [[0, 1], [1, 0]]), NotAntisymmetric),
        # a field index above the metric size, and a tau-order 2 jet
        (lambda: from_tau_jets(P("dt.x3 + dt.x1"), [[2]]), DimensionMismatch),
        (lambda: from_tau_jets(P("dt.dt.x1")), NotADensity),
    ])
    def test_from_tau_jets_refuses(self, call, exc):
        with pytest.raises(exc) as info:
            call()
        assert info.value.exit_code == 2

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            generator_density("spin4", 0)
        with pytest.raises(UnknownFamily):
            mode_structure_constants(["heis+", "wrong"], 0, 0)

    def test_heisenberg_modes(self):
        # {a_m, a_n} = -(1/2) m delta_{m,-n} i
        for m, n in ((2, -2), (5, -5)):
            out = fourier_bracket(heis(m), heis(n), TABLE)
            assert out == FourierClass(DiffPoly.const(S(0, -m) * HALF))
        assert fourier_bracket(heis(2), heis(3), TABLE).is_zero()
        assert fourier_bracket(heis(0), heis(0), TABLE).is_zero()

    def test_antichiral_heisenberg_modes(self):
        for m, n in ((3, -3), (1, -1)):
            out = fourier_bracket(heis(m, "-"), heis(n, "-"), TABLE)
            assert out == FourierClass(DiffPoly.const(S(0, m) * HALF))

    def test_chiral_antichiral_modes_commute(self):
        for m, n in ((2, 3), (4, -4), (0, 1)):
            assert fourier_bracket(heis(m), heis(n, "-"), TABLE).is_zero()
            assert fourier_bracket(vir(m), vir(n, "-"), TABLE).is_zero()

    def test_witt_modes(self):
        # {L_m, L_n} = (m - n) L_{m+n}, no central term classically
        for m, n in ((2, 3), (1, -1), (4, -2), (0, 5)):
            out = fourier_bracket(vir(m), vir(n), TABLE)
            assert out == FourierClass(vir(m + n).poly.scale(m - n))

    def test_antichiral_witt_modes_flip_sign(self):
        for m, n in ((2, 3), (1, -1), (3, -2)):
            out = fourier_bracket(vir(m, "-"), vir(n, "-"), TABLE)
            assert out == FourierClass(vir(m + n, "-").poly.scale(n - m))

    def test_witt_action_on_heisenberg(self):
        # {L_m, a_n} = -n a_{m+n} and the mirror {Lbar_m, abar_n} = +n
        for m, n in ((2, 3), (0, 4), (1, -1)):
            out = fourier_bracket(vir(m), heis(n), TABLE)
            assert out == FourierClass(heis(m + n).poly.scale(-n))
            mirror = fourier_bracket(vir(m, "-"), heis(n, "-"), TABLE)
            assert mirror == FourierClass(heis(m + n, "-").poly.scale(n))
        assert fourier_bracket(vir(2), heis(3, "-"), TABLE).is_zero()
        assert fourier_bracket(vir(2, "-"), heis(3), TABLE).is_zero()

    def test_energy_grades_modes(self):
        # ad(int H) is diagonal: eigenvalue -n on chiral modes, +n on
        # antichiral ones, and it agrees with the zero-mode Witt action
        H = generator_density("hamiltonian")
        for n in (1, 3, -2):
            out = fourier_bracket(H, heis(n), TABLE)
            assert out == FourierClass(heis(n).poly.scale(-n))
            assert out == fourier_bracket(vir(0), heis(n), TABLE)
            mirror = fourier_bracket(H, heis(n, "-"), TABLE)
            assert mirror == FourierClass(heis(n, "-").poly.scale(n))
            assert mirror == fourier_bracket(vir(0, "-"), heis(n, "-"), TABLE)

    def test_energy_is_sum_of_chiralities(self):
        H = generator_density("hamiltonian")
        assert FourierClass(H.poly) == FourierClass(vir(0).poly + vir(0, "-").poly)

    def test_momentum_and_winding_are_central(self):
        fams = ["heis+", "heis-", "vir+", "vir-", "hamiltonian"]
        for central in ("momentum", "winding"):
            cd = generator_density(central)
            for fam in fams:
                gen = generator_density(fam, 2)
                assert fourier_bracket(cd, gen, TABLE).is_zero()
                assert fourier_bracket(gen, cd, TABLE).is_zero()

    def test_structure_constant_table(self):
        fams = ["heis+", "vir+"]
        tab = mode_structure_constants(fams, 2, -2)
        assert tab[("heis+", "heis+")] == FourierClass(DiffPoly.const(S(0, -1)))
        assert tab[("vir+", "vir+")] == FourierClass(vir(0).poly.scale(4))
        assert tab[("vir+", "heis+")] == FourierClass(heis(0).poly.scale(2))
        swapped = mode_structure_constants(fams, -2, 2)
        for fa in fams:
            for fb in fams:
                assert tab[(fa, fb)] == -swapped[(fb, fa)]

    def test_structure_constants_read_the_given_table(self):
        fams = ["heis+", "vir+", "hamiltonian"]
        table = BracketTable(twist={(1, 2, 3): "x1"})
        tab = mode_structure_constants(fams, 2, -1, table)
        for fa in fams:
            for fb in fams:
                expected = fourier_bracket(generator_density(fa, 2),
                                           generator_density(fb, -1), table)
                assert tab[(fa, fb)] == expected
        # scale +1 against the boson table's -1: every bracket changes sign
        default = mode_structure_constants(fams, 2, -1)
        assert tab == {key: -value for key, value in default.items()}
        assert any(not value.is_zero() for value in tab.values())


# ----------------------------------------------------------------------
# flows
# ----------------------------------------------------------------------

class TestHamiltonianFlow:
    def test_flow_of_field_is_time_derivative(self):
        H = generator_density("hamiltonian")
        out = hamiltonian_flow(H, P("x1"), TABLE)
        assert out == LocalDensity("-i*p1")
        assert out.poly == from_tau_jets(P("dt.x1"))

    def test_flow_of_time_derivative_is_wave_rhs(self):
        H = generator_density("hamiltonian")
        velocity = from_tau_jets(P("dt.x1"))
        out = hamiltonian_flow(H, velocity, TABLE)
        assert out == LocalDensity("-ds.ds.x1")

    def test_flow_kills_constants(self):
        H = generator_density("hamiltonian")
        assert hamiltonian_flow(H, P("7"), TABLE).poly.is_zero()

    def test_flow_ignores_exact_hamiltonian_shifts(self):
        rng = random.Random(37)
        H = generator_density("hamiltonian")
        for _ in range(5):
            junk = rand_density(rng, maxterms=2)
            a = rand_density(rng, maxterms=2)
            lhs = hamiltonian_flow(LocalDensity(H.poly + junk.D("s")), a, TABLE)
            assert lhs == hamiltonian_flow(H, a, TABLE)

    def test_jordan_cell_on_position_average(self):
        # D(int x) = int d_tau x is nonzero, D^2(int x) is zero
        H = generator_density("hamiltonian")
        first = hamiltonian_flow(H, P("x1"), TABLE)
        assert not FourierClass(first.poly).is_zero()
        second = hamiltonian_flow(H, first.poly, TABLE)
        assert FourierClass(second.poly).is_zero()


# ----------------------------------------------------------------------
# Jacobi and twist obstructions
# ----------------------------------------------------------------------

class TestJacobi:
    def test_untwisted_random_triples(self):
        rng = random.Random(41)
        for _ in range(6):
            a = rand_density(rng, maxterms=2, maxfactors=2)
            b = rand_density(rng, maxterms=2, maxfactors=2)
            c = rand_density(rng, maxterms=2, maxfactors=2)
            assert jacobi_residual(TABLE, a, b, c).is_zero()

    def test_constant_twist_random_triples(self):
        rng = random.Random(43)
        t = boson_table(twist={(1, 2, 3): "1"})
        for _ in range(6):
            a = rand_density(rng, nfields=3, maxterms=2, maxfactors=2)
            b = rand_density(rng, nfields=3, maxterms=2, maxfactors=2)
            c = rand_density(rng, nfields=3, maxterms=2, maxfactors=2)
            assert jacobi_residual(t, a, b, c).is_zero()

    def test_constant_twist_momentum_modes(self):
        t = boson_table(twist={(1, 2, 3): "1"})
        for modes in ((1, 1, -2), (2, 0, 3)):
            m1, m2, m3 = modes
            r = jacobi_residual(
                t,
                DiffPoly.trig(m1) * P("p1"),
                DiffPoly.trig(m2) * P("p2"),
                DiffPoly.trig(m3) * P("p3"),
            )
            assert r.is_zero()

    def test_nonclosed_twist_obstructs(self):
        # h_123 = x^4: each cyclic term contributes, and the sum reduces
        # to i (m1+m2+m3) e(m1+m2+m3) x^4
        t = boson_table(twist={(1, 2, 3): "x4"})
        for m1, m2, m3 in ((1, 1, 1), (0, 0, 1), (2, -1, 3)):
            r = jacobi_residual(
                t,
                DiffPoly.trig(m1) * P("p1"),
                DiffPoly.trig(m2) * P("p2"),
                DiffPoly.trig(m3) * P("p3"),
            )
            total = m1 + m2 + m3
            expected = FourierClass(
                (DiffPoly.trig(total) * P("x4")).scale(S(0, total))
            )
            assert r == expected
            assert not r.is_zero()

    def test_nonclosed_twist_with_test_profiles(self):
        t = boson_table(twist={(1, 2, 3): "x4"})
        r = jacobi_residual(t, P("phi*p1"), P("psi*p2"), P("p3"))
        assert r == FourierClass("-phi*psi*ds.x4")
        assert not r.is_zero()


class TestBShift:
    ALPHA = [[0, "1/2"], ["-1/2", 0]]

    def test_shift_rewrites_momenta(self):
        assert b_shift(P("p1"), self.ALPHA) == P("p1 + 1/2*ds.x2")
        assert b_shift(P("ds.p2"), self.ALPHA) == P("ds.p2 - 1/2*ds.ds.x1")
        assert b_shift(P("x1*p1"), self.ALPHA) == P("x1*p1 + 1/2*x1*ds.x2")
        # a sigma tower climbed in a loop, not one call frame per derivative
        deep = P("ds." * 900 + "p1")
        assert b_shift(deep, [[0]]) == deep

    def test_antisymmetric_shift_preserves_generator_brackets(self):
        for i in (1, 2):
            for j in (1, 2):
                E = density_bracket(
                    b_shift(DiffPoly.jet(i, 1, 0), self.ALPHA),
                    b_shift(DiffPoly.jet(j, 1, 0), self.ALPHA),
                    TABLE,
                )
                assert E.is_zero()
            E = density_bracket(
                b_shift(DiffPoly.jet(i, 1, 0), self.ALPHA),
                DiffPoly.jet(i, 0, 0),
                TABLE,
            )
            assert E == DeltaExpansion({0: DiffPoly.const(-1)})

    def test_shift_is_bracket_automorphism(self):
        rng = random.Random(47)
        for _ in range(5):
            a = rand_density(rng, maxterms=2, maxfactors=2)
            b = rand_density(rng, maxterms=2, maxfactors=2)
            lhs = fourier_bracket(
                b_shift(a, self.ALPHA), b_shift(b, self.ALPHA), TABLE
            )
            rhs = FourierClass(b_shift(fourier_bracket(a, b, TABLE).rep, self.ALPHA))
            assert lhs == rhs

    def test_symmetric_shift_breaks_the_table(self):
        sym = [[0, 1], [1, 0]]
        E = density_bracket(
            b_shift(P("p1"), sym), b_shift(P("p2"), sym), TABLE
        )
        assert not E.is_zero()

    def test_momentum_above_the_matrix_is_refused(self):
        # p3 has no row to shift it by; x3 is not shifted and passes
        with pytest.raises(DimensionMismatch,
                           match="^momentum index 3 exceeds the shift matrix size 2$") as info:
            b_shift(P("p3 + p1"), self.ALPHA)
        assert info.value.exit_code == 2
        assert b_shift(P("x3*p1"), self.ALPHA) == P("x3*p1 + 1/2*x3*ds.x2")

    def test_non_square_matrix_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="^shift matrix must be square$") as info:
            b_shift(P("p1"), [[0, 1]])
        assert info.value.exit_code == 2
