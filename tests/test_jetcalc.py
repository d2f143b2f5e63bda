"""Variational calculus tests: total derivatives, the bicomplex identity,
prolongation, Noether currents, and the on-shell restriction.

Expected values that are not forced by an identity were derived by hand
once and frozen here as parseable strings.
"""

import heapq
import operator
import random
import re
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiraltorus import jetcalc
from chiraltorus.exactlin import ChiraltorusError, ExactScalar, InvariantError, add_into
from chiraltorus.jetcalc import (
    MAX_EXPONENT,
    DiffPoly,
    Lagrangian,
    Monomial,
    NonLinearEL,
    NotASymmetry,
    NotFirstOrder,
    VariationalForm,
    boson_circle_lagrangian,
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
    restrict_to_sol0,
    substitute_jets,
    torus_lagrangian,
    variational_one_form,
    wave_reduce_poly,
)

import noether_oracle
from noether_oracle import contract, lagrangian_form, prolong, vertical_differential
import peel_oracle as oracle
import scanner_oracle
from total_derivative_oracle import total_derivative
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

    def test_holomorphic_symbols_are_dz_constant(self):
        # 2 D_zbar f = (D_tau + i D_sigma) f = 0, and the mirror for g
        f = sym("f", 2)
        assert f.D("t") + f.D("s").scale(I) == DiffPoly.zero()
        g = sym("g")
        assert g.D("t") - g.D("s").scale(I) == DiffPoly.zero()


class TestRingAndPartials:
    def test_partial_multiplicity(self):
        p = jet(1, 1, 0) ** 3
        assert p.partials() == {(1, 1, 0): jet(1, 1, 0) ** 2 * 3}

    @pytest.mark.parametrize("other", ["x", 0.5, [1], None])
    def test_unsupported_operand_is_a_type_error(self, other):
        with pytest.raises(TypeError):
            jet(1, 0, 0) * other
        with pytest.raises(TypeError):
            other * jet(1, 0, 0)
        with pytest.raises(TypeError):
            other - jet(1, 0, 0)

    def test_like_terms_merge(self):
        assert jet(1, 0, 0) + jet(1, 0, 0) - jet(1, 0, 0).scale(2) == DiffPoly.zero()

    # a jet or a delta factor on field 0 or below must not read a generator
    # from its end; the delta-factor keys themselves are covered by
    # test_delta_factor_key_is_refused
    @pytest.mark.parametrize("build,message", [
        (lambda: DiffPoly.jet(0, 1, 0), "field index 0 is below 1"),
        (lambda: DiffPoly.jet(-2, 1, 0), "field index -2 is below 1"),
        (lambda: contract(gen_tau(2), VariationalForm({(((0, 0, 0),), ()): const(1)})),
         "field index 0 is below 1"),
        (lambda: prolong(gen_tau(2), VariationalForm({(((0, 0, 0),), ()): const(1)})),
         "field index 0 is below 1"),
        (lambda: contract(gen_tau(2), VariationalForm({(((-1, 0, 0),), ()): const(1)})),
         "field index -1 is below 1"),
        # a raw monomial key goes through the same rule as DiffPoly.jet
        (lambda: DiffPoly({Monomial(0, (), ((0, 1, 0),)): 1}), "field index 0 is below 1"),
        (lambda: DiffPoly([(Monomial(1, (), ((1, 0, 0), (-1, 0, 2))), 2)]),
         "field index -1 is below 1"),
    ], ids=["0", "-2", "contract-delta-x0", "prolong-delta-x0", "contract-delta-x-1",
            "raw-monomial-x0", "raw-monomial-x-1"])
    def test_jet_field_index_below_one_is_refused(self, build, message):
        with pytest.raises(ChiraltorusError, match=f"^{message}$") as info:
            build()
        assert info.value.exit_code == 1

    # a raw monomial key is canonical and names only the symbols that
    # DiffPoly.symbol builds, so equal polynomials are equal tables and D
    # finds a rule for every symbol
    @pytest.mark.parametrize("mono,message", [
        (Monomial(0, (), ((2, 0, 0), (1, 0, 0))),
         "monomial jets must be sorted, got ((2, 0, 0), (1, 0, 0))"),
        (Monomial(1, (("phi", 0), ("f", 1)), ()),
         "monomial symbols must be sorted, got (('phi', 0), ('f', 1))"),
        (Monomial(0, (("h", 0),), ()), "unknown symbol 'h'"),
        (Monomial(0, (("f", -1),), ()), "symbol order must be nonnegative, got -1"),
        (Monomial(1.5, (), ()), "mode must be an integer, got 1.5"),
        (Monomial(True, (), ((1, 0, 0),)), "mode must be an integer, got True"),
        # a plain tuple built, then broke str; a short one raised a raw ValueError
        ((0, (), ()), "a DiffPoly key must be a Monomial, got (0, (), ())"),
        ((0, ()), "a DiffPoly key must be a Monomial, got (0, ())"),
    ], ids=["unsorted-jets", "unsorted-symbols", "unknown-symbol", "symbol-order--1",
            "mode-1.5", "mode-True", "plain-tuple", "short-tuple"])
    def test_non_canonical_raw_key_is_refused(self, mono, message):
        with pytest.raises(ChiraltorusError, match=f"^{re.escape(message)}$") as info:
            DiffPoly({mono: 1})
        assert type(info.value) is ChiraltorusError
        assert info.value.exit_code == 1

    def test_sorted_raw_key_equals_the_product(self):
        raw = DiffPoly({Monomial(0, (("f", 1), ("phi", 0)), ((1, 0, 0), (2, 0, 0))): 1})
        built = (jet(2, 0, 0) * DiffPoly.symbol("phi") * jet(1, 0, 0)
                 * DiffPoly.symbol("f", 1))
        assert raw == built
        assert str(raw) == str(built)

    # a form key is a pair of a sequence of delta factors and one of the
    # four horizontal factors, and each delta-factor key three indices
    # under DiffPoly.jet's rule, a field index of 0 or below included
    @pytest.mark.parametrize("key,message", [
        ((((1, -1, 0),), ()), "jet order must be nonnegative, got -1"),
        ((((1, 0, -2),), ()), "jet order must be nonnegative, got -2"),
        ((((1.5, 0, 0),), ()), "field index must be an integer, got 1.5"),
        ((((1, True, 0),), ()), "jet order must be an integer, got True"),
        ((((1, 0),), ()), "delta-factor key must be three indices, got (1, 0)"),
        ((((1, 0, 0, 0),), ()), "delta-factor key must be three indices, got (1, 0, 0, 0)"),
        (5, "form key must be a pair (delta factors, horizontal factor), got 5"),
        ((5, ()), "delta factors must be a tuple of keys, got 5"),
        (((), 5), "bad horizontal factor 5"),
        (((), "ts"), "bad horizontal factor 'ts'"),
        ((((0, 0, 0),), ()), "field index 0 is below 1"),
        ((((-3, 1, 0),), ("t",)), "field index -3 is below 1"),
    ], ids=["tau-order--1", "sigma-order--2", "field-1.5", "order-True",
            "two-indices", "four-indices", "not-a-pair", "delta-factors-5",
            "horizontal-5", "horizontal-str", "field-0", "field--3"])
    def test_delta_factor_key_is_refused(self, key, message):
        with pytest.raises(ChiraltorusError, match=f"^{re.escape(message)}$") as info:
            VariationalForm({key: const(1)})
        assert info.value.exit_code == 1

    @pytest.mark.parametrize("i", [1.0, True, "1"])
    def test_jet_field_index_must_be_an_int(self, i):
        with pytest.raises(ChiraltorusError, match="^field index must be an integer, got "):
            DiffPoly.jet(i, 1, 0)

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
        # a tower climbed in a loop, not one call frame per derivative
        assert substitute_jets(jet(1, 1, 900), {(1, 1): jet(2, 0, 0)}) == jet(2, 0, 900)


# a Gaussian-rational coefficient times up to four factors: jets
# (momenta included, as tau-order 1), trig modes and coefficient symbols
coefficients = st.builds(
    S, st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
atoms = st.one_of(
    st.builds(jet, st.integers(1, 3), st.integers(0, 2), st.integers(0, 2)),
    st.builds(trig, st.integers(-3, 3)),
    st.builds(sym, st.sampled_from(["f", "g", "phi", "psi"]), st.integers(0, 2)),
)
monomials = st.builds(
    lambda c, fs: reduce(operator.mul, fs, const(c)),
    coefficients, st.lists(atoms, max_size=4),
)
polynomials = st.lists(monomials, max_size=4).map(lambda ms: sum(ms, DiffPoly.zero()))
# few jets and up to five factors, so that a jet often repeats in a monomial
crowded_monomials = st.builds(
    lambda c, fs: reduce(operator.mul, fs, const(c)),
    coefficients, st.lists(st.one_of(
        st.builds(jet, st.integers(1, 2), st.integers(0, 1), st.integers(0, 1)),
        st.builds(trig, st.integers(-2, 2)),
        st.builds(sym, st.sampled_from(["f", "phi"]), st.integers(0, 1)),
    ), max_size=5),
)
crowded_polynomials = st.lists(crowded_monomials, max_size=5).map(
    lambda ms: sum(ms, DiffPoly.zero()))


class TestTotalDerivativeOracle:
    @settings(max_examples=150, deadline=None)
    @given(poly=polynomials)
    def test_matches_the_exact_scalar_loop(self, poly):
        # trig modes, f/g/phi/psi to order two and jets of every order
        for direction in "ts":
            assert poly.D(direction) == total_derivative(poly, direction)


def partial_scan(poly, key):
    """d poly / d key by one scan of the monomials for that key alone:
    the reference for the one-pass partials()."""
    out = DiffPoly.zero()
    for mono, coeff in poly.coeffs.items():
        mult = mono.jets.count(key)
        if mult:
            jets = list(mono.jets)
            jets.remove(key)
            out = out + DiffPoly({Monomial(mono.mode, mono.syms, tuple(jets)): coeff * mult})
    return out


# raw monomials with a nonzero trig mode, symbols and jets drawn from
# few values, so that a symbol or a jet often repeats in one monomial
repeating_monomials = st.builds(
    lambda mode, syms, jets: Monomial(mode, tuple(sorted(syms)), tuple(sorted(jets))),
    st.integers(-3, 3).filter(bool),
    st.lists(st.tuples(st.sampled_from(["f", "g", "phi"]), st.integers(0, 1)), max_size=3),
    st.lists(st.tuples(st.integers(1, 2), st.integers(0, 3), st.integers(0, 1)), max_size=4),
)
repeating_polynomials = st.lists(st.tuples(repeating_monomials, coefficients),
                                 max_size=4).map(DiffPoly)


def clear_jetcalc_caches():
    for f in vars(jetcalc).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


def product_merge(p, q):
    """p * q with each product monomial's sorted factor tuples merged by
    heapq.merge: the reference for the cached _mono_mul."""
    out = {}
    for m1, c1 in p.coeffs.items():
        for m2, c2 in q.coeffs.items():
            mono = Monomial(m1.mode + m2.mode, tuple(heapq.merge(m1.syms, m2.syms)),
                            tuple(heapq.merge(m1.jets, m2.jets)))
            add_into(out, mono, c1 * c2)
    return DiffPoly(out)


def wave_loop(poly):
    """Each jet's tau-order lowered two at a time by d_tau^2 x =
    -d_sigma^2 x, one ExactScalar sign flip per step: the reference for
    the cached _wave_mono."""
    out = {}
    for mono, coeff in poly.coeffs.items():
        jets = []
        for i, a, b in mono.jets:
            while a >= 2:
                a, b, coeff = a - 2, b + 2, -coeff
            jets.append((i, a, b))
        add_into(out, Monomial(mono.mode, mono.syms, tuple(sorted(jets))), coeff)
    return DiffPoly(out)


class TestPerMonomialCaches:
    """The cached maps under the integer kernels against references that
    share none of them, once on cleared caches and once warm."""

    @staticmethod
    def computed(p, q):
        return (p.D("t"), p.D("s"), p * q, list(p.partials().items()), wave_reduce_poly(p))

    @staticmethod
    def wanted(p, q):
        support = sorted({key for mono in p.coeffs for key in mono.jets})
        return (total_derivative(p, "t"), total_derivative(p, "s"), product_merge(p, q),
                [(key, partial_scan(p, key)) for key in support], wave_loop(p))

    @settings(max_examples=150, deadline=None)
    @given(p=repeating_polynomials, q=repeating_polynomials)
    def test_cold_and_warm_match_the_references(self, p, q):
        want = self.wanted(p, q)
        clear_jetcalc_caches()
        assert self.computed(p, q) == want
        assert self.computed(p, q) == want

    @settings(max_examples=100, deadline=None)
    @given(p=st.one_of(repeating_polynomials, polynomials))
    # D_tau cancels on e(1)*dt.x1*dt.x2, where D_sigma does not
    @example(p=parse_expr("e(1)*(x1*dt.x2 - dt.x1*x2 + dt.x1*dt.x2)"))
    def test_light_cone_prefixes_match_the_scalar_formula(self, p):
        # the former ExactScalar path, key order included
        dt, ds = p.D("t"), p.D("s").scale(I)
        for prefix, want in (("dz", dt - ds), ("dzb", dt + ds)):
            want = want.scale(S(1) / 2)
            got = jetcalc._apply_prefix(prefix, p)
            assert list(got.coeffs.items()) == list(want.coeffs.items())


class TestPartials:
    @settings(max_examples=150, deadline=None)
    @given(poly=st.one_of(polynomials, crowded_polynomials))
    def test_one_pass_matches_the_scan_per_key(self, poly):
        support = sorted({key for mono in poly.coeffs for key in mono.jets})
        parts = poly.partials()
        assert list(parts) == support
        for key, part in parts.items():
            assert part == partial_scan(poly, key)
            assert not part.is_zero()
        assert (4, 0, 0) not in parts


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

    def test_exponent_limit(self):
        assert parse_expr(f"x1^{MAX_EXPONENT}") == jet(1, 0, 0) ** MAX_EXPONENT
        for big in (MAX_EXPONENT + 1, 10 ** 20):
            with pytest.raises(ChiraltorusError, match=f"^exponent {big} is above"):
                jet(1, 0, 0) ** big
            with pytest.raises(ChiraltorusError, match=f"^exponent {big} is above"):
                parse_expr(f"(x1 + p1)^{big}")

    @pytest.mark.parametrize("text", [
        "(" * 300 + "x1" + ")" * 300, "-" * 1000 + "x1", "dt." * 1000 + "x1",
        "ds." * 1000 + "p1", "(-" * 500 + "x1" + ")" * 500],
        ids=["parens", "signs", "dt", "ds", "signed-parens"])
    def test_deep_nesting_is_a_usage_error(self, text):
        with pytest.raises(ChiraltorusError, match="^nesting is too deep$") as info:
            parse_expr(text)
        assert info.value.exit_code == 1

    @pytest.mark.parametrize("text", ["x0", "p0", "x01", "dt.x0", "ds.p00"])
    def test_field_index_starts_at_one(self, text):
        name = text.split(".")[-1]
        with pytest.raises(ChiraltorusError, match=f"^unknown name '{name}' in expression$"):
            parse_expr(text)

    @pytest.mark.parametrize("text", ["x1^\u00b2", "x\u0661*p1", "\u00e9", "x1 +\u00a02"])
    def test_non_ascii_is_refused(self, text):
        # str.isdigit takes the superscript and the Arabic-Indic digit
        with pytest.raises(ChiraltorusError, match="^unexpected character"):
            parse_expr(text)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(st.sampled_from(
        list("0123456789xpfgiedtsz_AZ+-*^()./ \t\n#\r")
        + ["\u00b2", "\u0661", "\u00e9", "\u03b1"]), max_size=16))
    def test_scanner_matches_oracle(self, text):
        if not text.isascii():
            with pytest.raises(ChiraltorusError):
                jetcalc._tokenize(text)
            return
        try:
            want = scanner_oracle.tokenize(text)
        except ChiraltorusError as exc:
            with pytest.raises(ChiraltorusError, match=f"^{re.escape(str(exc))}$"):
                jetcalc._tokenize(text)
            return
        assert jetcalc._tokenize(text) == want

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

    @settings(max_examples=80, deadline=None)
    @given(p=polynomials)
    def test_round_trips_of_drawn_polynomials(self, p):
        assert parse_expr(poly_str(p, style="tau")) == p
        assert parse_expr(poly_str(p, style="xp")) == p

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

    def test_field_index_below_one_is_refused(self):
        # the DiffPoly constructor checks every jet key of a raw monomial,
        # so a density on field 0 never reaches the Lagrangian
        with pytest.raises(ChiraltorusError, match="^field index 0 is below 1$") as info:
            Lagrangian(DiffPoly({Monomial(0, (), ((0, 1, 0), (0, 1, 0))): 1}))
        assert type(info.value) is ChiraltorusError
        assert info.value.exit_code == 1

    # a name or a field outside what the calculus knows is a usage error
    @pytest.mark.parametrize("build,message", [
        (lambda: DiffPoly.symbol("h"), "unknown symbol 'h'"),
        (lambda: jet(1, 0, 0).D("x"), "direction must be 't' or 's'"),
        (lambda: Lagrangian(jet(2, 1, 0) * jet(2, 1, 0), n=1),
         "field index exceeds declared number of fields"),
    ], ids=["symbol-h", "direction-x", "field-past-n"])
    def test_unknown_names_and_fields_are_refused(self, build, message):
        with pytest.raises(ChiraltorusError, match=f"^{message}$") as info:
            build()
        assert type(info.value) is ChiraltorusError
        assert info.value.exit_code == 1

    @pytest.mark.parametrize("n", [1.5, True, "2", 0, -1])
    def test_field_count_must_be_a_positive_int(self, n):
        with pytest.raises(ChiraltorusError, match="^number of fields must be a positive int") \
                as info:
            Lagrangian(jet(1, 1, 0) * jet(1, 1, 0), n=n)
        assert info.value.exit_code == 1

    def test_lagrangian_only_work_is_cached(self):
        L = torus_lagrangian([[1, 0], [0, 2]])
        assert L._partial_view is L._partial_view
        bad = Lagrangian((jet(1, 1, 0) ** 2 - jet(1, 0, 1) ** 2).scale(I))
        raised = []
        for _ in range(2):
            with pytest.raises(NonLinearEL, match="^d_tau\\^2 and d_sigma\\^2 blocks differ$") as info:
                restrict_to_sol0(jet(1, 2, 0), bad)
            raised.append(info.value)
        assert raised[0] is not raised[1]


class TestVariationalOneForm:
    def test_free_boson(self):
        gamma = variational_one_form(boson_circle_lagrangian())
        assert gamma.component(((1, 0, 0),), ("s",)) == parse_expr("i*dt.x1")
        assert gamma.component(((1, 0, 0),), ("t",)) == parse_expr("-i*ds.x1")
        assert len(gamma.coeffs) == 2

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
    """The bicomplex identities, with the vertical differential of
    noether_oracle."""

    def test_master_identity_boson(self):
        L = boson_circle_lagrangian()
        lhs = vertical_differential(lagrangian_form(L)) \
            + variational_one_form(L).horizontal_differential() \
            - delta_x_term(euler_lagrange(L))
        assert lhs.is_zero()

    def test_master_identity_torus(self):
        L = torus_lagrangian([[2, 1], [1, 3]], [[0, 5], [-5, 0]])
        lhs = vertical_differential(lagrangian_form(L)) \
            + variational_one_form(L).horizontal_differential() \
            - delta_x_term(euler_lagrange(L))
        assert lhs.is_zero()

    def test_master_identity_random(self):
        rng = random.Random(99)
        for _ in range(8):
            L = rand_first_order_lagrangian(rng)
            lhs = vertical_differential(lagrangian_form(L)) \
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
            assert vertical_differential(vertical_differential(w)).is_zero()

    def test_anticommutation(self):
        rng = random.Random(103)
        for _ in range(10):
            w = rand_form(rng)
            lhs = vertical_differential(w.horizontal_differential()) \
                + vertical_differential(w).horizontal_differential()
            assert lhs.is_zero()


def tower_oracle(component, a, b):
    """D_sigma^b(D_tau^a F), every tau derivative taken first: the
    reference for prolong's tower, which takes the sigma ones first."""
    for _ in range(a):
        component = component.D("t")
    for _ in range(b):
        component = component.D("s")
    return component


def substitute_oracle(poly, mapping):
    """substitute_jets as a per-monomial loop, each replacement derived
    b times afresh."""
    out = DiffPoly.zero()
    for mono, coeff in poly.coeffs.items():
        acc = DiffPoly({Monomial(mono.mode, mono.syms, ()): coeff})
        for (i, a, b) in mono.jets:
            acc = acc * (tower_oracle(mapping[(i, a)], 0, b) if (i, a) in mapping
                         else jet(i, a, b))
        out = out + acc
    return out


class TestProlong:
    """prolong and contract of noether_oracle, the reference path that
    noether's integer kernel is checked against."""

    # prolong climbs D_sigma before D_tau, which relies on
    # D_tau D_sigma = D_sigma D_tau exactly
    @settings(max_examples=40, deadline=None)
    @given(gen=st.lists(polynomials, min_size=1, max_size=3), data=st.data())
    def test_images_match_the_tau_then_sigma_tower(self, gen, data):
        keys = data.draw(st.lists(st.tuples(
            st.integers(1, len(gen)), st.integers(0, 3), st.integers(0, 3)), max_size=6))
        for (i, a, b) in keys:
            assert prolong(gen, jet(i, a, b)) == tower_oracle(gen[i - 1], a, b)

    @settings(max_examples=40, deadline=None)
    @given(poly=polynomials, mapping=st.dictionaries(
        st.tuples(st.integers(1, 3), st.integers(0, 2)), polynomials, max_size=3))
    def test_substitute_jets_matches_the_per_monomial_loop(self, poly, mapping):
        assert substitute_jets(poly, mapping) == substitute_oracle(poly, mapping)

    def test_tau_translation_on_square(self):
        got = prolong(gen_tau(1), jet(1, 0, 1) ** 2)
        assert got == jet(1, 0, 1) * jet(1, 1, 1) * 2
        # a tower climbed in a loop, not one call frame per derivative
        assert prolong(gen_tau(1), jet(1, 1200, 0)) == jet(1, 1201, 0)

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
        assert len(d_alpha.coeffs) == 1

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
        for _ in range(6):
            p = rand_poly(rng)
            for c in ("t", "s"):
                assert prolong(gen, p.D(c)) == prolong(gen, p).D(c)

    def test_scalar_generator_component(self):
        # a component that is a plain number is the constant DiffPoly
        assert prolong([1], jet(1, 0, 0)) == DiffPoly.const(1)
        assert prolong([ExactScalar(2), jet(1, 0, 0)], jet(1, 0, 1) * jet(2, 0, 0)) == \
            jet(1, 0, 1) * jet(1, 0, 0)

    @pytest.mark.parametrize("apply,message", [
        (lambda: prolong(gen_tau(1), "x1"),
         "cannot prolong a str: expected DiffPoly or VariationalForm"),
        (lambda: contract(gen_tau(1), jet(1, 0, 0)),
         "cannot contract a DiffPoly: expected VariationalForm"),
    ], ids=["prolong-str", "contract-DiffPoly"])
    def test_target_of_the_wrong_type_is_a_type_error(self, apply, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            apply()

    # a field index of 0 or below is refused when the form is built, one
    # past the generator's components when the generator is applied
    @pytest.mark.parametrize("apply", [contract, prolong])
    def test_delta_factor_past_the_generator_is_refused(self, apply):
        form = VariationalForm({(((3, 0, 0),), ()): const(1)})
        with pytest.raises(ChiraltorusError, match="^no generator component for field 3$"):
            apply(gen_tau(2), form)


class TestNoether:
    def test_hamiltonian_circle(self):
        H = noether(boson_circle_lagrangian(), gen_tau(1))
        assert H.component((), ("s",)) == parse_expr("-1/2*i*(dt.x1^2 - ds.x1^2)")
        assert H.component((), ("t",)) == parse_expr("i*dt.x1*ds.x1")
        assert len(H.coeffs) == 2

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

    def test_failed_certificate_is_an_invariant_error(self, monkeypatch):
        # only a broken wave rewrite can leave a residual after an exact peel
        monkeypatch.setattr(jetcalc, "_wave_table", lambda table: {jetcalc.UNIT_MONO: [1, 0]})
        with pytest.raises(InvariantError, match="on-shell certificate failed") as info:
            noether(boson_circle_lagrangian(), gen_tau(1))
        assert type(info.value) is InvariantError
        assert info.value.exit_code == 3

    def test_failed_peel_identity_is_an_invariant_error(self, monkeypatch):
        # a peel that drops its solution leaves D_tau Q - D_sigma P != x-hat(L)
        monkeypatch.setattr(jetcalc, "_peel", lambda q, D: ({}, {}, D))
        with pytest.raises(InvariantError, match="peel produced an incorrect") as info:
            noether(boson_circle_lagrangian(), gen_tau(1))
        assert type(info.value) is InvariantError
        assert info.value.exit_code == 3

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

    @pytest.mark.parametrize("density, n, why", [
        ("x1*dt.x1^2", 1, "Euler-Lagrange system is not constant-coefficient linear"),
        ("dt.x1*ds.x1", 1, "Euler-Lagrange system is not the flat wave system"),
        # field 2 has no kinetic term
        ("dt.x1^2 + ds.x1^2", 2, "wave operator coefficient matrix is singular"),
    ])
    def test_each_wave_fault_is_named(self, density, n, why):
        L = Lagrangian(parse_expr(density), n=n)
        with pytest.raises(NonLinearEL, match=f"^{why}$"):
            restrict_to_sol0(DiffPoly.zero(), L)

    def test_model_validation(self):
        wave = boson_circle_lagrangian()
        restrict_to_sol0(jet(1, 2, 0), wave)
        bad = Lagrangian((jet(1, 1, 0) ** 2 - jet(1, 0, 1) ** 2).scale(I))
        with pytest.raises(NonLinearEL):
            restrict_to_sol0(jet(1, 2, 0), bad)


class TestEnumerateMonomials:
    """The peel's blocks: dirs "ts", jets with both orders cleared."""

    def test_single_field_weight_one(self):
        got = enumerate_monomials((0, ((1, 0, 0),), ()), 1, "ts")
        assert got == [
            Monomial(0, (), ((1, 0, 1),)),
            Monomial(0, (), ((1, 1, 0),)),
        ]

    def test_forbid_bare(self):
        content = (0, ((1, 0, 0), (1, 0, 0)), ())
        full = enumerate_monomials(content, 1, "ts")
        assert [m for m in full if not jetcalc._bare(m)] == []
        assert any((1, 0, 0) in m.jets for m in full)

    def test_symbol_weight_split(self):
        got = enumerate_monomials((2, (), ("f",)), 1, "ts")
        assert got == [Monomial(2, (("f", 1),), ())]

    @settings(max_examples=100, deadline=None)
    @given(mode=st.integers(-2, 2),
           fields=st.lists(st.integers(1, 2), max_size=3).map(sorted),
           names=st.lists(st.sampled_from(["f", "g"]), max_size=2).map(sorted),
           weight=st.integers(0, 4))
    def test_matches_oracle(self, mode, fields, names, weight):
        block = (mode, tuple((i, 0, 0) for i in fields), tuple(names))
        content = (mode, tuple(fields), tuple(names))
        assert (enumerate_monomials(block, weight, "ts")
                == oracle.enumerate_monomials(content, weight))


# first-order factors: bare, tau- and sigma-differentiated jets, trig
# modes and the symbols f, g to order one
first_order_atoms = st.one_of(
    st.builds(jet, st.integers(1, 2), st.just(0), st.just(0)),
    st.builds(jet, st.integers(1, 2), st.just(1), st.just(0)),
    st.builds(jet, st.integers(1, 2), st.just(0), st.just(1)),
    st.builds(trig, st.integers(-2, 2)),
    st.builds(sym, st.sampled_from(["f", "g"]), st.integers(0, 1)),
)
first_order_monomials = st.builds(
    lambda c, fs: reduce(operator.mul, fs, const(c)),
    coefficients, st.lists(first_order_atoms, max_size=3),
)
first_order_polys = st.lists(first_order_monomials, max_size=2).map(
    lambda ms: sum(ms, DiffPoly.zero()))


def peel(q: DiffPoly):
    """(P, Q) with q = D_tau Q - D_sigma P: the library's peel of a DiffPoly."""
    P, Q, D = jetcalc._peel(*jetcalc._integer_view(q.coeffs))
    return jetcalc._as_poly(P, D), jetcalc._as_poly(Q, D)


class TestPeel:
    """The one-list peel against the two-pass reference in peel_oracle."""

    @settings(max_examples=80, deadline=None)
    @given(P=first_order_polys, Q=first_order_polys,
           noise=st.one_of(st.just(DiffPoly.zero()), first_order_monomials))
    def test_matches_oracle(self, P, Q, noise):
        q = Q.D("t") - P.D("s") + noise
        try:
            want = oracle.solve_total_derivative(q)
        except NotASymmetry:
            with pytest.raises(NotASymmetry):
                peel(q)
            return
        got = peel(q)
        assert got == want
        assert got[1].D("t") - got[0].D("s") == q

    @settings(max_examples=40, deadline=None)
    @given(P=first_order_polys, Q=first_order_polys)
    def test_cold_and_warm_cache_agree(self, P, Q):
        q = Q.D("t") - P.D("s")
        jetcalc._image_basis.cache_clear()
        cold = peel(q)
        hits = jetcalc._image_basis.cache_info().hits
        warm = peel(q)
        assert warm == cold == oracle.solve_total_derivative(q)
        assert q.is_zero() or jetcalc._image_basis.cache_info().hits > hits

    @pytest.mark.parametrize("c, hkeys, want", [
        ("t", (), (1, ("t",))),
        ("s", (), (1, ("s",))),
        ("t", ("t",), (0, None)),
        ("s", ("t",), (-1, ("t", "s"))),
        ("t", ("s",), (1, ("t", "s"))),
        ("s", ("s",), (0, None)),
        ("t", ("t", "s"), (0, None)),
        ("s", ("t", "s"), (0, None)),
    ])
    def test_insert_h(self, c, hkeys, want):
        assert jetcalc._insert_h(c, hkeys) == want


def _outcome(run, L, generator):
    """(error type, message, None) for a refused Noether call, and
    (None, the current's text, the current) otherwise."""
    try:
        current = run(L, generator)
    except ChiraltorusError as exc:
        return type(exc), str(exc), None
    return None, repr(current), current


# rationals with small denominators: singular and indefinite metrics come
# up, and so does the NonLinearEL refusal
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def torus_lagrangians(draw):
    n = draw(st.integers(1, 3))
    g = [[0] * n for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(small_fractions)
            if j > i:
                b[i][j] = draw(small_fractions)
                b[j][i] = -b[i][j]
    return torus_lagrangian(g, b if draw(st.booleans()) else None)


@st.composite
def torus_generators(draw, n):
    kind = draw(st.sampled_from(("dt", "ds", "x", "conformal", "anticonformal")))
    if kind == "dt":
        return gen_tau(n)
    if kind == "ds":
        return gen_sigma(n)
    if kind == "x":
        return gen_translation(n, draw(st.integers(1, n)))
    return gen_conformal(n, holomorphic=kind == "conformal",
                         with_symbol=draw(st.booleans()))


class TestNoetherOracle:
    """noether on integer tables against the ExactScalar path of
    tests/noether_oracle.py, built from the public bicomplex operations."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), L=torus_lagrangians())
    def test_torus_currents_equal_the_oracle(self, data, L):
        generator = data.draw(torus_generators(L.n))
        got = _outcome(noether, L, generator)
        want = _outcome(noether_oracle.noether, L, generator)
        assert got == want

    # random first-order Lagrangians and generators: most pairs are refused,
    # and each refusal must come first on the same input in both paths
    @settings(max_examples=60, deadline=None)
    @given(density=first_order_polys, generator=st.lists(first_order_polys, min_size=1,
                                                         max_size=3))
    def test_refusals_come_in_the_oracle_order(self, density, generator):
        L = Lagrangian(density, n=2)
        got = _outcome(noether, L, generator)
        want = _outcome(noether_oracle.noether, L, generator)
        assert got[0] is want[0]
        # peel_oracle names a content block in its own format
        if got[0] is not NotASymmetry:
            assert got[1:] == want[1:]

    @pytest.mark.parametrize("L, generator, error, message", [
        (boson_circle_lagrangian(), [jet(1, 0, 0) ** 2], NotASymmetry,
         "no total-derivative representation in content block "
         "(0, ((1, 0, 0), (1, 0, 0), (1, 0, 0)), ())"),
        (Lagrangian((jet(1, 1, 0) ** 2 - jet(1, 0, 1) ** 2).scale(I / S(2))), gen_tau(1),
         NonLinearEL, "d_tau^2 and d_sigma^2 blocks differ"),
        (torus_lagrangian([[1, 0], [0, 2]]), gen_tau(1), ChiraltorusError,
         "no generator component for field 2"),
        (Lagrangian(jet(1, 1, 0) * jet(1, 0, 1)), gen_translation(1, 1), NonLinearEL,
         "Euler-Lagrange system is not the flat wave system"),
        # several faults at once: the first check to meet one decides
        (Lagrangian(jet(1, 1, 0) * jet(1, 0, 1)), [jet(1, 0, 0) ** 2], NotASymmetry,
         "no total-derivative representation in content block "
         "(0, ((1, 0, 0), (1, 0, 0), (1, 0, 0)), ())"),
        (Lagrangian(jet(1, 1, 0) * jet(2, 0, 1)), [jet(1, 0, 0) ** 2], ChiraltorusError,
         "no generator component for field 2"),
        (Lagrangian(jet(1, 1, 0) * jet(1, 0, 1), n=2), [1.5], TypeError,
         "cannot coerce 1.5 to ExactScalar"),
    ], ids=["not-a-symmetry", "non-linear-el", "short-generator", "non-wave-el",
            "peel-before-el", "generator-before-peel", "inexact-component"])
    def test_refusals_match_the_oracle(self, L, generator, error, message):
        for run in (noether, noether_oracle.noether):
            with pytest.raises(error) as info:
                run(L, generator)
            assert type(info.value) is error
            if run is noether or error is not NotASymmetry:
                assert str(info.value) == message
