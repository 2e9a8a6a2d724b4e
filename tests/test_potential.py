"""Potential construction, text parsing, and evaluation."""

from fractions import Fraction as F

import numpy as np
import pytest

import dunham.diffpoly as dp
from dunham.errors import PotentialParseError
from dunham.potential import Potential, parse_potential


class TestParsing:
    def test_simple_powers(self):
        assert parse_potential("x^2").coefficients == (F(0), F(0), F(1))
        assert parse_potential("x^4").coefficients == (F(0),) * 4 + (F(1),)

    def test_decimals_are_exact_fractions(self):
        V = parse_potential("0.5*x^2 + 0.1*x^4")
        assert V.coefficients[2] == F(1, 2)
        assert V.coefficients[4] == F(1, 10)

    def test_rational_literals(self):
        V = parse_potential("3/2*x^6")
        assert V.coefficients[6] == F(3, 2)

    def test_signs_and_constants(self):
        V = parse_potential("x^4 - 2*x^2 + 1")
        assert V.coefficients == (F(1), F(0), F(-2), F(0), F(1))

    def test_repeated_powers_merge(self):
        V = parse_potential("x^2 + x^2")
        assert V.coefficients[2] == F(2)

    def test_unknown_function_names_token(self):
        with pytest.raises(PotentialParseError) as err:
            parse_potential("sin(x)")
        assert err.value.token == "sin"
        assert err.value.position == 0

    def test_error_position_mid_string(self):
        with pytest.raises(PotentialParseError) as err:
            parse_potential("x^2 + cos(x)")
        assert err.value.token == "cos"
        assert err.value.position == 6

    def test_missing_operator_rejected(self):
        with pytest.raises(PotentialParseError):
            parse_potential("x^2 x^4")

    def test_empty_rejected(self):
        with pytest.raises(PotentialParseError):
            parse_potential("   ")


class TestInvariants:
    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError):
            parse_potential("x + 1")

    def test_nonconfining_rejected(self):
        with pytest.raises(ValueError):
            parse_potential("-x^2")

    def test_trailing_zeros_stripped(self):
        V = Potential((F(0), F(0), F(1), F(0)))
        assert V.degree == 2

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            Potential((0, 0, 0.1))


class TestEvaluation:
    def test_matches_polyval(self):
        V = parse_potential("x^4 - 2*x^2 + 3")
        z = np.array([0.3 + 0.1j, -1.2 + 0.5j, 2.0 + 0.0j])
        ref = np.polyval([1.0, 0.0, -2.0, 0.0, 3.0], z)
        assert np.allclose(V(z), ref, rtol=1e-14)

    def test_exact_derivative_coefficients(self):
        table = parse_potential("x^4")._deriv_coeff_table
        assert len(table) == 5
        assert table[1] == (F(0), F(0), F(0), F(4))
        assert table[3] == (F(0), F(24))
        assert table[4] == (F(24),)

    def test_derivs_stack(self):
        V = parse_potential("x^2 + x^4")
        z = 1.0 + 1.0j
        vals = V.derivs(z, 5)
        assert vals[0] == pytest.approx(z**2 + z**4)
        assert vals[1] == pytest.approx(2 * z + 4 * z**3)
        assert vals[4] == pytest.approx(24.0)
        assert vals[5] == 0.0

    def test_derivs_past_degree_are_zeros_shaped_like_z(self):
        V = parse_potential("x^2 + x^4")
        z = np.array([[0.5, 1.0 + 1.0j], [-2.0, 3.0j]])
        vals = V.derivs(z, 6)
        assert len(vals) == 7
        for k in (5, 6):
            assert vals[k].shape == z.shape and not np.any(vals[k])

    def test_derivs_past_degree_are_one_read_only_array(self, series15):
        # one zero array serves every order past the degree, and the plan
        # reads it as it read a fresh array per order
        V = parse_potential("x^4 - x^3 + 1/2*x^2")
        rng = np.random.default_rng(5)
        z = 2.0 + rng.normal(size=300) + 1j * rng.normal(size=300)
        vals = V.derivs(z, 18)
        assert len(vals) == 19 and len({id(a) for a in vals[5:]}) == 1
        assert not vals[5].flags.writeable and not np.any(vals[5])
        fresh = vals[:5] + [np.zeros(z.shape, dtype=complex) for _ in range(14)]
        sqrt_q = np.sqrt(vals[0])
        dz = np.exp(1j * np.linspace(0.0, 6.0, z.size))
        plan = dp.compile_batch(series15.terms[:13])
        assert plan.need == 12
        shared, shared_slopes = plan(vals, sqrt_q, dz)
        own, own_slopes = plan(fresh, sqrt_q, dz)
        assert shared.tobytes() == own.tobytes()
        assert shared_slopes.tobytes() == own_slopes.tobytes()

    @pytest.mark.parametrize(
        "text", ["x^4", "x^4 + 0.5*x^3", "x^2 + x^4", "x^6 - x^4 + x^3 + 5/4*x^2 - x"]
    )
    def test_derivs_bitwise_equal_per_row_horner(self, text):
        # one Horner loop per row against one over the row zero-padded to
        # the degree
        V = parse_potential(text)
        d = V.degree
        rng = np.random.default_rng(3)
        points = [
            0.7 - 0.2j,
            -1.3,
            rng.normal(size=40) + 1j * rng.normal(size=40),
            rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5)),
        ]
        for z in points:
            vals = V.derivs(z, d + 1)
            for k in range(d + 1):
                ref = Potential._horner(V._float_rows[k] + [0.0] * k, z)
                assert np.shape(vals[k]) == np.shape(z)
                assert np.asarray(vals[k]).tobytes() == np.asarray(ref).tobytes()

    def test_float_table_rows_are_the_exact_rows(self):
        V = parse_potential("0.5*x^2 + 0.1*x^4 - 1/3*x^3 + 7")
        rows = V._float_rows
        assert len(rows) == V.degree + 1
        for k, (row, exact) in enumerate(zip(rows, V._deriv_coeff_table)):
            assert len(row) == V.degree + 1 - k
            assert all(type(c) is float for c in row)
            assert row == [float(c) for c in exact]

    def test_real_minimum_shifted_well(self):
        V = parse_potential("x^2 - 2*x + 5")  # (x-1)^2 + 4
        xm, vm = V.real_minimum()
        assert xm == pytest.approx(1.0, abs=1e-12)
        assert vm == pytest.approx(4.0, abs=1e-12)

    def test_str_render(self):
        assert str(parse_potential("0.5*x^2 + 0.1*x^4")) == "1/10*x^4 + 1/2*x^2"
