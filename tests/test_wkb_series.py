"""Series generation, rescalings, and total-derivative certificates."""

import hashlib
import json
from fractions import Fraction as F

import pytest

import dunham.diffpoly as dp
import dunham.wkb_series as ws
from wkb_checks import (
    check_f_recursion,
    expr_dict,
    gen_terms_alt,
    recursion_residual,
    series_dict,
)


def mono(coeff, q_half, derivs=None):
    d = tuple(sorted((derivs or {}).items()))
    return dp.DiffExpr((dp.Monomial(F(coeff), q_half, d),))


def expr(*monos):
    out = dp.ZERO
    for m in monos:
        out = dp.add(out, m)
    return out


# The first three generated terms, transcribed coefficient by coefficient.
T1_EXPECTED = mono(F(-1, 4), -2, {1: 1})
T2_EXPECTED = expr(
    mono(F(5, 32), -5, {1: 2}),
    mono(F(-1, 8), -3, {2: 1}),
)
T3_EXPECTED = expr(
    mono(F(-15, 64), -8, {1: 3}),
    mono(F(9, 32), -6, {1: 1, 2: 1}),
    mono(F(-1, 16), -4, {3: 1}),
)
# ... and the antiderivative bracket whose x-derivative reproduces T_3:
#     5 (Q')^2 / (64 Q^3) - Q'' / (16 Q^2)
T3_ANTIDERIVATIVE = expr(
    mono(F(5, 64), -6, {1: 2}),
    mono(F(-1, 16), -4, {2: 1}),
)


class TestGeneration:
    def test_t0(self, series15):
        assert series15.terms[0] == dp.negate(dp.q_power(1))

    def test_first_three_terms_exact(self, series15):
        assert series15.terms[1] == T1_EXPECTED
        assert series15.terms[2] == T2_EXPECTED
        assert series15.terms[3] == T3_EXPECTED

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            ws.gen_terms(-1)

    def test_recursion_residual_is_exactly_zero(self, series15):
        for n in range(1, 16):
            assert not recursion_residual(series15, n)

    def test_alternate_recursion_identical(self, series15):
        alt = gen_terms_alt(15)
        for n in range(16):
            assert alt.terms[n] == series15.terms[n]

    def test_parity_of_powers(self, series15):
        for n, t in enumerate(series15.terms):
            for m in t.monomials:
                if n % 2 == 0:
                    assert m.q_half % 2 == 1, f"T_{n} should have half-odd powers only"
                else:
                    assert m.q_half % 2 == 0, f"T_{n} should have integer powers only"

    def test_t3_from_ratio_derivative(self, series15):
        # T_3 = -(1/2) d/dx (T_2 / T_0), the ratio being -T_2 Q^(-1/2)
        ratio = dp.mul(series15.terms[2], dp.scale(dp.q_power(-1), -1))
        want = dp.scale(dp.differentiate(ratio), F(-1, 2))
        assert series15.terms[3] == want

    def test_monomial_count_strictly_grows(self, series15):
        counts = [len(t.monomials) for t in series15.terms]
        for n in range(2, 15):
            assert counts[n + 1] > counts[n]


class TestRescalings:
    def test_g1_fixture(self, series15):
        want = expr(mono(F(5, 32), -6, {1: 2}), mono(F(-1, 8), -4, {2: 1}))
        assert ws.g_term(series15, 1) == want

    def test_g1_is_twice_the_t3_bracket(self, series15):
        assert ws.g_term(series15, 1) == dp.scale(T3_ANTIDERIVATIVE, 2)

    def test_f1_is_twice_t3(self, series15):
        assert ws.f_term(series15, 1) == dp.scale(T3_EXPECTED, 2)

    def test_f1_equals_g1_derivative(self, series15):
        assert ws.f_term(series15, 1) == dp.differentiate(ws.g_term(series15, 1))

    def test_integer_powers_only(self, series15):
        for j in range(1, 8):
            assert not dp.has_half_powers(ws.g_term(series15, j))
            assert not dp.has_half_powers(ws.f_term(series15, j))

    def test_scaling_roundtrip(self, series15):
        t0 = series15.terms[0]
        for j in range(1, 8):
            lhs = dp.mul(ws.g_term(series15, j), t0)
            assert lhs == dp.negate(series15.terms[2 * j])
            assert ws.f_term(series15, j) == dp.scale(series15.terms[2 * j + 1], 2)

    def test_index_zero_rejected(self, series15):
        with pytest.raises(ValueError):
            ws.g_term(series15, 0)
        with pytest.raises(ValueError):
            ws.f_term(series15, 0)

    def test_out_of_range_rejected(self, series15):
        with pytest.raises(ValueError):
            ws.g_term(series15, 8)  # needs T_16
        with pytest.raises(ValueError, match="F_8 needs T_17"):
            ws.f_term(series15, 8)


class TestOddRecursion:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_f_recursion_holds(self, series15, n):
        assert check_f_recursion(series15, n)

    def test_f4_expansion_has_eight_groups(self, series15):
        # F_4 = G_4' + G_1 F_3 + G_2 F_2 + G_3 F_1 expands to 8 composition
        # products before collection
        g = {j: ws.g_term(series15, j) for j in range(1, 5)}
        dg = {j: dp.differentiate(g[j]) for j in g}
        groups = [
            dg[4],
            dp.mul(g[1], dg[3]),
            dp.mul(g[2], dg[2]),
            dp.mul(g[3], dg[1]),
            dp.mul(dp.mul(g[1], g[1]), dg[2]),
            dp.mul(dp.mul(g[1], g[2]), dg[1]),
            dp.mul(dp.mul(g[2], g[1]), dg[1]),
            dp.mul(dp.mul(g[1], dp.mul(g[1], g[1])), dg[1]),
        ]
        total = dp.ZERO
        for grp in groups:
            total = dp.add(total, grp)
        assert ws.f_term(series15, 4) == total

    def test_symmetric_sum_identity(self, series15):
        # sum G_m' G_{n-m} = sum G_m G_{n-m}' over m = 1..n-1
        for n in range(2, 8):
            lhs = rhs = dp.ZERO
            for m in range(1, n):
                lhs = dp.add(lhs, dp.mul(dp.differentiate(ws.g_term(series15, m)),
                                         ws.g_term(series15, n - m)))
                rhs = dp.add(rhs, dp.mul(ws.g_term(series15, m),
                                         dp.differentiate(ws.g_term(series15, n - m))))
            assert lhs == rhs


class TestPhi:
    def test_composition_count(self):
        for n in range(1, 10):
            assert sum(1 for _ in ws.compositions(n)) == 2 ** (n - 1)
        assert list(ws.compositions(0)) == []

    def test_phi2(self, series15):
        g1 = ws.g_term(series15, 1)
        g2 = ws.g_term(series15, 2)
        want = dp.add(g2, dp.scale(dp.mul(g1, g1), F(1, 2)))
        assert ws.build_phi(series15, 2) == want

    def test_phi3(self, series15):
        g = {j: ws.g_term(series15, j) for j in (1, 2, 3)}
        want = expr(
            g[3],
            dp.mul(g[1], g[2]),
            dp.scale(dp.mul(g[1], dp.mul(g[1], g[1])), F(1, 3)),
        )
        assert ws.build_phi(series15, 3) == want

    def test_phi4(self, series15):
        g = {j: ws.g_term(series15, j) for j in (1, 2, 3, 4)}
        g1sq = dp.mul(g[1], g[1])
        want = expr(
            g[4],
            dp.mul(g[1], g[3]),
            dp.scale(dp.mul(g[2], g[2]), F(1, 2)),
            dp.mul(g1sq, g[2]),
            dp.scale(dp.mul(g1sq, g1sq), F(1, 4)),
        )
        assert ws.build_phi(series15, 4) == want

    @pytest.mark.parametrize("n", range(1, 8))
    def test_phi_is_the_composition_sum(self, series15, n):
        # the paper's explicit form: sum_l (1/l) sum_{c_1+...+c_l=n} G_{c_1}...G_{c_l}
        g = {j: ws.g_term(series15, j) for j in range(1, n + 1)}
        want = dp.ZERO
        for comp in ws.compositions(n):
            prod = dp.ONE
            for c in comp:
                prod = dp.mul(prod, g[c])
            want = dp.add(want, dp.scale(prod, F(1, len(comp))))
        assert ws.build_phi(series15, n) == want

    def test_phi_bounds(self, series15):
        with pytest.raises(ValueError):
            ws.build_phi(series15, 0)
        with pytest.raises(ValueError):
            ws.build_phi(series15, 8)


class TestCertificates:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_certified(self, series15, n):
        cert = ws.certify_total_derivative(series15, n)
        assert cert.verified
        assert cert.f_n == ws.f_term(series15, n)
        assert dp.differentiate(cert.phi_n) == cert.f_n

    def test_half_phi1_is_the_t3_bracket(self, series15):
        cert = ws.certify_total_derivative(series15, 1)
        assert dp.scale(cert.phi_n, F(1, 2)) == T3_ANTIDERIVATIVE

    def test_out_of_range(self, series15):
        with pytest.raises(ValueError):
            ws.certify_total_derivative(series15, 8)

    def test_phi1_to_phi8_bytes_pinned(self):
        # the k/n factors of build_phi make these the only non-dyadic coefficients
        series = ws.gen_terms(17)
        doc = []
        for n in range(1, 9):
            cert = ws.certify_total_derivative(series, n)
            doc.append({"n": cert.n, "f": expr_dict(cert.f_n),
                        "phi": expr_dict(cert.phi_n), "verified": cert.verified})
        digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert digest == "08bbed78f2b986768c1bf37a3e99bc8ac6b4bc91a61e53394be31636eb0f7d08"


@pytest.fixture(scope="module")
def series20():
    return ws.gen_terms(20)


class TestEvenReduction:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_t_is_r_plus_an_exact_derivative(self, series20, n):
        cert = ws.certify_even_reduction(series20, n)
        assert cert.verified
        t = series20.terms[2 * n]
        assert dp.add(cert.r_2n, dp.differentiate(cert.psi_2n)) == t
        assert all(k != 1 for m in cert.r_2n.monomials for k, _ in m.derivs)
        # half powers of Q only, so Psi is single-valued on the contour
        assert all(m.q_half % 2 for m in cert.psi_2n.monomials)

    def test_r2_is_the_classic_second_order_integrand(self, series20):
        cert = ws.certify_even_reduction(series20, 1)
        assert cert.r_2n == mono(F(-1, 48), -3, {2: 1})
        assert cert.psi_2n == mono(F(-5, 48), -3, {1: 1})

    def test_monomial_counts(self, series20):
        counts = [len(ws.certify_even_reduction(series20, n).r_2n.monomials)
                  for n in range(1, 11)]
        assert counts == [1, 2, 4, 7, 12, 21, 34, 55, 88, 137]

    def test_reductions_bytes_pinned(self, series20):
        # R_2n, Psi_2n and the verdict of n = 1..10, byte for byte
        doc = []
        for n in range(1, 11):
            cert = ws.certify_even_reduction(series20, n)
            doc.append({"n": n, "r": dp.expr_to_json(cert.r_2n),
                        "psi": dp.expr_to_json(cert.psi_2n), "verified": cert.verified})
        digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert digest == "dd879cf060d3760780a1a2e1fc095417610fe52b5fb694785854042498d5a610"

    def test_q_prime_free_input_is_its_own_remainder(self):
        t = expr(mono(F(1, 3), -3, {2: 1}), mono(F(2), 1))
        r, psi = dp.reduce_q_prime(t)
        assert r == t and not psi

    def test_q_prime_over_q_has_no_antiderivative(self):
        with pytest.raises(ValueError, match="no antiderivative"):
            dp.reduce_q_prime(mono(1, -2, {1: 1, 2: 1}))

    def test_out_of_range(self, series20):
        for n in (0, 11):
            with pytest.raises(ValueError):
                ws.certify_even_reduction(series20, n)


class TestSerialization:
    def test_series_json_golden(self):
        from pathlib import Path

        golden = json.loads(
            (Path(__file__).parent / "golden" / "series_n4.json").read_text()
        )
        assert series_dict(ws.gen_terms(4)) == golden
        assert json.loads(ws.series_to_json(ws.gen_terms(4))) == golden

    @pytest.mark.parametrize("n", [*range(9), 20])
    def test_json_text_equals_indented_dumps(self, n):
        series = ws.gen_terms(n)
        assert ws.series_to_json(series) == json.dumps(series_dict(series), indent=2)

    def test_json_text_of_empty_lists(self):
        for series in (ws.WkbSeries(1, (dp.ZERO, dp.ONE)), ws.WkbSeries(-1, ())):
            assert ws.series_to_json(series) == json.dumps(series_dict(series), indent=2)

    @pytest.mark.parametrize("indent", [0, 3])
    def test_expr_json_indents_every_line_after_the_first(self, series15, indent):
        for t in (dp.ZERO, series15.terms[5]):
            want = json.dumps(expr_dict(t), indent=2).replace("\n", "\n" + " " * indent)
            assert dp.expr_to_json(t, indent) == want


class TestMonomialViews:
    """The algebra stays packed: a monomial view is built only when an
    expression is read out, and once per expression."""

    @pytest.fixture
    def views(self, monkeypatch):
        built = []
        view = dp._view

        def counted(den, rows):
            built.append(len(rows))
            return view(den, rows)

        monkeypatch.setattr(dp, "_view", counted)
        return built

    def test_generation_and_certificates_build_none(self, views):
        series = ws.gen_terms(12)
        for n in range(1, 6):
            assert ws.certify_total_derivative(series, n).verified
            assert ws.certify_even_reduction(series, n).verified
        assert ws.series_to_json(series)
        assert views == []
        text = dp.to_plain(series.terms[12])
        assert dp.to_latex(series.terms[12]) and dp.to_plain(series.terms[12]) == text
        assert views == [len(series.terms[12])]

    def test_verify_odd_builds_none(self, views, tmp_path):
        from dunham.cli import EXIT_OK, main

        out = tmp_path / "odd.txt"
        assert main(["verify-odd", "--n-max", "8", "--output", str(out)]) == EXIT_OK
        assert out.read_text().endswith("all verified\n")
        assert views == []
