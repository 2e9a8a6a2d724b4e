from fractions import Fraction

import pytest

from dunham.potential import parse_potential
from dunham.wkb_series import gen_terms


def _exact_eval(expr, q_derivs, sqrt_q):
    """expr at one point in Fraction arithmetic, given [Q, Q', ...] and sqrt(Q).

    Q must be a rational square so that sqrt_q is exact; even powers of Q go
    through sqrt_q too, which is exact once sqrt_q**2 == Q.
    """
    assert sqrt_q * sqrt_q == q_derivs[0]
    total = Fraction(0)
    for m in expr.monomials:
        term = m.coeff * sqrt_q**m.q_half
        for k, e in m.derivs:
            term *= q_derivs[k] ** e
        total += term
    return total


@pytest.fixture(scope="session")
def exact_eval():
    """The tests' reference evaluator of a DiffExpr: exact, one point at a time."""
    return _exact_eval


@pytest.fixture(scope="session")
def series15():
    return gen_terms(15)


@pytest.fixture(scope="session")
def ho():
    return parse_potential("x^2")


@pytest.fixture(scope="session")
def quartic():
    return parse_potential("x^4")


@pytest.fixture(scope="session")
def mixed():
    return parse_potential("x^2 + x^4")
