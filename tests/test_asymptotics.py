"""The growth-base / leading-constant estimates and the cut of S."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formula_forge import (
    DomainError,
    NonConvergence,
    constant_estimate,
    count_am,
    count_ame,
    rho_estimate,
)
from formula_forge.asymptotics import _coefficients, _cut, _descending, _horner, _polish


# the cut of S

def _exact_value(coefficients, x):
    """sum c_j x^j as a Fraction, splitting the list in halves."""
    p, q = x.numerator, x.denominator

    def scaled(cs):  # sum c_j p^j q^(len(cs) - 1 - j), an integer
        if len(cs) == 1:
            return cs[0]
        m = len(cs) // 2
        return scaled(cs[:m]) * q ** (len(cs) - m) + p**m * scaled(cs[m:])

    return Fraction(scaled(coefficients), q ** (len(coefficients) - 1))


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["am", "ame"]),
    terms=st.integers(8, 150),
    bits=st.integers(53, 400),
    denominator=st.integers(4, 2**10),
    data=st.data(),
)
def test_cut_drops_less_than_the_guard_bound(family, terms, bits, denominator, data):
    numerator = data.draw(st.integers(1, denominator // 4), label="numerator")
    x = Fraction(numerator, denominator)  # in (0, 1/4]
    full = _coefficients(family, terms)
    cut = _cut(full, bits)
    assert cut == full[: len(cut)]
    dropped = _exact_value(full, x) - _exact_value(cut, x)
    assert 0 <= dropped < Fraction(1, 2 ** (bits + 16))


def _plain_coefficients(family, terms):
    """S by the plain double loop over every product d * n, 2 <= d, n < T,
    plus the pow-rooted trees of each value below T for ame."""
    count = count_am if family == "am" else count_ame
    s = [0] * ((terms - 1) ** 2 + 1)
    for d in range(2, terms):
        for n in range(2, terms):
            s[d * n] += count(d) * count(n)
    if family == "ame":
        for n in range(2, terms):
            s[n] += count_ame(n, "^")
    return s


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["am", "ame"]), terms=st.integers(8, 150), data=st.data())
def test_coefficients_below_a_degree_limit_are_a_prefix(family, terms, data):
    full = _coefficients(family, terms)
    assert full == _plain_coefficients(family, terms)
    limit = data.draw(st.integers(1, len(full)), label="limit")
    assert _coefficients(family, terms, limit) == full[:limit]


@settings(max_examples=30, deadline=None)
@given(
    coefficients=st.lists(st.integers(-(2**200), 2**200), max_size=40),
    bits=st.integers(53, 400),
    x=st.floats(-1, 1),
)
def test_horner_on_raw_values_matches_mpf_arithmetic(coefficients, bits, x):
    with mpmath.workprec(bits):
        x = mpmath.mpf(x) / 3
        acc = 0
        for c in reversed(coefficients):
            acc = acc * x + c
        assert _horner(_descending(coefficients), x) == mpmath.mpf(acc)._mpf_


# Newton polish failure modes

def test_polish_detects_stall():
    # F(x) = x - g(x) = 1/128 everywhere: each step moves x, not F
    with pytest.raises(NonConvergence, match="stopped shrinking"):
        _polish(lambda x: x - mpmath.mpf(2) ** -7, lambda x: 1,
                mpmath.mpf(3) / 16, mpmath.mpf("1e-20"))


def test_polish_gives_up_after_budget():
    # F(x) = x with a slope of 100: each step only takes off 1% of x
    with pytest.raises(NonConvergence, match="after 64 Newton steps"):
        _polish(lambda x: 0 * x, lambda x: 100, mpmath.mpf(0.25), mpmath.mpf("1e-40"))


@pytest.mark.parametrize("g, slope", [
    (lambda x: x + mpmath.mpf(1) / 8, lambda x: 1),  # to 5/16, above 1/4
    (lambda x: 0 * x, lambda x: mpmath.mpf(0.5)),  # to -3/16
])
def test_polish_rejects_an_iterate_outside_the_quarter(g, slope):
    with pytest.raises(NonConvergence, match=r"left \(0, 1/4\]"):
        _polish(g, slope, mpmath.mpf(3) / 16, mpmath.mpf("1e-20"))


@pytest.mark.parametrize("bits", [100, 200, 300])
@pytest.mark.parametrize("terms", [60, 100, 150])
@pytest.mark.parametrize("family", ["am", "ame"])
def test_fixed_point_certifies_exactly(family, terms, bits):
    # x + S_cut(x) - 1/4, in exact rationals at the returned fixed point
    est = rho_estimate(family, terms, 20, bits)
    sign, man, exp, _ = est.fixed_point._mpf_
    x = Fraction(-man if sign else man) * Fraction(2) ** exp
    assert 0 < x <= Fraction(1, 4)
    cut = _cut(_coefficients(family, terms), bits)
    f = x + _exact_value(cut, x) - Fraction(1, 4)
    assert abs(f) < Fraction(1, 2 ** (bits - 8))


# growth base

def test_rho_brackets():
    am = rho_estimate("am")
    assert 4.07 < am.rho < 4.08
    ame = rho_estimate("ame")
    assert 4.12 < ame.rho < 4.14
    assert am.rho < ame.rho


def test_rho_internal_consistency():
    est = rho_estimate("am", terms=60)
    assert est.family == "am"
    assert abs(est.rho * est.fixed_point - 1) < mpmath.mpf(2) ** -80
    assert est.residual < mpmath.mpf(2) ** -(est.precision_bits - 8)


def test_rho_stable_under_truncation_order():
    a = rho_estimate("am", terms=40)
    b = rho_estimate("am", terms=60)
    assert abs(a.rho - b.rho) < 1e-9


def test_rho_matches_count_ratio_extrapolation():
    # count(n+1)/count(n) ~ rho * (n/(n+1))^(3/2); undo the algebraic factor
    est = rho_estimate("am", terms=60)
    n = 200
    ratio = mpmath.mpf(count_am(n + 1)) / count_am(n)
    extrapolated = ratio * (mpmath.mpf(n + 1) / n) ** mpmath.mpf("1.5")
    assert abs(extrapolated - est.rho) < 1e-3


def test_rho_family_aliases():
    base = rho_estimate("am", terms=40)
    assert rho_estimate("{+,*}", terms=40).rho == base.rho
    assert rho_estimate("a*m", terms=40).rho == base.rho
    assert rho_estimate("{+,*,^}", terms=40).family == "ame"


def test_rho_validation():
    with pytest.raises(DomainError):
        rho_estimate("abc")
    with pytest.raises(DomainError):
        rho_estimate("am", terms=7)
    with pytest.raises(DomainError):
        rho_estimate("am", iterations=0)
    with pytest.raises(DomainError):
        rho_estimate("am", precision_bits=52)


# leading constant

def test_constant_brackets():
    ce = constant_estimate()
    assert 0.1456 < ce.constant < 0.1458
    assert 1.066 < ce.radicand < 1.068
    assert 4.07 < ce.rho < 4.08


def test_constant_ratios_settle_near_one():
    ce = constant_estimate()
    assert len(ce.ratios) == ce.terms - 2
    tail = ce.ratios[-10:]
    mean = sum(tail) / len(tail)
    assert 0.98 < mean < 1.03
    # the normalized ratios drift toward 1 as n grows
    assert abs(ce.ratios[-1] - 1) < abs(ce.ratios[5] - 1)
    assert abs(ce.ratios[-1] - 1) < 0.01


def test_constant_agrees_with_rho_estimate():
    ce = constant_estimate(terms=60)
    assert ce.rho == rho_estimate("am", terms=60).rho


def test_constant_validation():
    with pytest.raises(DomainError):
        constant_estimate(terms=4)
    with pytest.raises(DomainError):
        constant_estimate(precision_bits=10)
