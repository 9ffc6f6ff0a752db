"""The growth-base / leading-constant estimates and the cut of S."""

import hashlib
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
import formula_forge.asymptotics as asymptotics
from formula_forge.asymptotics import (
    _certified,
    _coefficients,
    _cut,
    _descending,
    _horner,
    _polish,
)


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


def _full_cut(family, terms, bits, _full={}):
    if (family, terms) not in _full:
        _full[family, terms] = _coefficients(family, terms)
    return _cut(_full[family, terms], bits)


@pytest.mark.parametrize("bits", [53, 100, 300, 1000])
@pytest.mark.parametrize("terms", [8, 9, 20, 41, 60, 100, 150, 300])
@pytest.mark.parametrize("family", ["am", "ame"])
def test_certified_prefix_cuts_like_the_full_series(family, terms, bits):
    assert _certified(family, terms, bits) == _full_cut(family, terms, bits)


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["am", "ame"]),
    terms=st.integers(8, 200),
    bits=st.integers(53, 1200),
)
def test_certified_prefix_property(family, terms, bits):
    assert _certified(family, terms, bits) == _full_cut(family, terms, bits)


def test_rho_builds_only_a_prefix_of_the_series(monkeypatch):
    # the full series at T = 1000 has 998,002 coefficients; the cut keeps 81
    bounds = []

    def spy(tot, op, lo, hi):
        bounds.append(hi)
        return counting_sieved(tot, op, lo, hi)

    counting_sieved = asymptotics.sieved
    monkeypatch.setattr(asymptotics, "sieved", spy)
    est = rho_estimate("am", 1000, 20, 53)
    assert 4.07 < est.rho < 4.08
    assert bounds and max(bounds) <= 5000
    assert len(_certified("am", 1000, 53)) == 81


def _mpf_horner(descending, x):
    acc = mpmath.mpf(0)
    for c in descending:
        acc = acc * x + c
    return acc._mpf_


@pytest.mark.parametrize("bits, descending, x", [
    # ties in the product: 3 * (2^52 + 1) and 3 * (2^52 + 3) have 54 bits,
    # the dropped one exactly half; the first rounds up to even, the second down
    (53, [2**52 + 1, 0], 3),
    (53, [2**52 + 3, 0], 3),
    # ties in the sum: 1 + 2^53 rounds down, 3 + 2^53 up
    (53, [1, 2**53], 1),
    (53, [3, 2**53], 1),
    # 2 * (2^53 - 1) + 1 = 2^54 - 1 rounds up into a new power of two, and
    # its negative down
    (53, [2**53 - 1, 1], 2),
    (53, [-(2**53 - 1), -1], 2),
    # c more than prec + 4 bits above the product, its lowest bit 130, 101
    # and 100 bits above the product's: the first two take mpf_add's
    # perturbation shortcut, the last the exact sum
    (150, [-(2**150 - 1), 2**199 + 2**49 + 1], mpmath.mpf(2) ** -130),
    (150, [2**150 - 1, 2**199 + 2**49 + 1], mpmath.mpf(2) ** -130),
    (150, [-(2**121 - 1), 2**199 + 2**49 + 1], mpmath.mpf(2) ** -101),
    (150, [-(2**120 - 1), 2**199 + 2**49 + 1], mpmath.mpf(2) ** -100),
    # c far below the product, its lowest bit more than 100 below
    (200, [2**100 + 1, 1], mpmath.mpf(2) ** 200),
    (200, [2**100 + 1, -(2**90 + 1)], mpmath.mpf(2) ** 200),
    # zero and negative coefficients, negative x, x = 0, the empty list
    (100, [0, 0, 5, 0, -7, 0], mpmath.mpf(-1) / 3),
    (100, [-(2**120) + 1, 3**80, -(5**40), 0], mpmath.mpf(-2) / 7),
    (100, [0, 0, 0], mpmath.mpf(1) / 3),
    (100, [2**200 + 1, 17, -3], 0),
    (100, [], mpmath.mpf(1) / 3),
    # 1 * 3 - 3 cancels to zero before the last step
    (100, [1, -3, 5], 3),
])
def test_horner_edge_cases_match_mpf_steps(bits, descending, x):
    with mpmath.workprec(bits):
        x = mpmath.mpf(x)
        assert _horner(descending, x) == _mpf_horner(descending, x)


def test_horner_keeps_the_perturbation_shortcut_of_mpf_add():
    # 2^199 + 2^49 + 1 - (2^20 - tiny) is below the midpoint 2^199 + 2^49 of
    # its 150-bit neighbours; the exact sum rounds it down, and the shortcut,
    # which sees only the product's sign, rounds it up
    c = 2**199 + 2**49 + 1
    with mpmath.workprec(150):
        exact = _horner([-(2**120 - 1), c], mpmath.mpf(2) ** -100)
        shortcut = _horner([-(2**121 - 1), c], mpmath.mpf(2) ** -101)
        assert exact == mpmath.mpf(2**199)._mpf_
        assert shortcut == mpmath.mpf(2**199 + 2**50)._mpf_


@settings(max_examples=60, deadline=None)
@given(
    coefficients=st.lists(
        st.one_of(
            st.integers(-(2**600), 2**600),
            st.builds(lambda k, d: (1 << k) + d, st.integers(0, 600), st.integers(-1, 1)),
        ),
        max_size=12,
    ),
    bits=st.integers(53, 400),
    x=st.floats(-1, 1),
    scale=st.integers(-400, 300),
)
def test_horner_across_exponent_gaps_matches_mpf_arithmetic(coefficients, bits, x, scale):
    with mpmath.workprec(bits):
        x = mpmath.mpf(x) * mpmath.mpf(2) ** scale
        assert _horner(_descending(coefficients), x) == _mpf_horner(coefficients[::-1], x)


# every field of every estimate, bit for bit, over a grid that holds the
# growth benchmark's 13 cells: rho's digest is the one recorded before C came
# from the slope F'(r), and C's was re-recorded then

_RHO_DIGEST = "b6f4a518d951374dc3f0d785079b070641842013c875b5d2d3fa862975023bc8"
_CONSTANT_DIGEST = "ba8307c00de520492b4b4e8982bd1eaafc85794027950537be488fa580c395d1"


def _field(value):
    if isinstance(value, mpmath.mpf):
        return repr(value._mpf_)
    if isinstance(value, tuple):
        return "(" + ",".join(_field(v) for v in value) + ")"
    return repr(value)


def _outcome(estimate, *args):
    try:
        est = estimate(*args)
    except Exception as exc:  # the exception is part of the pinned outcome
        return f"{type(exc).__name__}: {exc}"
    return ";".join(f"{name}={_field(getattr(est, name))}" for name in est.__match_args__)


def test_estimates_match_their_pinned_digest():
    rho, constant = hashlib.sha256(), hashlib.sha256()
    for terms in (8, 9, 20, 41, 60, 100, 150):
        for bits in (53, 100, 200, 300):
            for iterations in (1, 20):
                for family in ("am", "ame"):
                    outcome = _outcome(rho_estimate, family, terms, iterations, bits)
                    rho.update(f"rho {family} {terms} {iterations} {bits} {outcome}\n".encode())
                outcome = _outcome(constant_estimate, terms, iterations, bits)
                constant.update(f"constant {terms} {iterations} {bits} {outcome}\n".encode())
    assert (rho.hexdigest(), constant.hexdigest()) == (_RHO_DIGEST, _CONSTANT_DIGEST)


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


def test_plain_steps_refuse_an_iterate_that_escapes(monkeypatch):
    # from x = 1, g(x) = 1/4 - S(1) is far below 0
    monkeypatch.setitem(asymptotics._SEEDS, "am", "1.0")
    with pytest.raises(NonConvergence, match=r"iterate escaped \(0, 1\): -1\.76879e\+10"):
        rho_estimate("am", 20, 20, 100)


def test_a_fixed_point_past_the_quarter_is_refused(monkeypatch):
    monkeypatch.setattr(asymptotics, "_polish", lambda *args: (mpmath.mpf("0.3"), mpmath.mpf(0), 0))
    with pytest.raises(NonConvergence, match=r"fixed point gives rho = 3\.3333333 <= 4"):
        rho_estimate("am", 20, 20, 100)


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


def test_constant_converges_at_the_rate_of_rho():
    # G(r) = 4 r F'(r) drops only the terms of S of degree 2T and up, so C
    # converges as fast as rho does, far faster than one bit per term
    reference = constant_estimate(400, 20, 300).constant
    assert abs(constant_estimate(40, 20, 200).constant - reference) < mpmath.mpf(2) ** -80


def test_constant_agrees_with_rho_estimate():
    ce = constant_estimate(terms=60)
    assert ce.rho == rho_estimate("am", terms=60).rho


def test_constant_validation():
    with pytest.raises(DomainError):
        constant_estimate(terms=4)
    with pytest.raises(DomainError):
        constant_estimate(precision_bits=10)
