"""Growth base and leading constant of the counting sequences.

The counting generating function satisfies a quadratic whose discriminant
vanishes at the dominant singularity 1/rho.  Writing the discriminant as
1 - 4*(x + S(x)), where S collects the substituted-series terms

    S(x) = sum_{2 <= d < T} C(d) * (f(x^d) - x^d)   [+ pow-rooted terms],

the singularity is the fixed point of g(x) = 1/4 - S(x), found by direct
iteration from a seed just below the true value.  Series are truncated at T
terms; the fixed point is then polished until the residual |g(x) - x| drops
below 2^-(precision_bits - 8), with 16 guard bits carried internally.

The leading constant comes from the square-root factorization of the
discriminant at the singularity: C = sqrt(G(r)) / (4*sqrt(pi)) with
G = (1 - 4h) * sum_j (x/r)^j truncated, h = x + S.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

from .counting import count_am, count_ame
from .errors import DomainError, NegativeRadicand, NonConvergence, require_int

_GUARD_BITS = 16
_MAX_EXTRA_ITERATIONS = 64
_SEEDS = {"am": "4.077", "ame": "4.131"}


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series known through degree order-1; higher terms unknown.

    Binary operations truncate to the shorter operand.  Coefficients may be
    exact ints or mpmath floats; evaluation is Horner at the ambient
    mpmath precision.
    """

    coefficients: tuple
    order: int

    @classmethod
    def from_coefficients(cls, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs)
        if order < 1:
            raise DomainError("order must be at least 1")
        coeffs = coeffs[:order] + [0] * (order - len(coeffs))
        return cls(tuple(coeffs), order)

    @classmethod
    def zero(cls, order):
        return cls.from_coefficients([], order)

    def extend(self, order):
        """Declare higher coefficients exactly zero (for polynomials)."""
        if order < self.order:
            raise DomainError("extend cannot lower the order; use truncate")
        return TruncatedSeries(self.coefficients + (0,) * (order - self.order), order)

    def truncate(self, order):
        if order > self.order:
            raise DomainError("truncate cannot raise the order; use extend")
        return TruncatedSeries(self.coefficients[:order], order)

    def __add__(self, other):
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)), n
        )

    def __sub__(self, other):
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients)), n
        )

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(
                tuple(c * other for c in self.coefficients), self.order
            )
        n = min(self.order, other.order)
        out = [0] * n
        for i, a in enumerate(self.coefficients[:n]):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients[: n - i]):
                if b != 0:
                    out[i + j] += a * b
        return TruncatedSeries(tuple(out), n)

    __rmul__ = __mul__

    def substitute_power(self, d):
        """x -> x^d; exact, so the order grows to (order-1)*d + 1."""
        require_int(d, 1, "power")
        n = (self.order - 1) * d + 1
        out = [0] * n
        for i, c in enumerate(self.coefficients):
            out[i * d] = c
        return TruncatedSeries(tuple(out), n)

    def scale_argument(self, r):
        """x -> r*x, coefficient-wise c_i * r^i."""
        out = []
        p = 1
        for c in self.coefficients:
            out.append(c * p)
            p = p * r
        return TruncatedSeries(tuple(out), self.order)

    def eval_at(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class RhoEstimate:
    family: str
    rho: object
    fixed_point: object
    terms: int
    iterations: int
    extra_iterations: int
    precision_bits: int
    residual: object


@dataclass(frozen=True)
class ConstantEstimate:
    rho: object
    constant: object
    radicand: object
    ratios: tuple
    terms: int
    iterations: int
    precision_bits: int


def _normalize_family(family):
    f = str(family).lower()
    if f in ("am", "a*m", "{+,*}"):
        return "am"
    if f in ("ame", "{+,*,^}"):
        return "ame"
    raise DomainError(f"unknown family {family!r}; expected 'am' or 'ame'")


def _check_params(terms, iterations, precision_bits):
    require_int(terms, 8, "terms")
    require_int(iterations, 1, "iterations")
    require_int(precision_bits, 53, "precision_bits")


def _substituted_sum(family, terms):
    """S(x) as an exact integer series (the constant 1/4 is kept separate)."""
    counts = count_am if family == "am" else count_ame
    big = (terms - 1) * (terms - 1) + 1
    f = TruncatedSeries.from_coefficients(
        [0] + [counts(n) for n in range(1, terms)], terms
    )
    x_mon = TruncatedSeries.from_coefficients([0, 1], terms)
    s = TruncatedSeries.zero(big)
    for d in range(2, terms):
        s = s + counts(d) * (f - x_mon).substitute_power(d).extend(big)
    if family == "ame":
        pow_rooted = TruncatedSeries.from_coefficients(
            [0] * 4 + [count_ame(n, "^") for n in range(4, terms)], terms
        )
        s = s + pow_rooted.extend(big)
    return s


def _polish(g, x, threshold):
    """Iterate g until |g(x) - x| < threshold; returns (x, residual, steps)."""
    gx = g(x)
    residual = abs(gx - x)
    steps = 0
    while residual >= threshold:
        if steps >= _MAX_EXTRA_ITERATIONS:
            raise NonConvergence(
                f"residual {mpmath.nstr(residual, 6)} still above threshold after "
                f"{_MAX_EXTRA_ITERATIONS} extra iterations"
            )
        x = gx
        gx = g(x)
        new_residual = abs(gx - x)
        if new_residual >= residual:
            raise NonConvergence("fixed-point residual stopped shrinking")
        residual = new_residual
        steps += 1
    return x, residual, steps


def rho_estimate(
    family: str = "am",
    terms: int = 100,
    iterations: int = 20,
    precision_bits: int = 100,
) -> RhoEstimate:
    """Growth base of the family's counting sequence, rho = 1/fixed point.

    rho_estimate('am').rho is about 4.0766; rho_estimate('ame').rho about
    4.1307.  The requested iterations run first; if the residual has not yet
    certified to 2^-(precision_bits - 8), up to 64 more are spent, and
    NonConvergence is raised if that still fails.
    """
    family = _normalize_family(family)
    _check_params(terms, iterations, precision_bits)
    s = _substituted_sum(family, terms)
    threshold = mpmath.mpf(2) ** -(precision_bits - 8)
    with mpmath.workprec(precision_bits + _GUARD_BITS):

        def g(x):
            return mpmath.mpf(0.25) - s.eval_at(x)

        x = 1 / mpmath.mpf(_SEEDS[family])
        for _ in range(iterations):
            x = g(x)
            if not 0 < x < 1:
                raise NonConvergence(f"iterate escaped (0, 1): {mpmath.nstr(x, 6)}")
        x, residual, extra = _polish(g, x, threshold)
    with mpmath.workprec(precision_bits):
        rho = 1 / x
        fixed_point = +x
        residual = +residual
    if not rho > 4:
        raise NonConvergence(f"fixed point gives rho = {mpmath.nstr(rho, 8)} <= 4")
    return RhoEstimate(
        family=family,
        rho=rho,
        fixed_point=fixed_point,
        terms=terms,
        iterations=iterations,
        extra_iterations=extra,
        precision_bits=precision_bits,
        residual=residual,
    )


def constant_estimate(
    terms: int = 100,
    iterations: int = 20,
    precision_bits: int = 100,
) -> ConstantEstimate:
    """Leading constant C with Cam(n) ~ C * rho^n / sqrt(n^3), {+, *} family.

    The square-root factorization G of the discriminant against the geometric
    series at the singularity gives C = sqrt(G(r)) / (4*sqrt(pi)); the ratios
    Cam(n) / (C * rho^n / sqrt(n^3)) for n = 2..terms-1 are returned so the
    approach to 1 can be inspected.
    """
    _check_params(terms, iterations, precision_bits)
    est = rho_estimate("am", terms, iterations, precision_bits)
    s = _substituted_sum("am", terms).truncate(terms)
    with mpmath.workprec(precision_bits + _GUARD_BITS):
        r = est.fixed_point  # singularity radius, 1/rho
        coeffs = list(((-4) * s).coefficients)
        coeffs[0] += 1
        coeffs[1] -= 4
        one_minus_4h = TruncatedSeries.from_coefficients(coeffs, terms)
        q = 1 / r
        geom = TruncatedSeries.from_coefficients(
            [q**j for j in range(terms)], terms
        )
        radicand = (one_minus_4h * geom).scale_argument(r).eval_at(mpmath.mpf(1))
        if radicand < 0:
            raise NegativeRadicand(
                f"G(r) = {mpmath.nstr(radicand, 8)} < 0; no real constant"
            )
        constant = mpmath.sqrt(radicand) / (4 * mpmath.sqrt(mpmath.pi))
        ratios = []
        for n in range(2, terms):
            expected = constant * est.rho**n / mpmath.sqrt(mpmath.mpf(n) ** 3)
            ratios.append(count_am(n) / expected)
    with mpmath.workprec(precision_bits):
        constant = +constant
        radicand = +radicand
        ratios = tuple(+t for t in ratios)
    return ConstantEstimate(
        rho=est.rho,
        constant=constant,
        radicand=radicand,
        ratios=ratios,
        terms=terms,
        iterations=iterations,
        precision_bits=precision_bits,
    )
