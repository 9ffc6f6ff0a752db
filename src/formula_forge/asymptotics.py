"""Growth base and leading constant of the counting sequences.

The counting generating function satisfies a quadratic whose discriminant
vanishes at the dominant singularity 1/rho.  Writing the discriminant as
1 - 4*(x + S(x)), where S collects the substituted-series terms

    S(x) = sum_{2 <= d < T} C(d) * (f(x^d) - x^d)   [+ pow-rooted terms],

the singularity is the fixed point of g(x) = 1/4 - S(x), the root of
F(x) = x + S(x) - 1/4.  The requested number of plain steps x <- g(x) run
first, from a seed just below the true value; Newton steps on F, with
F'(x) = 1 + S'(x), then polish the point until the residual |g(x) - x|
drops below 2^-(precision_bits - 8), with 16 guard bits carried internally.
The residual certifies the point: F' >= 1 on (0, 1/4], so the fixed point
is within the residual of x.  Newton doubles the correct bits per step
(Pivoteau, Salvy & Soria, "Algorithms for combinatorial structures:
well-founded systems and Newton iterations", JCTA 2012), where the plain
steps gain a constant few; at most 64 Newton steps are taken, and each
must shrink the residual.

S is one list of exact ints, s[j] the coefficient of x^j: s[d*n] gets
C(d)*C(n) for 2 <= d, n < T (``counting.sieved``); for ame s[n] also gets
the pow-rooted trees of value n: the list has (T-1)^2 + 1 entries.  Almost
all of them are far below the working precision, so g runs Horner over the
shortest prefix whose dropped tail is provably below 2^-(precision_bits +
16).  The bound needs |x| <= 1/4: every plain iterate is at most 1/4
because the seed is and S >= 0 on positive x, and the iteration rejects an
iterate that is not positive.  Newton keeps the point there too: F is
increasing and convex on (0, 1/4] (S has no negative coefficient), so a
step from above the root stays above it, one from below lands above it,
and none passes 1/4 because the step is at most 1/4 - x when S and S' are
nonnegative.  Rounding could still break that, so the polish rejects a
Newton iterate outside (0, 1/4], and the `rho > 4` check rejects a fixed
point outside (0, 1/4).  Then each dropped term s[j]*x^j is below
2^(bits(s[j]) - 2j), so the terms above degree k sum to less than
len(s) * max_{j>k} of that, which is integer arithmetic on bit lengths.
The derivative S' runs over the same cut; it only steers the steps, and
the certificate is always checked on g itself.

Only a prefix of S is built.  With bits(n) = n.bit_length(), bits(a*b) <=
bits(a) + bits(b), and a sum of m ints below 2^B is below 2^(B + bits(m)).
Let a2 = max_{1 <= k < T} (2*bits(C(k)) - 5k), so bits(C(d)*C(n)) <= a2 +
5(d + n)/2.  For j = d*n with d, n >= 2, d + n <= 2 + j/2, and for j >= T
s[j] is a sum of fewer than L = (T-1)^2 + 1 such products, so bits(s[j]) -
2j <= a2 + 5 + bits(L) - 3j/4.  That is at most the cut's limit
-(precision_bits + 16) - bits(L) once j >= J = ceil(4(a2 + 5 + bits(L) -
limit)/3), so the cut of all L entries ends below max(J, T).  rho_estimate
builds the first max(J + 1, T) entries, one spare, and cuts them with the
limit of all L: at T = 1000 and 53 bits that is 1000 of 998,002 entries,
81 kept.

g, S' and G(r) run Horner on plain ints, each step rounded as mpf_mul and
mpf_add round it (_horner), so every estimate has the bits of the same
steps on mpf values.

The leading constant comes from the square-root factorization of the
discriminant at the singularity: C = sqrt(G(r)) / (4*sqrt(pi)) with
G = (1 - 4h) * sum_j (x/r)^j truncated at T terms, h = x + S.  At x = r the
geometric factor collapses, so G(r) = sum_{i<T} (T - i) * a_i * r^i with a
the coefficients of 1 - 4h; only the T lowest coefficients of S are built
for it.
"""

from __future__ import annotations

from operator import mul

import mpmath
from mpmath.libmp import fone, from_man_exp, mpf_add, mpf_sub

from .counting import FAMILIES, default_table, sieved
from .errors import DomainError, NegativeRadicand, NonConvergence, Record, require_int

_GUARD_BITS = 16
_MAX_EXTRA_ITERATIONS = 64
_SEEDS = {"am": "4.077", "ame": "4.131"}


class RhoEstimate(Record):
    __slots__ = __match_args__ = ("family", "rho", "fixed_point", "terms", "iterations",
                                  "extra_iterations", "precision_bits", "residual")


class ConstantEstimate(Record):
    __slots__ = __match_args__ = ("rho", "constant", "radicand", "ratios", "terms",
                                  "iterations", "precision_bits")


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


def _coefficients(family, terms, limit=None):
    """S(x) as exact ints, s[j] the coefficient of x^j (1/4 is kept apart),
    for j < limit; all (T-1)^2 + 1 of them by default."""
    counts, cols = default_table().filled(FAMILIES[family], terms - 1)
    if limit is None:
        limit = (terms - 1) * (terms - 1) + 1
    s = sieved(counts[:terms], mul, 0, limit)
    if family == "ame":
        for n in range(4, min(terms, limit)):
            s[n] += cols[2][n]  # pow-rooted trees
    return s


def _cut(s, precision_bits, length=None):
    """The shortest prefix of s that is within 2^-(precision_bits + 16) of s
    at every |x| <= 1/4.

    There |s[j] * x^j| < 2^(bits(s[j]) - 2j), so the terms above the
    prefix sum to less than len(s) < 2^bits(len(s)) times the largest such
    power among them.  Given `length`, s is the start of a list of that
    many entries whose entries past s that list's limit drops; the cut is
    then that list's.
    """
    limit = -(precision_bits + _GUARD_BITS) - (length or len(s)).bit_length()
    for j in range(len(s) - 1, -1, -1):
        if s[j].bit_length() - 2 * j > limit:
            return s[: j + 1]
    return []


def _certified(family, terms, precision_bits):
    """_cut(_coefficients(family, terms), precision_bits), building only the
    coefficients below the degree bound J of the module docstring."""
    length = (terms - 1) * (terms - 1) + 1
    counts, _ = default_table().filled(FAMILIES[family], terms - 1)
    a2 = max(2 * c.bit_length() - 5 * k for k, c in enumerate(counts[1:terms], 1))
    limit = -(precision_bits + _GUARD_BITS) - length.bit_length()
    degree = -(-4 * (a2 + 5 + length.bit_length() - limit) // 3)  # J
    prefix = _coefficients(family, terms, min(length, max(degree + 1, terms)))  # one spare
    return _cut(prefix, precision_bits, length)


def _descending(coefficients):
    """Exact ints, highest degree first, for _horner."""
    return coefficients[::-1]


def _horner(descending, x):
    """The polynomial with these int coefficients at the mpf x, as a raw
    libmp value at the working precision.

    Each step is `acc = acc * x + c` as mpf_mul and mpf_add make it, on a
    plain (man, exp) pair: the exact product, rounded to prec bits half to
    even, then the exact sum with c, rounded again.  The mp context always
    rounds to nearest, so both steps are mpmath's bits: mpf_mul is correctly
    rounded, and so is mpf_add except for one shortcut.  When c reaches more
    than prec + 4 bits above the product and its lowest set bit more than
    100 above the product's, mpf_add stands in one unit prec + 4 bits below
    c's lowest bit, with the product's sign, for the product; the loop does
    the same.  (It takes the same shortcut with the roles swapped, but the
    product has at most prec bits, so both sums round to the product.)
    """
    prec, rnd = mpmath.mp._prec_rounding
    sign, xman, xexp, _ = x._mpf_
    if sign:
        xman = -xman
    man = exp = 0
    for c in descending:
        if man:
            man *= xman
            exp += xexp
            n = man.bit_length() - prec
            if n > 0:
                man, exp = _round(man, n), exp + n
        if not c:
            continue
        if not man:
            man, exp = c, 0
        else:
            gap = c.bit_length() - man.bit_length() - exp
            if gap > prec + 4 and (c & -c).bit_length() - (man & -man).bit_length() - exp > 100:
                low = (c & -c).bit_length() - 1
                man = ((c >> low) << (prec + 4)) + (1 if man > 0 else -1)
                exp = low - prec - 4
            elif exp >= 0:
                man, exp = (man << exp) + c, 0
            else:
                man += c << -exp
        n = man.bit_length() - prec
        if n > 0:
            man, exp = _round(man, n), exp + n
    return from_man_exp(man, exp, prec, rnd)


def _round(man, n):
    """man / 2^n rounded to the nearest int, ties to even; n > 0."""
    t = man >> (n - 1)
    if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
        return (t >> 1) + 1
    return t >> 1


def _polish(g, slope, x, threshold):
    """Newton steps on F(x) = x - g(x) until |g(x) - x| < threshold; returns
    (x, residual, steps).  slope(x) is F'(x).

    NonConvergence if an iterate leaves (0, 1/4], where the cut of S is
    bounded, if the residual does not shrink, or after
    _MAX_EXTRA_ITERATIONS steps.
    """
    gx = g(x)
    residual = abs(gx - x)
    steps = 0
    while residual >= threshold:
        if steps >= _MAX_EXTRA_ITERATIONS:
            raise NonConvergence(
                f"residual {mpmath.nstr(residual, 6)} still above threshold after "
                f"{_MAX_EXTRA_ITERATIONS} Newton steps"
            )
        x -= (x - gx) / slope(x)
        if not 0 < x <= 0.25:
            raise NonConvergence(f"Newton iterate left (0, 1/4]: {mpmath.nstr(x, 6)}")
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
    4.1307.  The requested iterations of g run first; if the residual has
    not yet certified to 2^-(precision_bits - 8), Newton steps on
    F(x) = x + S(x) - 1/4 polish the point, at most 64 of them, and
    extra_iterations counts them (1-3 at 100-300 bits).
    NonConvergence is raised if an iterate escapes (0, 1) in the plain
    steps or leaves (0, 1/4] in the Newton steps, if a Newton step does not
    shrink the residual, if 64 steps do not certify it, or if rho <= 4.
    """
    family = _normalize_family(family)
    _check_params(terms, iterations, precision_bits)
    cut = _certified(family, terms, precision_bits)
    s = _descending(cut)
    ds = _descending([j * c for j, c in enumerate(cut)][1:])  # S'
    threshold = mpmath.mpf(2) ** -(precision_bits - 8)
    with mpmath.workprec(precision_bits + _GUARD_BITS):
        prec, rnd = mpmath.mp._prec_rounding
        quarter = mpmath.mpf(0.25)._mpf_

        def g(x):
            return mpmath.mp.make_mpf(mpf_sub(quarter, _horner(s, x), prec, rnd))

        def slope(x):  # F'(x) = 1 + S'(x)
            return mpmath.mp.make_mpf(mpf_add(fone, _horner(ds, x), prec, rnd))

        x = 1 / mpmath.mpf(_SEEDS[family])
        for _ in range(iterations):
            x = g(x)
            if not 0 < x < 1:
                raise NonConvergence(f"iterate escaped (0, 1): {mpmath.nstr(x, 6)}")
        x, residual, extra = _polish(g, slope, x, threshold)
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
    est = rho_estimate("am", terms, iterations, precision_bits)
    counts, _ = default_table().filled(FAMILIES["am"], terms - 1)
    a = [-4 * c for c in _coefficients("am", terms, terms)]  # 1 - 4h
    a[0] += 1
    a[1] -= 4
    with mpmath.workprec(precision_bits + _GUARD_BITS):
        r = est.fixed_point  # singularity radius, 1/rho
        weighted = _descending([(terms - i) * c for i, c in enumerate(a)])
        radicand = mpmath.mp.make_mpf(_horner(weighted, r))
        if radicand < 0:
            raise NegativeRadicand(
                f"G(r) = {mpmath.nstr(radicand, 8)} < 0; no real constant"
            )
        constant = mpmath.sqrt(radicand) / (4 * mpmath.sqrt(mpmath.pi))
        ratios = []
        for n in range(2, terms):
            expected = constant * est.rho**n / mpmath.sqrt(mpmath.mpf(n) ** 3)
            ratios.append(counts[n] / expected)
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
