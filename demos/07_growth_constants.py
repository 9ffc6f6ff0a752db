"""Growth constants of the counting sequences.

The number of strict trees of value n grows like C * rho^n / sqrt(n^3).
The base rho is 1/x at the fixed point of g(x) = 1/4 - S(x), where S is a
list of exact integer coefficients built from the counts; g evaluates only
the prefix of that list whose dropped terms are provably below the working
precision.  A few plain steps of g are followed by Newton steps on
x + S(x) - 1/4, which certify the point to the requested precision.  The
constant C falls out of a square-root factorization at the singularity,
from the slope of x + S(x) there.
"""

import mpmath

from formula_forge import constant_estimate, count_am, rho_estimate

print("= growth base rho =")
for family in ("am", "ame"):
    est = rho_estimate(family, terms=100, iterations=20, precision_bits=100)
    print(f"{family:>3}: rho = {mpmath.nstr(est.rho, 20)}")
    print(f"     fixed point 1/rho = {mpmath.nstr(est.fixed_point, 20)}")
    print(f"     residual {mpmath.nstr(est.residual, 3)} after "
          f"{est.iterations} iterations + {est.extra_iterations} Newton step(s)")
print()

# Truncation order barely matters: the series sees the singularity early.
a = rho_estimate("am", terms=60).rho
b = rho_estimate("am", terms=100).rho
print(f"terms=60 vs terms=100 agree to {mpmath.nstr(abs(a - b), 3)}")
print()

print("= leading constant for {+, *} =")
est = constant_estimate(terms=100)
print(f"C = {mpmath.nstr(est.constant, 12)}")
print(f"radicand G(1/rho) = 4 F'(1/rho) / rho = {mpmath.nstr(est.radicand, 12)}")
print()

# Sanity check the asymptotic against exact counts: the ratio
# count / (C * rho^n / n^1.5) drifts toward 1.
print(" n   count_am(n)        count / asymptotic")
for n in (10, 20, 40, 80):
    exact = count_am(n)
    approx = est.constant * est.rho**n / mpmath.mpf(n) ** 1.5
    print(f"{n:>3}  {exact!s:<18} {mpmath.nstr(exact / approx, 8)}")
print()
tail = est.ratios[-10:]
print(f"mean of last ten stored ratios: {mpmath.nstr(sum(tail) / len(tail), 8)}")
