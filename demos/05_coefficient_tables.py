"""The three scalar sequences behind the closed-form solutions.

For a flat chart with one constant perturbation, the whole construction
collapses to three rational sequences: sigma drives the connection
recursion, kappa the section recursion, and c the resulting product
coefficients.  They satisfy quadratic recursions whose generating functions
are 1 - sqrt(1-x), 1/sqrt(1-x), and 1/(2(1-x)) — so c is constant at 1/2,
which is why the deformed products close into a geometric series.
"""

import math
from fractions import Fraction

from fedosov_lab import coeff_sequences

limit = 12
tab = coeff_sequences(limit)

print("   n  sigma_n          kappa_n          c_n")
for n, s, k, c in tab.rows():
    print("  %2d  %-15s  %-15s  %s" % (n, s if s is not None else "-", k, c))
print()

# The recursions, replayed:
#   sigma_n = 1/2 sum_{l=1}^{n-1} sigma_l sigma_{n-l}         (n >= 2)
#   kappa_n = sum_{m=1}^{n} kappa_{n-m} sigma_m               (n >= 1)
#   c_n     = 1/2 sum_{l=0}^{n} kappa_l kappa_{n-l}
s, k, c = tab.sigma, tab.kappa, tab.c
for n in range(2, limit + 1):
    assert s[n] == Fraction(1, 2) * sum(s[l] * s[n - l] for l in range(1, n))
for n in range(1, limit + 1):
    assert k[n] == sum(k[n - m] * s[m] for m in range(1, n + 1))
    assert c[n] == Fraction(1, 2) * sum(k[l] * k[n - l] for l in range(n + 1))
print("quadratic recursions hold through n = %d." % limit)

# Closed forms, computed independently: sigma_n is a scaled Catalan number
# and kappa_n a scaled central binomial coefficient.
for n in range(1, limit + 1):
    catalan = Fraction(math.comb(2 * n - 2, n - 1), n)
    assert s[n] == catalan / 2 ** (2 * n - 1)
    assert k[n] == Fraction(math.comb(2 * n, n), 4 ** n)
assert all(v == Fraction(1, 2) for v in c.values())
print("closed forms match: sigma_n = Catalan(n-1)/2^(2n-1),")
print("                    kappa_n = binom(2n, n)/4^n,  c_n = 1/2.")
