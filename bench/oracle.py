"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports toric_gec. Polynomials are plain dicts from exponent
tuples to Fractions, with zero coefficients dropped, so a library result is
compared through ``dict(result.terms)``. The references take routes other
than the subset enumeration inside ``mu``:

- rank 2: the logarithmic Hessian identity p * mu(p) = det(N), with
  N_ij = p D_iD_j p - (D_i p)(D_j p) and D_i = x_i d/dx_i;
- products of binomials in distinct variables: the product law together
  with the univariate closed form mu((x + a)^e) = e a x (x + a)^(2e - 2);
- dilated unit simplices: the power law mu(p^k) = k^r p^((r+1)(k-1)) mu(p)
  with mu(1 + x_1 + ... + x_n) = x_1 ... x_n.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

Poly = dict  # exponent tuple -> nonzero Fraction


def _put(out: Poly, e: tuple, c: Fraction) -> None:
    s = out.get(e, 0) + c
    if s:
        out[e] = s
    else:
        out.pop(e, None)


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _put(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def sub(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        _put(out, e, -c)
    return out


def power(a: Poly, k: int, rank: int) -> Poly:
    out: Poly = {(0,) * rank: Fraction(1)}
    for _ in range(k):
        out = mul(out, a)
    return out


def monomial(e: tuple, c=1) -> Poly:
    return {tuple(e): Fraction(c)}


def unit(rank: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(rank))


def binomial(rank: int, i: int, a) -> Poly:
    """x_i + a."""
    return {unit(rank, i): Fraction(1), (0,) * rank: Fraction(a)}


def simplex(rank: int) -> Poly:
    """1 + x_1 + ... + x_rank."""
    out = {unit(rank, i): Fraction(1) for i in range(rank)}
    out[(0,) * rank] = Fraction(1)
    return out


def initial_part(a: Poly, u: tuple) -> Poly:
    """Terms of minimal u-weight."""
    w = {e: sum(x * y for x, y in zip(e, u)) for e in a}
    low = min(w.values())
    return {e: c for e, c in a.items() if w[e] == low}


def log_derivative(a: Poly, i: int) -> Poly:
    return {e: c * e[i] for e, c in a.items() if e[i]}


def hessian_determinant(p: Poly) -> Poly:
    """det(N) for a polynomial in two variables; equals p * mu(p) when the
    support has rank 2."""
    d = [log_derivative(p, i) for i in range(2)]
    n = [
        [sub(mul(p, log_derivative(d[j], i)), mul(d[i], d[j])) for j in range(2)]
        for i in range(2)
    ]
    return sub(mul(n[0][0], n[1][1]), mul(n[0][1], n[1][0]))


def product_mu(c, factors: list[tuple[Fraction, int]]) -> Poly:
    """mu of c * prod_i (x_i + a_i)^(e_i), one factor per variable:
    c^(k+1) prod_i e_i a_i x_i (x_i + a_i)^(e_i (k+1) - 2), k = #factors."""
    k = len(factors)
    out = monomial((0,) * k, Fraction(c) ** (k + 1))
    for i, (a, e) in enumerate(factors):
        out = mul(out, monomial(unit(k, i), e * Fraction(a)))
        out = mul(out, power(binomial(k, i, a), e * (k + 1) - 2, k))
    return out


def simplex_power_mu(rank: int, k: int) -> Poly:
    """mu of (1 + x_1 + ... + x_rank)^k."""
    lead = monomial((1,) * rank, Fraction(k) ** rank)
    return mul(lead, power(simplex(rank), (rank + 1) * (k - 1), rank))


def normalized_total_degree(a: Poly) -> int:
    """Total degree after dividing out the componentwise minimum exponent:
    the kappa* that a GEC decision uses for a polynomial with this mu."""
    rank = len(next(iter(a)))
    mins = [min(e[i] for e in a) for i in range(rank)]
    return max(sum(x - m for x, m in zip(e, mins)) for e in a)


def simplex_power_min_kappa(rank: int, k: int) -> int:
    """Smallest kappa with mu(p) | p^kappa for p = (1 + sum x_i)^k: the
    simplex factor has multiplicity (rank+1)(k-1) in mu and k in p."""
    return ceil((rank + 1) * (k - 1) / k)


def product_min_kappa(exponents: list[int]) -> int:
    """Same for a product of binomial powers in distinct variables."""
    r = len(exponents)
    return max(ceil((e * (r + 1) - 2) / e) for e in exponents)


def terms_from_json(obj: dict) -> Poly:
    """Decode the library's polynomial JSON ({"rank", "terms": [{"e","c"}]})."""
    return {tuple(t["e"]): Fraction(t["c"]) for t in obj["terms"]}


# mu of the reference hexagon polynomial (vertex coefficients 1, center 2),
# the 19-term expansion stated in the paper.
MU_HEXAGON_Q = {
    (2, 0): 1, (1, 1): 2, (0, 2): 1,
    (1, 0): 10, (2, -1): 2, (0, 1): 10, (-1, 2): 2,
    (2, -2): 1, (1, -1): 10, (0, 0): 18, (-1, 1): 10, (-2, 2): 1,
    (1, -2): 2, (0, -1): 10, (-1, 0): 10, (-2, 1): 2,
    (-2, 0): 1, (0, -2): 1, (-1, -1): 2,
}
