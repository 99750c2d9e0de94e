"""Sparse Laurent polynomials over the rationals.

A polynomial is a finite map from integer exponent vectors (tuples of fixed
length, the rank) to nonzero Fractions. The representation is canonical:
zero coefficients are dropped on construction, so equality of the term
dictionaries is equality in the ring. Negative exponents are first-class;
the polynomial subring consists of those elements whose exponents are all
nonnegative, and monomial_normalize projects any nonzero element onto that
subring by factoring out the componentwise minimum exponent.

Divisibility is decided by single-divisor polynomial division under the
graded lexicographic order. For Laurent elements this is sound after
normalization: minimum exponents are additive under products, so a Laurent
quotient of two normalized polynomials is automatically a polynomial.
least_dividing_power finds the least k with g | f^k without building f^k:
it steps the normal form of f^k modulo g over a prime field and confirms
the first zero exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm
from operator import add, neg, sub
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .lattice import integer_vector

Exponent = tuple[int, ...]
Scalar = int | Fraction

__all__ = [
    "LaurentPolynomial",
    "MonomialShift",
    "monomial_normalize",
    "divides",
    "exact_quotient",
    "least_dividing_power",
    "substitute_monomial",
]


def _coerce(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (float, bool)):
        raise ValueError(f"coefficient {value!r} is not an exact rational")
    return Fraction(value)


def _exponent(e: Iterable[int], rank: int) -> Exponent:
    """e as an exponent of a rank-rank polynomial: exactly rank integers."""
    e = integer_vector(e)
    if len(e) != rank:
        raise ValueError(f"exponent {e} does not have rank {rank}")
    return e


def _grlex_key(e: Exponent) -> tuple[int, Exponent]:
    return (sum(e), e)


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial. terms is a read-only view of the
    exponent-to-coefficient map."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[Exponent, Scalar] | Iterable[tuple[Exponent, Scalar]] = ()):
        (rank,) = integer_vector((rank,))
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Exponent, Fraction] = {}
        for e, c in items:
            e = _exponent(e, rank)
            c = _coerce(c)
            if c == 0:
                continue
            clean[e] = clean.get(e, Fraction(0)) + c
            if clean[e] == 0:
                del clean[e]
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    @classmethod
    def _from_clean(cls, rank: int, terms: dict[Exponent, Fraction]) -> "LaurentPolynomial":
        """Wrap terms that are already canonical: int tuples of length rank
        mapped to nonzero Fractions. Nothing is parsed or copied, so the
        caller hands the dict over and must not keep mutating it."""
        p = object.__new__(cls)
        object.__setattr__(p, "rank", rank)
        object.__setattr__(p, "terms", MappingProxyType(terms))
        return p

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LaurentPolynomial is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "LaurentPolynomial":
        return cls(rank, {})

    @classmethod
    def constant(cls, rank: int, value: Scalar) -> "LaurentPolynomial":
        return cls(rank, {(0,) * rank: value})

    @classmethod
    def monomial(cls, exponent: Sequence[int], coefficient: Scalar = 1) -> "LaurentPolynomial":
        e = integer_vector(exponent)
        return cls(len(e), {e: coefficient})

    @classmethod
    def variable(cls, rank: int, index: int) -> "LaurentPolynomial":
        e = tuple(1 if i == index else 0 for i in range(rank))
        return cls(rank, {e: 1})

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def support(self) -> list[Exponent]:
        return sorted(self.terms)

    def coefficient(self, exponent: Sequence[int]) -> Fraction:
        return self.terms.get(_exponent(exponent, self.rank), Fraction(0))

    def leading_term(self) -> tuple[Exponent, Fraction]:
        """Largest term in graded lexicographic order."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def total_degree(self) -> int:
        """Maximum coordinate sum over the support."""
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return max(sum(e) for e in self.terms)

    def __iter__(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(sorted(self.terms.items()))

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.rank, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentPolynomial | Scalar") -> "LaurentPolynomial":
        other = self._as_poly(other)
        out = self.terms.copy()
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return LaurentPolynomial._from_clean(self.rank, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._from_clean(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPolynomial | Scalar") -> "LaurentPolynomial":
        return self + (-self._as_poly(other))

    def __rsub__(self, other: Scalar) -> "LaurentPolynomial":
        return self._as_poly(other) - self

    def __mul__(self, other: "LaurentPolynomial | Scalar") -> "LaurentPolynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentPolynomial._from_clean(self.rank, out)

    __rmul__ = __mul__

    def scale(self, value: Scalar) -> "LaurentPolynomial":
        value = _coerce(value)
        if value == 0:
            return LaurentPolynomial.zero(self.rank)
        return LaurentPolynomial._from_clean(self.rank, {e: c * value for e, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "LaurentPolynomial":
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise TypeError("polynomial powers must be integers")
        if exponent < 0:
            if not self.is_monomial():
                raise ValueError("negative power of a non-monomial")
            (e, c), = self.terms.items()
            return LaurentPolynomial._from_clean(
                self.rank, {tuple(exponent * x for x in e): Fraction(1) / c ** (-exponent)}
            )
        result = LaurentPolynomial.constant(self.rank, 1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _as_poly(self, other: "LaurentPolynomial | Scalar") -> "LaurentPolynomial":
        if isinstance(other, LaurentPolynomial):
            if other.rank != self.rank:
                raise ValueError("rank mismatch")
            return other
        return LaurentPolynomial.constant(self.rank, other)

    # -- support operations -------------------------------------------------

    def restrict(self, selector: Callable[[Exponent], bool] | Iterable[Sequence[int]]) -> "LaurentPolynomial":
        """Keep only the terms whose exponents pass the selector.

        The selector is either a predicate on exponent tuples or an iterable
        of exponents (treated as a set). Restricting to a face of the Newton
        polytope is the main use.
        """
        if callable(selector):
            keep = {e: c for e, c in self.terms.items() if selector(e)}
        else:
            allowed = {_exponent(e, self.rank) for e in selector}
            keep = {e: c for e, c in self.terms.items() if e in allowed}
        return LaurentPolynomial._from_clean(self.rank, keep)

    def min_exponents(self) -> Exponent:
        if not self.terms:
            raise ValueError("the zero polynomial has no support")
        return tuple(min(e[i] for e in self.terms) for i in range(self.rank))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self.to_obj())

    def to_obj(self) -> dict:
        return {
            "rank": self.rank,
            "terms": [
                {"e": list(e), "c": str(c)} for e, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_obj(cls, obj: Mapping) -> "LaurentPolynomial":
        """The polynomial of a {"rank": r, "terms": [{"e": [...], "c": c}]}
        object, as to_obj writes it. A payload of another shape raises
        ValueError."""
        try:
            terms = {}
            for t in obj["terms"]:
                e = integer_vector(t["e"])
                c = Fraction(str(t["c"]))
                terms[e] = terms.get(e, Fraction(0)) + c
            rank = obj["rank"]
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed polynomial object: {exc!r}") from None
        return cls(rank, terms)

    @classmethod
    def from_json(cls, text: str) -> "LaurentPolynomial":
        return cls.from_obj(json.loads(text))

    def __repr__(self) -> str:
        from .expr import format_expression

        if self.is_zero():
            return "LaurentPolynomial(0)"
        return f"LaurentPolynomial({format_expression(self)})"


@dataclass(frozen=True)
class MonomialShift:
    """A monomial factor chi^m, recorded by monomial_normalize so that the
    original element can be recovered as shift * normalized."""

    exponent: Exponent


def monomial_normalize(p: LaurentPolynomial) -> tuple[LaurentPolynomial, MonomialShift]:
    """Factor p = chi^m * q where m is the componentwise minimum exponent.

    The result q has nonnegative exponents attaining 0 in every coordinate,
    i.e. no monomial divides q. Coefficients are left untouched.
    """
    if p.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    mins = p.min_exponents()
    q = LaurentPolynomial._from_clean(
        p.rank,
        {tuple(x - m for x, m in zip(e, mins)): c for e, c in p.terms.items()},
    )
    return q, MonomialShift(mins)


def _polynomial_division(
    g: LaurentPolynomial, f: LaurentPolynomial
) -> LaurentPolynomial | None:
    """Single-divisor division of f by g under graded lex: the quotient, or
    None when g does not divide f. Both inputs must be genuine polynomials
    (nonnegative exponents). Fails fast: the first leading term of the
    running remainder not divisible by lt(g) settles non-divisibility,
    because later reduction steps only produce strictly smaller terms and
    can never cancel it.
    """
    lt_g, lc_g = g.leading_term()
    g_terms = list(g.terms.items())
    remainder = f.terms.copy()
    quotient: dict[Exponent, Fraction] = {}
    while remainder:
        lt = max(remainder, key=_grlex_key)
        diff = tuple(a - b for a, b in zip(lt, lt_g))
        if any(x < 0 for x in diff):
            return None
        factor = remainder[lt] / lc_g
        quotient[diff] = factor
        for e, c in g_terms:
            shifted = tuple(a + b for a, b in zip(e, diff))
            s = remainder.get(shifted, Fraction(0)) - factor * c
            if s == 0:
                remainder.pop(shifted, None)
            else:
                remainder[shifted] = s
    return LaurentPolynomial._from_clean(g.rank, quotient)


def divides(g: LaurentPolynomial, f: LaurentPolynomial) -> bool:
    """True when f = g*h for some Laurent polynomial h. The divisor comes
    first. Both are normalized away from monomial factors before the
    polynomial division, which is exact for Laurent divisibility because
    componentwise minimum exponents are additive under multiplication.
    """
    if g.rank != f.rank:
        raise ValueError("rank mismatch")
    if g.is_zero():
        raise ValueError("division by the zero polynomial")
    if f.is_zero():
        return True
    gn, _ = monomial_normalize(g)
    fn, _ = monomial_normalize(f)
    return _polynomial_division(gn, fn) is not None


# The Mersenne prime 2^61 - 1: remainders of powers are stepped over Z/P.
_PRIME = (1 << 61) - 1


def _integer_terms(p: LaurentPolynomial) -> dict[Exponent, int]:
    """The coefficients of p times the lcm of their denominators."""
    den = 1
    for c in p.terms.values():
        den = lcm(den, c.denominator)
    return {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}


def _normal_form_mod(
    work: dict[Exponent, int], lt_g: Exponent, tail: list[tuple[Exponent, int]], modulus: int
) -> dict[Exponent, int]:
    """Graded lex normal form of work modulo the monic x^lt_g - tail over
    Z/modulus. Terms are taken largest first off a heap; a term divisible by
    x^lt_g is replaced by its tail multiple, whose terms are all smaller, so
    an exponent never comes back once it has been popped. Canceled entries
    stay in work at 0 so that no exponent is pushed twice."""
    heap = [(-sum(e), tuple(map(neg, e)), e) for e in work]
    heapify(heap)
    remainder: dict[Exponent, int] = {}
    while heap:
        e = heappop(heap)[2]
        c = work.pop(e)
        if not c:
            continue
        shift = tuple(map(sub, e, lt_g))
        if min(shift, default=0) < 0:
            remainder[e] = c
            continue
        for t, d in tail:
            s = tuple(map(add, t, shift))
            if s in work:
                work[s] = (work[s] + c * d) % modulus
            else:
                work[s] = c * d % modulus
                heappush(heap, (-sum(s), tuple(map(neg, s)), s))
    return remainder


def least_dividing_power(
    g: LaurentPolynomial, f: LaurentPolynomial, k_max: int
) -> int | None:
    """The least k <= k_max with g | f^k, or None. Divisor first.

    f^k is never built. After stripping monomial factors and clearing
    denominators, the remainder r_k = NF(f * r_(k-1)) of f^k modulo g is
    stepped over Z/P with P = 2^61 - 1; a single polynomial is a Groebner
    basis of its principal ideal, so the graded lex normal form is
    canonical. When the leading coefficient of g is a unit mod P, a nonzero
    r_k proves g does not divide f^k over Q (by Gauss's lemma, divisibility
    over Q survives reduction mod P). The first zero r_k is confirmed by the
    exact divides; if that fails, or the leading coefficient vanishes mod
    P, the remaining k are decided by exact divides.
    """
    if g.rank != f.rank:
        raise ValueError("rank mismatch")
    if g.is_zero() or f.is_zero():
        raise ValueError("powers of or division by the zero polynomial")
    gn, _ = monomial_normalize(g)
    fn, _ = monomial_normalize(f)
    start = 0
    g_int = _integer_terms(gn)
    lt_g = max(g_int, key=_grlex_key)
    lc = g_int[lt_g] % _PRIME
    if lc:
        inv = pow(lc, -1, _PRIME)
        tail = [(e, -c * inv % _PRIME) for e, c in g_int.items() if e != lt_g and c % _PRIME]
        f_mod = [(e, c % _PRIME) for e, c in _integer_terms(fn).items() if c % _PRIME]
        remainder = _normal_form_mod({(0,) * g.rank: 1}, lt_g, tail, _PRIME)
        for k in range(k_max + 1):
            if k:
                product: dict[Exponent, int] = {}
                for e1, c1 in remainder.items():
                    for e2, c2 in f_mod:
                        e = tuple(map(add, e1, e2))
                        product[e] = product.get(e, 0) + c1 * c2
                for e in product:
                    product[e] %= _PRIME
                remainder = _normal_form_mod(product, lt_g, tail, _PRIME)
            if not remainder:
                if divides(gn, fn**k):
                    return k
                start = k + 1
                break
        else:
            return None
    if start > k_max:
        return None
    power = fn**start
    for k in range(start, k_max + 1):
        if divides(gn, power):
            return k
        power = power * fn
    return None


def exact_quotient(
    g: LaurentPolynomial, f: LaurentPolynomial
) -> LaurentPolynomial | None:
    """f / g when g divides f, else None. Divisor first, as in divides."""
    if g.rank != f.rank:
        raise ValueError("rank mismatch")
    if g.is_zero():
        raise ValueError("division by the zero polynomial")
    if f.is_zero():
        return LaurentPolynomial.zero(f.rank)
    gn, g_shift = monomial_normalize(g)
    fn, f_shift = monomial_normalize(f)
    q = _polynomial_division(gn, fn)
    if q is None:
        return None
    shift = LaurentPolynomial.monomial(
        tuple(a - b for a, b in zip(f_shift.exponent, g_shift.exponent))
    )
    return q * shift


def substitute_monomial(
    p: LaurentPolynomial,
    matrix: Sequence[Sequence[int]],
    scalars: Sequence[Scalar] | None = None,
) -> LaurentPolynomial:
    """Monomial substitution x_i -> scalar_i * chi^(column i of matrix).

    The matrix has one column per variable of p and one row per variable of
    the result, so a square unimodular matrix gives a ring automorphism and
    a rectangular injective one gives a face chart embedding. Scalars must
    be nonzero (they get raised to negative powers when exponents are
    negative); omitted scalars default to 1.
    """
    new_rank = len(matrix)
    cols = len(matrix[0]) if new_rank else 0
    if cols != p.rank and not (new_rank == 0 and p.rank == 0):
        if new_rank == 0:
            if p.rank != 0 and any(any(e) for e in p.terms):
                raise ValueError("cannot substitute into nonconstant directions")
        else:
            raise ValueError("substitution matrix has wrong number of columns")
    if scalars is None:
        scalars = [1] * p.rank
    scalars = [_coerce(s) for s in scalars]
    if len(scalars) != p.rank:
        raise ValueError("one scalar per variable required")
    if any(s == 0 for s in scalars):
        raise ValueError("substitution scalars must be nonzero")
    out: dict[Exponent, Fraction] = {}
    for e, c in p.terms.items():
        new_e = tuple(
            sum(matrix[r][i] * e[i] for i in range(p.rank)) for r in range(new_rank)
        )
        coeff = c
        for s, k in zip(scalars, e):
            if k:
                coeff *= s**k
        s2 = out.get(new_e, Fraction(0)) + coeff
        if s2 == 0:
            out.pop(new_e, None)
        else:
            out[new_e] = s2
    return LaurentPolynomial(new_rank, out)
