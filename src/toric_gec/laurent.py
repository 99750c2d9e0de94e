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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Exponent = tuple[int, ...]
Scalar = int | Fraction

__all__ = [
    "LaurentPolynomial",
    "MonomialShift",
    "monomial_normalize",
    "divides",
    "exact_quotient",
    "substitute_monomial",
]


def _coerce(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (float, bool)):
        raise ValueError(f"coefficient {value!r} is not an exact rational")
    return Fraction(value)


def _exponent(e: Iterable[int]) -> Exponent:
    try:
        return tuple(map(index, e))
    except TypeError:
        raise ValueError(f"exponent {e!r} is not a vector of integers") from None


def _grlex_key(e: Exponent) -> tuple[int, Exponent]:
    return (sum(e), e)


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial. terms is a read-only view of the
    exponent-to-coefficient map."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[Exponent, Scalar] | Iterable[tuple[Exponent, Scalar]] = ()):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Exponent, Fraction] = {}
        for e, c in items:
            e = _exponent(e)
            if len(e) != rank:
                raise ValueError(f"exponent {e} does not have rank {rank}")
            c = _coerce(c)
            if c == 0:
                continue
            clean[e] = clean.get(e, Fraction(0)) + c
            if clean[e] == 0:
                del clean[e]
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", MappingProxyType(clean))

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
        e = _exponent(exponent)
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

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * self.rank}

    def support(self) -> list[Exponent]:
        return sorted(self.terms)

    def coefficient(self, exponent: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exponent), Fraction(0))

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
        return LaurentPolynomial(self.rank, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(self.rank, {e: -c for e, c in self.terms.items()})

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
        return LaurentPolynomial(self.rank, out)

    __rmul__ = __mul__

    def scale(self, value: Scalar) -> "LaurentPolynomial":
        value = _coerce(value)
        if value == 0:
            return LaurentPolynomial.zero(self.rank)
        return LaurentPolynomial(self.rank, {e: c * value for e, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "LaurentPolynomial":
        if not isinstance(exponent, int):
            raise TypeError("polynomial powers must be integers")
        if exponent < 0:
            if not self.is_monomial():
                raise ValueError("negative power of a non-monomial")
            (e, c), = self.terms.items()
            return LaurentPolynomial(
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
            allowed = {tuple(int(x) for x in e) for e in selector}
            keep = {e: c for e, c in self.terms.items() if e in allowed}
        return LaurentPolynomial(self.rank, keep)

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
        rank = int(obj["rank"])
        terms = {}
        for t in obj["terms"]:
            e = _exponent(t["e"])
            c = Fraction(str(t["c"]))
            terms[e] = terms.get(e, Fraction(0)) + c
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

    def apply(self, p: LaurentPolynomial) -> LaurentPolynomial:
        return p * LaurentPolynomial.monomial(self.exponent)


def monomial_normalize(p: LaurentPolynomial) -> tuple[LaurentPolynomial, MonomialShift]:
    """Factor p = chi^m * q where m is the componentwise minimum exponent.

    The result q has nonnegative exponents attaining 0 in every coordinate,
    i.e. no monomial divides q. Coefficients are left untouched.
    """
    if p.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    mins = p.min_exponents()
    q = LaurentPolynomial(
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
    return LaurentPolynomial(g.rank, quotient)


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
