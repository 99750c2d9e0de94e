"""Sparse Laurent polynomials over the rationals.

A polynomial is a finite map from integer exponent vectors (tuples of fixed
length, the rank) to nonzero Fractions. The representation is canonical,
so equality of the term dictionaries is equality in the ring. The rule is
written once, in _collect: the coefficients of equal exponents are added
and zero sums dropped. The constructor, sums, products, monomial
substitution, the JSON reader and the expression parser's sums collect
through it; every other operation maps canonical terms to canonical terms
and wraps them as they are.
Negative exponents are first-class; the polynomial subring consists of
those elements whose exponents are all nonnegative, and monomial_normalize
projects any nonzero element onto that subring by factoring out the
componentwise minimum exponent.

Divisibility is decided by single-divisor polynomial division under the
graded lexicographic order. For Laurent elements this is sound after
normalization: minimum exponents are additive under products, so a Laurent
quotient of two normalized polynomials is automatically a polynomial. One
private kernel, _divide, does every division: exponents are packed into int
codes with guard bits, so a monomial order test, a product and a
divisibility test are each one int operation, and it divides exactly over
Z, stopping at the first term that does not divide. Every division reads
its inputs in one integer form (_integer_form), taken in one pass over a
term mapping with int or Fraction coefficients: the primitive integer
part at normalized exponents, its total degree, the monomial shift and
the rational scale. The public functions form their inputs once, and
_least_power takes both forms, so mu's integer walk sums reach the search
with no polynomial built (monge_ampere._mu_factors). Primitive parts
suffice, because by Gauss's lemma a primitive integer polynomial divides
an integer polynomial over Q only if it divides it over Z: each quotient
coefficient is one divmod. least_dividing_power finds the least k with g | f^k by
building each f^k from the last by one product on the codes and dividing
it by g exactly. Before any division it evaluates both integer forms at a
few fixed integer points: g | f^k over Z forces g(a) | f(a)^k in Z, so an
integer point either refutes every k at once or bounds the least k from
below, and the divisions start at that bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from operator import add, mul, sub
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .lattice import integer_value, integer_vector

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


def _collect(
    out: dict[Exponent, Fraction], terms: Iterable[tuple[Exponent, Fraction]]
) -> dict[Exponent, Fraction]:
    """Add Fraction terms into out, a dict of canonical terms, and return it
    still canonical: the coefficients of equal exponents added and zero sums
    dropped. The one place the rule is written. c += out[e] keeps a Fraction
    on the left, where out.get(e, 0) + c would go through Fraction.__radd__."""
    for e, c in terms:
        if e in out:
            c += out[e]
        if c:
            out[e] = c
        else:
            out.pop(e, None)
    return out


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
        clean = _collect({}, ((_exponent(e, rank), _coerce(c)) for e, c in items))
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
        """The variable x_index of rank-rank polynomials; both must be exact
        ints with 0 <= index < rank, or ValueError is raised."""
        rank, index = integer_value(rank, "rank"), integer_value(index, "index")
        if not 0 <= index < rank:
            raise ValueError(f"index {index} is not in range({rank})")
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
        return LaurentPolynomial._from_clean(self.rank, _collect(self.terms.copy(), other.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._from_clean(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPolynomial | Scalar") -> "LaurentPolynomial":
        return self + (-self._as_poly(other))

    def __rsub__(self, other: Scalar) -> "LaurentPolynomial":
        return self._as_poly(other) - self

    def __mul__(self, other: "LaurentPolynomial | Scalar") -> "LaurentPolynomial":
        # a scalar goes through scale, the coercion of the constant in +
        if not isinstance(other, LaurentPolynomial):
            return self.scale(other)
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        right = other.terms.items()
        products = ((tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in self.terms.items() for e2, c2 in right)
        return LaurentPolynomial._from_clean(self.rank, _collect({}, products))

    __rmul__ = __mul__

    def scale(self, value: Scalar) -> "LaurentPolynomial":
        value = _coerce(value)
        if value == 0:
            return LaurentPolynomial.zero(self.rank)
        return LaurentPolynomial._from_clean(self.rank, {e: c * value for e, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "LaurentPolynomial":
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise TypeError("polynomial powers must be integers")
        if self.is_monomial():
            # (c chi^e)^k = c^k chi^(k e) for every sign of k, with no product
            (e, c), = self.terms.items()
            return LaurentPolynomial._from_clean(
                self.rank, {tuple(exponent * x for x in e): c**exponent}
            )
        if exponent < 0:
            raise ValueError("negative power of a non-monomial")
        if not exponent:
            return LaurentPolynomial.constant(self.rank, 1)
        # square-and-multiply from the lowest power it needs, self^(2^j)
        # for the lowest set bit j of the exponent
        base = self
        while not exponent & 1:
            base = base * base
            exponent >>= 1
        result = base
        while exponent > 1:
            base = base * base
            exponent >>= 1
            if exponent & 1:
                result = result * base
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
        object, as to_obj writes it: a coefficient string is read by
        Fraction, any other coefficient as the constructor reads it. A float
        or bool coefficient, or a payload of another shape, raises ValueError."""
        try:
            pairs = ((t["e"], t["c"]) for t in obj["terms"])
            return cls(obj["rank"], [(e, Fraction(c) if isinstance(c, str) else c) for e, c in pairs])
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed polynomial object: {exc!r}") from None

    @classmethod
    def from_json(cls, text: str) -> "LaurentPolynomial":
        """The polynomial of JSON text, as from_obj reads it. JSON numbers
        are parsed exactly: 0.1 is 1/10, not the nearest binary float."""
        return cls.from_obj(json.loads(text, parse_float=Fraction))

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


class _Codes:
    """Packed exponent codes for the divisions of one call (Monagan and
    Pearce, "Polynomial division using dynamic arrays, heaps, and packed
    exponent vectors", 2007). A nonnegative exponent e of rank r becomes one
    int of r + 1 fields of width bits, most significant first: (sum(e), e_0,
    ..., e_(r-1)). While every total degree stays at most the degree given,
    int order of codes is graded lex order, adding codes multiplies
    monomials, and the top bit of every field, its guard bit, is 0."""

    __slots__ = ("rank", "width", "guards")

    def __init__(self, rank: int, degree: int):
        width = degree.bit_length() + 1
        self.rank = rank
        self.width = width
        self.guards = sum(1 << (width * i + width - 1) for i in range(rank + 1))

    def pack(self, terms: Mapping[Exponent, int]) -> dict[int, int]:
        width = self.width
        out = {}
        for e, c in terms.items():
            code = sum(e)
            for x in e:
                code = code << width | x
            out[code] = c
        return out

    def unpack(self, terms: Mapping[int, Scalar]) -> dict[Exponent, Scalar]:
        mask = (1 << self.width) - 1
        shifts = range(self.width * (self.rank - 1), -1, -self.width)
        return {tuple(code >> s & mask for s in shifts): c for code, c in terms.items()}


def _divide(
    work: dict[int, int],
    lt: int,
    lc: int,
    tail: list[tuple[int, int]],
    codes: _Codes,
) -> dict[int, int] | None:
    """Divide work exactly over Z by the divisor lc*x^lt - (sum of the tail
    terms) on packed codes, consuming work: the quotient, or None at the
    first term that x^lt does not divide (later steps only make smaller
    terms, so it stays in the remainder) or whose coefficient lc does not
    divide (so the quotient over Q is not integral). Terms are taken
    largest first off a heap of negated codes. x^lt divides x^e exactly
    when d = e - lt is >= 0 with no guard bit set: the lowest field of e
    that is smaller than lt's borrows and sets its own guard bit, and a
    smaller degree makes d negative. A reduced term is replaced by its tail
    multiple, whose terms are all smaller, so a code never comes back once
    it has been popped; canceled entries stay in work at 0 so that no code
    is pushed twice."""
    guards = codes.guards
    heap = [-e for e in work]
    heapify(heap)
    out: dict[int, int] = {}
    while heap:
        e = -heappop(heap)
        c = work.pop(e)
        if not c:
            continue
        d = e - lt
        if d < 0 or d & guards:
            return None
        c, rest = divmod(c, lc)
        if rest:
            return None
        out[d] = c
        for t, ct in tail:
            s = t + d
            if s in work:
                work[s] += c * ct
            else:
                work[s] = c * ct
                heappush(heap, -s)
    return out


def _multiply(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """The product of two polynomials on codes; canceled terms stay at 0."""
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if e in out:
                out[e] += c1 * c2
            else:
                out[e] = c1 * c2
    return out


# (terms of q, total degree of q, shift, scale) with p = scale * chi^shift * q
IntegerForm = tuple[dict[Exponent, int], int, Exponent, Fraction]


def _integer_form(p: Mapping[Exponent, Scalar]) -> IntegerForm:
    """p = scale * chi^shift * q for the polynomial of the nonzero terms p,
    with int or Fraction coefficients, read in one pass: (the terms of q,
    the total degree of q, shift, scale). shift is the componentwise minimum
    exponent, so q has nonnegative exponents attaining 0 in every
    coordinate, as monomial_normalize gives, and q has integer coefficients
    with gcd 1 (scale > 0). By Gauss's lemma a primitive integer polynomial
    divides an integer polynomial over Q only if it divides it over Z."""
    if not p:
        raise ValueError("cannot normalize the zero polynomial")
    shift = tuple(map(min, zip(*p)))
    den = lcm(*(c.denominator for c in p.values()))
    ints = [c.numerator * (den // c.denominator) for c in p.values()]
    content = gcd(*ints)
    terms = {}
    degree = 0
    for e, c in zip(p, ints):
        e = tuple(map(sub, e, shift))
        terms[e] = c // content
        total = sum(e)
        if total > degree:
            degree = total
    return terms, degree, shift, Fraction(content, den)


def _divisor(g: dict[int, int]) -> tuple[int, int, list[tuple[int, int]]]:
    """The leading code, the leading coefficient and the negated tail of g."""
    lt = max(g)
    return lt, g[lt], [(e, -c) for e, c in g.items() if e != lt]


def _exact_division(
    g: LaurentPolynomial, f: LaurentPolynomial
) -> tuple[dict[Exponent, int] | None, Fraction]:
    """f / g as (h, scale) with f = g * scale * h, or (None, scale) when g
    does not divide f. h is the integer quotient of the integer forms of
    the inputs, from one exact division on packed codes, shifted by the
    difference of their monomial factors."""
    if g.rank != f.rank:
        raise ValueError("rank mismatch")
    if g.is_zero():
        raise ValueError("division by the zero polynomial")
    if f.is_zero():
        return {}, Fraction(1)
    g_int, g_degree, g_shift, g_scale = _integer_form(g.terms)
    f_int, f_degree, f_shift, f_scale = _integer_form(f.terms)
    codes = _Codes(g.rank, max(g_degree, f_degree))
    lt, lc, tail = _divisor(codes.pack(g_int))
    quotient = _divide(codes.pack(f_int), lt, lc, tail, codes)
    scale = f_scale / g_scale
    if quotient is None:
        return None, scale
    shift = tuple(map(sub, f_shift, g_shift))
    return {tuple(map(add, e, shift)): c for e, c in codes.unpack(quotient).items()}, scale


def divides(g: LaurentPolynomial, f: LaurentPolynomial) -> bool:
    """True when f = g*h for some Laurent polynomial h. The divisor comes
    first. Both are normalized away from monomial factors, which is exact
    for Laurent divisibility because componentwise minimum exponents are
    additive under multiplication, and their primitive integer parts are
    divided once, exactly, on packed exponent codes.
    """
    return _exact_division(g, f)[0] is not None


def exact_quotient(
    g: LaurentPolynomial, f: LaurentPolynomial
) -> LaurentPolynomial | None:
    """f / g when g divides f, else None. Divisor first, as in divides: the
    integer quotient of the primitive parts is scaled back by their
    contents and denominators."""
    quotient, scale = _exact_division(g, f)
    if quotient is None:
        return None
    return LaurentPolynomial._from_clean(f.rank, {e: scale * c for e, c in quotient.items()})


def least_dividing_power(
    g: LaurentPolynomial, f: LaurentPolynomial, k_max: int
) -> int | None:
    """The least k <= k_max with g | f^k, or None. Divisor first.

    Both are replaced by their integer forms (_integer_form: the primitive
    integer part with the monomial factor stripped). Their values at a few
    fixed integer points (_evaluation_bound) either refute every k <= k_max
    with no division or give a lower bound k_min on the least k. Then the
    exponents are packed into int codes wide enough for degree
    deg g + k_max * deg f, each f^k is built from f^(k-1) by one product on
    the codes, and each f^k with k >= k_min is divided by g exactly, once; a
    division that fails stops at the first term that does not divide.
    k_max must be an exact integer, so bools and floats raise ValueError.
    """
    k_max = integer_value(k_max, "k_max")
    if g.rank != f.rank:
        raise ValueError("rank mismatch")
    if g.is_zero() or f.is_zero():
        raise ValueError("powers of or division by the zero polynomial")
    return _least_power(_integer_form(g.terms), _integer_form(f.terms), k_max)


def _least_power(g: IntegerForm, f: IntegerForm, k_max: int) -> int | None:
    """The search of least_dividing_power on the integer forms of g and f,
    for a caller that already holds them; both have the same rank. The
    evaluation step runs first: no k below its bound can divide, so those
    powers are built but not divided."""
    g_int, g_degree = g[:2]
    f_int, f_degree, f_shift, _ = f
    rank = len(f_shift)
    k_min = _evaluation_bound(g_int, f_int, rank, k_max)
    if k_min is None:
        return None
    codes = _Codes(rank, g_degree + k_max * f_degree)
    lt, lc, tail = _divisor(codes.pack(g_int))
    f_codes = codes.pack(f_int)
    power = {0: 1}
    for k in range(k_max + 1):
        if k:
            power = _multiply(power, f_codes)
        if k >= k_min and _divide(dict(power), lt, lc, tail, codes) is not None:
            return k
    return None


@lru_cache(maxsize=None)
def _evaluation_points(rank: int) -> tuple[Exponent, ...]:
    """The fixed integer points of the evaluation step in rank rank: the
    first rank primes (2, 3, 5, 7, ...), and (-3, 4, -5, 6, ...)."""
    primes: list[int] = []
    n = 2
    while len(primes) < rank:
        if all(n % q for q in primes):
            primes.append(n)
        n += 1
    return tuple(primes), tuple((i + 3) * (-1) ** (i + 1) for i in range(rank))


def _evaluate(terms: Mapping[Exponent, int], point: Exponent) -> int:
    """The value at an integer point of a polynomial with nonnegative
    exponents and integer coefficients."""
    return sum(c * prod(map(pow, point, e)) for e, c in terms.items())


def _evaluation_bound(
    g: Mapping[Exponent, int], f: Mapping[Exponent, int], rank: int, k_max: int
) -> int | None:
    """A lower bound on the least k <= k_max with g | f^k, or None when
    there is no such k, from the values of the integer forms g and f at the
    fixed points of _evaluation_points; no division is made.

    By Gauss's lemma g | f^k over Q gives f^k = g*h with h integral, so
    g(a) | f(a)^k in Z at every integer point a. Peel m = |g(a)| by
    m //= gcd(m, f(a)) until m = 1. At each prime q a peel lowers the
    valuation of m by v_q(f(a)) or to 0, so after j peels it is
    max(0, v_q(g(a)) - j*v_q(f(a))): m = 1 exactly when g(a) | f(a)^j, and
    the number of peels is the least k_a with g(a) | f(a)^k_a. f(a) = 0
    counts as divisible by every prime (gcd(m, 0) = m), and a point with
    g(a) = 0 is not peeled and bounds nothing. A gcd of 1 while m > 1
    means no k_a exists, and a largest k_a past k_max means no k <= k_max:
    both refute every k <= k_max. Otherwise the bound is the largest k_a."""
    bound = 0
    for point in _evaluation_points(rank):
        m = abs(_evaluate(g, point))
        value = _evaluate(f, point)
        k = 0
        while m > 1:
            d = gcd(m, value)
            if d == 1:
                return None
            m //= d
            k += 1
        bound = max(bound, k)
    return bound if bound <= k_max else None


def substitute_monomial(
    p: LaurentPolynomial,
    matrix: Sequence[Sequence[int]],
    scalars: Sequence[Scalar] | None = None,
) -> LaurentPolynomial:
    """Monomial substitution x_i -> scalar_i * chi^(column i of matrix).

    The matrix has one column per variable of p and one row per variable of
    the result, so a square unimodular matrix gives a ring automorphism and
    a rectangular injective one gives a face chart embedding; a matrix with
    no rows evaluates p at the scalars. Each row must hold exactly p.rank
    exact integers, or ValueError is raised. Scalars must be nonzero (they
    get raised to negative powers when exponents are negative); omitted
    scalars default to 1.
    """
    rows = [integer_vector(row) for row in matrix]
    if any(len(row) != p.rank for row in rows):
        raise ValueError(f"every row of the substitution matrix needs {p.rank} entries")
    if scalars is None:
        scalars = [1] * p.rank
    scalars = [_coerce(s) for s in scalars]
    if len(scalars) != p.rank:
        raise ValueError("one scalar per variable required")
    if any(s == 0 for s in scalars):
        raise ValueError("substitution scalars must be nonzero")
    images = (
        (tuple(sum(map(mul, row, e)) for row in rows), c * prod(map(pow, scalars, e)))
        for e, c in p.terms.items()
    )
    return LaurentPolynomial._from_clean(len(rows), _collect({}, images))
