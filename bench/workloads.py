"""The three benchmark workloads: seeded item lists with their checks.

An item is one call into the public API of toric_gec, timed from call to
verdict, plus a check that compares the output against an independent
answer from ``oracle`` or from the acceptance criteria of the paper. Checks
run outside the timed region. Library functions are always looked up on
the module at call time (``tg.mu``, never a name imported from it), so the
traced run sees every call through the wrappers it installs.

Item lists are stratified rather than sampled: the seed draws coefficients,
facets and the order of the items, while the mix of input shapes (support,
exponent pattern, ladder rung) is fixed, so that the amount of work per
pass does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import oracle
import toric_gec as tg
from toric_gec import cli as tg_cli

HEXAGON = [(0, -1), (1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, 0)]
TRAPEZOID = [
    (-1, -1), (0, -1), (1, -1), (2, -1),
    (-1, 0), (0, 0), (1, 0),
    (-1, 1), (0, 1),
]
FIGURE2_TRAPEZOID = {(-1, -1), (2, -1), (0, 1), (-1, 1)}
MIRRORED_HEXAGON = {(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)}


@dataclass
class Item:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


@dataclass
class CliOutput:
    """Exit code and JSON report of one in-process CLI invocation."""

    code: int
    payload: dict
    json_bytes: int


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.choice([1, 1, 1, 2, 3]))


def _cli_item(label: str, argv: list[str], out_dir: str, check) -> Item:
    path = os.path.join(out_dir, label.replace(" ", "_").replace(":", "-") + ".json")

    def call() -> CliOutput:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = tg_cli.main(argv + ["--json", "--out", path])
        with open(path, "rb") as fh:
            raw = fh.read()
        return CliOutput(code, json.loads(raw), len(raw))

    return Item("cli " + label, call, check)


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


# -- mu-expand -----------------------------------------------------------


def _check_mu_rank2(p_terms):
    def check(out) -> str | None:
        if out.rank_r != 2:
            return f"rank {out.rank_r}, expected 2"
        lhs = oracle.mul(p_terms, dict(out.mu.terms))
        return _expect(lhs == oracle.hessian_determinant(p_terms), "Hessian identity fails")

    return check


def _check_adjunction(p_terms, u):
    def check(out) -> str | None:
        lhs, rhs, equal = out
        if not equal or lhs != rhs:
            return "adjunction sides differ"
        # init_u(p) * init_u(mu(p)) = init_u(det N): initial forms multiply
        got = oracle.mul(oracle.initial_part(p_terms, u), dict(lhs.terms))
        want = oracle.initial_part(oracle.hessian_determinant(p_terms), u)
        return _expect(got == want, "initial part disagrees with the Hessian oracle")

    return check


def _check_mu_equals(expected_fn, rank_r: int):
    cache: dict = {}

    def check(out) -> str | None:
        if "mu" not in cache:
            cache["mu"] = expected_fn()
        if out.rank_r != rank_r:
            return f"rank {out.rank_r}, expected {rank_r}"
        return _expect(dict(out.mu.terms) == cache["mu"], "mu differs from the closed form")

    return check


def _check_cli_mu(expected: dict):
    def check(out: CliOutput) -> str | None:
        if out.code != 0:
            return f"exit code {out.code}"
        if oracle.terms_from_json(out.payload["mu"]) != expected:
            return "mu differs from the known value"
        newton = out.payload["newton"]
        return _expect(newton is None or newton["match"], "Newton polytope mismatch")

    return check


def mu_expand(seed: int, out_dir: str) -> list[Item]:
    rng = random.Random(seed)
    items: list[Item] = []
    # 2-D: 100 random polynomials on each reflexive support; half go
    # through facet adjunction, cycling over the facets.
    for name, support in (("hexagon", HEXAGON), ("trapezoid", TRAPEZOID)):
        normals = [u for u, _ in tg.hull(support).facets]
        rng.shuffle(normals)
        for i in range(100):
            p = tg.LaurentPolynomial(2, {e: _coefficient(rng) for e in support})
            terms = dict(p.terms)
            if i % 2 == 0:
                items.append(
                    Item(f"mu {name}", lambda p=p: tg.mu(p), _check_mu_rank2(terms))
                )
            else:
                u = normals[(i // 2) % len(normals)]
                items.append(
                    Item(
                        f"adjunction {name}",
                        lambda p=p, u=u: tg.check_initial_factorization(p, u),
                        _check_adjunction(terms, u),
                    )
                )
    # rank 3: c * prod (x_i + a_i)^(e_i), five of each exponent pattern
    x = [tg.LaurentPolynomial.variable(3, i) for i in range(3)]
    for exps in product((1, 2), repeat=3):
        for _ in range(5):
            c = _coefficient(rng)
            factors = [(_coefficient(rng), e) for e in exps]
            p = tg.LaurentPolynomial.constant(3, c)
            for xi, (a, e) in zip(x, factors):
                p = p * (xi + a) ** e
            items.append(
                Item(
                    f"mu product {exps}",
                    lambda p=p: tg.mu(p),
                    _check_mu_equals(lambda c=c, f=factors: oracle.product_mu(c, f), 3),
                )
            )
    # fixed ladder of dilated simplices and the 4-cube
    ladder = [(f"(1+x+y)^{k}", 2, k) for k in range(2, 7)]
    ladder += [(f"(1+x+y+z)^{k}", 3, k) for k in (2, 3)]
    for text, rank, k in ladder:
        p = tg.parse_expression(text)
        items.append(
            Item(
                f"mu {text}",
                lambda p=p: tg.mu(p),
                _check_mu_equals(lambda r=rank, k=k: oracle.simplex_power_mu(r, k), rank),
            )
        )
    cube = tg.parse_expression("(1+x1)*(1+x2)*(1+x3)*(1+x4)")
    items.append(
        Item(
            "mu 4-cube",
            lambda: tg.mu(cube),
            _check_mu_equals(lambda: oracle.product_mu(1, [(1, 1)] * 4), 4),
        )
    )
    items.append(
        _cli_item(
            "mu (1+x+y)^3",
            ["mu", "-e", "(1+x+y)^3"],
            out_dir,
            _check_cli_mu(oracle.simplex_power_mu(2, 3)),
        )
    )
    items.append(
        _cli_item(
            "mu hexagon-q",
            ["mu", "-e", "hexagon-q"],
            out_dir,
            _check_cli_mu({e: Fraction(c) for e, c in oracle.MU_HEXAGON_Q.items()}),
        )
    )
    items.append(
        _cli_item(
            "mu fs:3", ["mu", "-e", "fs:3"], out_dir, _check_cli_mu(oracle.monomial((1, 1, 1)))
        )
    )
    rng.shuffle(items)
    return items


# -- family-descent --------------------------------------------------------

# (spec, vertices, facets, test on the named face, ratio law)
# The ratio law is (m, k): l(E')/l(E) takes the values (m+1)/(m+k+1) and 1
# on the S and X trapezoids, (m+1)/m and 2 on the W trapezoids (k None).
OBSTRUCTED = [
    ("V:k=1", 6, 6, "hexagon", None),
    ("V:k=2", 30, 10, "hexagon", None),
    ("V:k=3", 140, 14, "hexagon", None),
    ("X:m=1,k=0", 24, 10, "hexagon", None),
    ("X:m=1,k=1", 24, 10, "hexagon", None),
    ("X:m=2,k=1", 54, 12, "hexagon", None),
    ("W:m=1", 6, 6, "hexagon", None),
    ("S:m=1,k=1", 8, 6, "edge-ratio", (1, 1)),
    ("S:m=2,k=1", 18, 8, "edge-ratio", (2, 1)),
    ("S:m=2,k=2", 18, 8, "edge-ratio", (2, 2)),
    ("S:m=3,k=2", 32, 10, "edge-ratio", (3, 2)),
    ("W:m=2", 24, 9, "edge-ratio", (2, None)),
    ("W:m=3", 80, 12, "edge-ratio", (3, None)),
    ("NP1", 64, 12, "edge-ratio", None),
    ("NP2", 192, 16, "hexagon", None),
]
# (spec, vertices, facets): the simplex P:n has n+1 of each, the cube
# Prod:P1^k has 2^k vertices and 2k facets
CONTROLS = [
    ("P:n=1", 2, 2),
    ("P:n=2", 3, 3),
    ("P:n=3", 4, 4),
    ("Prod:P1^1", 2, 2),
    ("Prod:P1^2", 4, 4),
    ("Prod:P1^3", 8, 6),
    ("Prod:P1^4", 16, 8),
]

# NP1 and NP2 obstructing faces in ambient coordinates: base point plus
# the chart polygon along two coordinate axes.
NP1_FACE = {
    (a, -1, -1, -1, -1, -1, b) for a, b in FIGURE2_TRAPEZOID
}
NP2_FACE = {(-1,) * 6 + (a, b) for a, b in MIRRORED_HEXAGON}


def _failures(trace: list) -> list:
    for entry in trace:
        if "failures" in entry:
            return entry["failures"]
    return []


def _failure_on(trace: list, vertices) -> dict | None:
    target = {tuple(v) for v in vertices}
    for failure in _failures(trace):
        if {tuple(v) for v in failure["face"]["vertices"]} == target:
            return failure
    return None


def _ratio_law_error(edges: list, law) -> str | None:
    ratios = {Fraction(str(rec["ratio"])) for rec in edges if rec["ratio"] is not None}
    if len(ratios) < 2:
        return "edge ratios are equal"
    if law is None:
        return None
    m, k = law
    closure = ratios | {1 / r for r in ratios}
    wanted = {Fraction(m + 1, m + k + 1), Fraction(1)} if k is not None else {
        Fraction(m + 1, m),
        Fraction(2),
    }
    return _expect(wanted <= closure, f"ratio set {sorted(ratios)} misses {sorted(wanted)}")


def _check_obstructed(spec: str, nverts: int, nfacets: int, test: str, law):
    def check(out) -> str | None:
        delta, report, face = out
        if (len(delta.vertices), len(delta.facets)) != (nverts, nfacets):
            return f"{len(delta.vertices)} vertices, {len(delta.facets)} facets"
        if report.verdict != "gec-fails":
            return f"verdict {report.verdict}"
        if face.dim != 2:
            return f"named face has dimension {face.dim}"
        named = _failure_on(report.trace, face.vertices)
        if named is None:
            return "named obstructing face does not fail"
        if named["test"] != test:
            return f"named face fails {named['test']}, expected {test}"
        if spec == "NP1" and set(face.vertices) != NP1_FACE:
            return "NP1 face is not the figure-2 trapezoid"
        if spec == "NP2" and set(face.vertices) != NP2_FACE:
            return "NP2 face is not the mirrored hexagon"
        if test == "edge-ratio":
            return _ratio_law_error(named["data"]["edges"], law)
        return None

    return check


def _check_control(nverts: int, nfacets: int):
    def check(out) -> str | None:
        delta, report = out
        if (len(delta.vertices), len(delta.facets)) != (nverts, nfacets):
            return f"{len(delta.vertices)} vertices, {len(delta.facets)} facets"
        if report.verdict != "inconclusive" or _failures(report.trace):
            return f"control verdict {report.verdict}"
        return None

    return check


def _check_cli_np1(out: CliOutput) -> str | None:
    if out.code != 1 or out.payload["verdict"] != "gec-fails":
        return f"exit {out.code}, verdict {out.payload['verdict']}"
    named = _failure_on(out.payload["trace"], NP1_FACE)
    return _expect(named is not None and named["test"] == "edge-ratio", "NP1 face not named")


def _check_cli_family_s21(out: CliOutput) -> str | None:
    if out.code != 1 or out.payload["report"]["verdict"] != "gec-fails":
        return f"exit {out.code}"
    failure = out.payload["named_face"]["failure"]
    if failure is None or failure["test"] != "edge-ratio":
        return "named face does not fail the edge ratio test"
    return _ratio_law_error(failure["data"]["edges"], (2, 1))


def _check_cli_family_p3(out: CliOutput) -> str | None:
    payload = out.payload
    ok = (
        out.code == 0
        and payload["reflexive"]
        and payload["report"]["verdict"] == "inconclusive"
        and payload["witness"]["holds"]
    )
    return _expect(ok, f"exit {out.code}, payload {str(payload)[:200]}")


def family_descent(seed: int, out_dir: str) -> list[Item]:
    rng = random.Random(seed)
    items: list[Item] = []
    for spec, nverts, nfacets, test, law in OBSTRUCTED:

        def call(spec=spec):
            family = tg.parse_family(spec)
            delta = tg.anticanonical_polytope(family)
            report = tg.face_descent(delta)
            return delta, report, tg.obstructing_face(family)

        items.append(Item(f"descent {spec}", call, _check_obstructed(spec, nverts, nfacets, test, law)))
    for spec, nverts, nfacets in CONTROLS:

        def call(spec=spec):
            delta = tg.anticanonical_polytope(tg.parse_family(spec))
            return delta, tg.face_descent(delta)

        items.append(Item(f"descent {spec}", call, _check_control(nverts, nfacets)))
    items.append(
        _cli_item("descent NP1", ["descent", "--polytope", "NP1"], out_dir, _check_cli_np1)
    )
    items.append(
        _cli_item(
            "family S:m=2,k=1",
            ["family", "S:m=2,k=1", "--descend"],
            out_dir,
            _check_cli_family_s21,
        )
    )
    items.append(
        _cli_item(
            "family P:n=3",
            ["family", "P:n=3", "--descend", "--check-witness"],
            out_dir,
            _check_cli_family_p3,
        )
    )
    rng.shuffle(items)
    return items


# -- gec-decide ------------------------------------------------------------


def _check_segment(out) -> str | None:
    (is_gec, _), report = out
    return _expect(is_gec == (report.verdict == "gec-holds"), "classify_1d and gec_check disagree")


def _check_fails_kappa6(out) -> str | None:
    # hexagon and trapezoid supports never satisfy GEC; with positive
    # coefficients NP(mu) = 2 NP(p), whose normalized total degree is 6
    ok = out.verdict == "gec-fails" and out.witness["kappa_star"] == 6
    return _expect(ok and out.witness["divides"] is False, f"{out.verdict} {out.witness}")


def _check_hexagon_obstruction(reduces: bool):
    allowed = {"hexagon-reduction"} if reduces else {"hexagon-overlap", "hexagon-reduction"}

    def check(out) -> str | None:
        ok = out.verdict == "gec-fails" and out.witness["test"] in allowed
        return _expect(ok, f"{out.verdict} {out.witness and out.witness.get('test')}")

    return check


def _check_polynomial_descent(face_test: str):
    def check(out) -> str | None:
        if out.verdict != "gec-fails":
            return f"verdict {out.verdict}"
        tests = {(f["face"]["dim"], f["test"]) for f in _failures(out.trace)}
        return _expect((2, face_test) in tests, f"no {face_test} failure on the polygon: {tests}")

    return check


def _check_gec_holds(expected_mu, rank_r: int):
    cache: dict = {}

    def check(out) -> str | None:
        if "kappa" not in cache:
            cache["kappa"] = oracle.normalized_total_degree(expected_mu())
        want = {"test": "divisibility", "kappa_star": cache["kappa"], "divides": True, "rank_r": rank_r}
        return _expect(out.verdict == "gec-holds" and out.witness == want, f"{out.verdict} {out.witness}")

    return check


def _check_einstein(rank: int):
    def check(out) -> str | None:
        ok = out.holds and out.scalar == 1 and tuple(out.shift) == (1,) * rank
        return _expect(ok, f"holds={out.holds} c={out.scalar} m={out.shift}")

    return check


def _check_cli_gec(code: int, verdict: str, kappa: int | None):
    def check(out: CliOutput) -> str | None:
        ok = out.code == code and out.payload["verdict"] == verdict
        if kappa is not None:
            ok = ok and out.payload["witness"]["kappa_star"] == kappa
        return _expect(ok, f"exit {out.code}, verdict {out.payload['verdict']}")

    return check


def _check_cli_einstein(out: CliOutput) -> str | None:
    payload = out.payload
    ok = out.code == 0 and payload["holds"] and payload["scalar"] == "1"
    return _expect(ok and payload["shift"] == [1, 1, 1], f"exit {out.code}, {payload}")


def _hexagon_polynomial(rng: random.Random, reduces: bool) -> tg.LaurentPolynomial:
    """A hexagon polynomial at a random translate. With reduces=True it is
    a torus rescaling of the reference polynomial q, so the overlap
    equations all hold and the obstruction goes through the reduction."""
    t = (rng.randint(-2, 2), rng.randint(-2, 2))
    if reduces:
        s, lam, nu = _coefficient(rng), _coefficient(rng), _coefficient(rng)
        terms = {
            (v[0] + t[0], v[1] + t[1]): s * lam ** v[0] * nu ** v[1] * (2 if v == (0, 0) else 1)
            for v in HEXAGON
        }
    else:
        terms = {(v[0] + t[0], v[1] + t[1]): _coefficient(rng) for v in HEXAGON}
    return tg.LaurentPolynomial(2, terms)


def gec_decide(seed: int, out_dir: str) -> list[Item]:
    rng = random.Random(seed)
    items: list[Item] = []
    # segments: every interval polynomial of degree <= 3 with coefficients
    # in 1..5, then seeded quartics
    segments = []
    for d in (1, 2, 3):
        for coeffs in product(range(1, 6), repeat=d + 1):
            segments.append(coeffs)
    segments += [tuple(rng.randint(1, 5) for _ in range(5)) for _ in range(125)]
    for coeffs in segments:
        p = tg.LaurentPolynomial(1, {(i,): c for i, c in enumerate(coeffs)})
        items.append(
            Item("segment", lambda p=p: (tg.classify_1d(p), tg.gec_check(p)), _check_segment)
        )
    # polygons: hexagons (a third of them rescalings of q) and trapezoids
    for i in range(12):
        reduces = i % 3 == 0
        p = _hexagon_polynomial(rng, reduces)
        items.append(Item("gec hexagon", lambda p=p: tg.gec_check(p), _check_fails_kappa6))
        items.append(
            Item(
                "hexagon obstruction",
                lambda p=p: tg.hexagon_obstruction(p),
                _check_hexagon_obstruction(reduces),
            )
        )
        items.append(
            Item(
                "poly descent hexagon",
                lambda p=p: tg.face_descent(tg.hull(p.support()), p),
                _check_polynomial_descent("hexagon"),
            )
        )
    for _ in range(12):
        p = tg.LaurentPolynomial(2, {e: _coefficient(rng) for e in TRAPEZOID})
        items.append(Item("gec trapezoid", lambda p=p: tg.gec_check(p), _check_fails_kappa6))
        items.append(
            Item(
                "poly descent trapezoid",
                lambda p=p: tg.face_descent(tg.hull(p.support()), p),
                _check_polynomial_descent("edge-ratio"),
            )
        )
    # gec-holds ladder: kappa* grows along it, and p**kappa* with the
    # divisibility test dominates the top rungs
    ladder = [(f"(1+x+y)^{k}", ("simplex", 2, k)) for k in (2, 3, 4)]
    ladder += [
        (f"(1+x)^{a}*(1+y)^{b}", ("product", a, b))
        for a, b in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 2))
    ]
    ladder.append(("(1+x+y+z)^2", ("simplex", 3, 2)))
    small = {"(1+x+y)^2", "(1+x+y)^3", "(1+x)^1*(1+y)^1", "(1+x)^2*(1+y)^1",
             "(1+x)^2*(1+y)^2", "(1+x+y+z)^2"}
    for text, (kind, u, v) in ladder:
        p = tg.parse_expression(text)
        if kind == "simplex":
            expected_mu = lambda u=u, v=v: oracle.simplex_power_mu(u, v)
            rank_r, min_kappa = u, oracle.simplex_power_min_kappa(u, v)
        else:
            expected_mu = lambda u=u, v=v: oracle.product_mu(1, [(1, u), (1, v)])
            rank_r, min_kappa = 2, oracle.product_min_kappa([u, v])
        items.append(
            Item(f"gec {text}", lambda p=p: tg.gec_check(p), _check_gec_holds(expected_mu, rank_r))
        )
        if text in small:
            items.append(
                Item(
                    f"minimal_kappa {text}",
                    lambda p=p: tg.minimal_kappa(p),
                    lambda out, k=min_kappa: _expect(out == k, f"minimal kappa {out}, expected {k}"),
                )
            )
    for spec in ("P:n=1", "P:n=2", "P:n=3", "Prod:P1^1", "Prod:P1^2", "Prod:P1^3", "Prod:P1^4"):
        p, lam = tg.family_witness(tg.parse_family(spec))
        items.append(
            Item(f"einstein {spec}", lambda p=p, lam=lam: tg.einstein_check(p, lam), _check_einstein(p.rank))
        )
    items.append(
        _cli_item(
            "gec (1+x)^2*(1+y)",
            ["gec", "-e", "(1+x)^2*(1+y)"],
            out_dir,
            _check_cli_gec(0, "gec-holds", 5),
        )
    )
    items.append(
        _cli_item("gec hexagon-q", ["gec", "-e", "hexagon-q"], out_dir, _check_cli_gec(1, "gec-fails", 6))
    )
    items.append(
        _cli_item(
            "einstein fs:3", ["einstein", "-e", "fs:3", "--lambda", "4"], out_dir, _check_cli_einstein
        )
    )
    rng.shuffle(items)
    return items


WORKLOADS = {
    "mu-expand": mu_expand,
    "family-descent": family_descent,
    "gec-decide": gec_decide,
}
