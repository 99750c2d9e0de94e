"""Command line front end.

Subcommands:
  mu             compute the Monge-Ampere polynomial of an input
  gec            decide the generalized Einstein condition
  einstein       check the Einstein equation for a given integer lambda
  family         generate a named family member and run face descent
  polytope-info  report vertices, facets, reflexivity, faces, edge ratios
  descent        face descent for a polynomial or a bare polytope

Polynomials come from -e EXPR (with aliases hexagon-q, fs:N, rem7),
inline JSON via -j, or a file via -f; exactly one source. An expression
exponent above MAX_EXPONENT in absolute value is an input error, found
before any power is expanded, and so is a power or a product whose exponent
support exceeds MAX_TERMS terms, found as the parser reaches it, and a
polynomial of more than MAX_TERMS terms from any source. --json switches
stdout to the JSON report, --out FILE always writes the JSON report to a
file. Exit codes: 0 = holds or inconclusive, 1 = fails, 2 = error (and
--strict makes inconclusive exit 2 as well).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from .expr import ExpressionError, _exponents, format_expression, parse_expression
from .families import (
    FamilySpec,
    anticanonical_polytope,
    family_witness,
    obstructing_face,
    parse_family,
)
from .gec import (
    ObstructionReport,
    _encode_indented,
    edge_ratio_test,
    einstein_check,
    face_descent,
    gec_check,
    standard_hexagon_q,
)
from .laurent import LaurentPolynomial
from .monge_ampere import mu, predicted_np_of_mu
from .polytope import LatticePolytope, _face_masks, hull, is_reflexive

REM7 = "2+2*x-x^2+2*x^3+2*x^4"

# input caps: the largest exponent, in absolute value, of an expression, and
# the most terms of an input polynomial. The largest inputs in use are
# (1+x+y+z)^6 with 84 terms and the Prod:P1^6 witness with 64.
MAX_EXPONENT = 32
MAX_TERMS = 256

_POLYTOPE_ALIASES = {
    "hexagon": [(0, -1), (1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0)],
    "trapezoid": [(-1, -1), (2, -1), (0, 1), (-1, 1)],
    "unit-square": [(0, 0), (1, 0), (0, 1), (1, 1)],
}


def _parse_alias(expr: str, rank: int | None) -> LaurentPolynomial | None:
    text = expr.strip()
    if text == "hexagon-q":
        return standard_hexagon_q()
    if text == "rem7":
        return parse_expression(REM7, rank)
    if text.startswith("fs:"):
        n = int(text[3:])
        if n < 1:
            raise ExpressionError("fs:n requires n >= 1")
        # the witness has n + 1 terms
        _check_terms(n + 1)
        witness, _ = family_witness(FamilySpec("P", n=n))
        return witness
    return None


def _check_terms(count: int) -> None:
    if count > MAX_TERMS:
        raise ValueError(f"input has {count} terms, above the cap of {MAX_TERMS}")


def _parse_capped(text: str, rank: int | None) -> LaurentPolynomial:
    """parse_expression after checking every exponent against MAX_EXPONENT,
    with every power and product bounded by MAX_TERMS before expansion."""
    for k in _exponents(text):
        if abs(k) > MAX_EXPONENT:
            raise ValueError(f"exponent {k} exceeds the cap of {MAX_EXPONENT} in absolute value")
    return parse_expression(text, rank, max_terms=MAX_TERMS)


def _load_polynomial(args: argparse.Namespace) -> LaurentPolynomial:
    """The input polynomial of -e, -j or -f, within the input caps."""
    p = _read_polynomial(args)
    _check_terms(len(p))
    return p


def _read_polynomial(args: argparse.Namespace) -> LaurentPolynomial:
    rank = getattr(args, "rank", None)
    if args.expr is not None:
        alias = _parse_alias(args.expr, rank)
        if alias is not None:
            return alias
        return _parse_capped(args.expr, rank)
    if args.json_input is not None:
        return LaurentPolynomial.from_json(args.json_input)
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read().strip()
    try:
        return LaurentPolynomial.from_json(text)
    except json.JSONDecodeError:
        return _parse_capped(text, rank)


def _load_polytope(text: str) -> LatticePolytope:
    text = text.strip()
    if text in _POLYTOPE_ALIASES:
        return hull(_POLYTOPE_ALIASES[text])
    try:
        spec = parse_family(text)
    except ValueError:
        spec = None
    if spec is not None:
        return anticanonical_polytope(spec)
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    obj = json.loads(text)
    try:
        points = [tuple(v) for v in obj["vertices"]]
    except (KeyError, TypeError):
        raise ValueError('polytope JSON must be {"vertices": [[...], ...]}') from None
    return hull(points)


def _emit(args: argparse.Namespace, text_lines: list[str], payload: dict) -> None:
    """Write the JSON report to the --out file and, with --json, to stdout,
    each copy ending with a newline and written in one call. The report is
    encoded in full before any sink is touched, so an encode error writes
    nothing: stdout stays empty and the --out file is neither created nor
    truncated. The encoder reads the payload as it is, with Fractions and
    LaurentPolynomials converted by its hook, and writes each record list
    the trace shares between faces once. Without --json, stdout gets the
    text lines. An --out file that cannot be opened raises before anything
    is printed."""
    out = getattr(args, "out", None)
    to_stdout = getattr(args, "json", False)
    if out or to_stdout:
        text = _encode_indented(payload, 2) + "\n"
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        if to_stdout:
            sys.stdout.write(text)
    if not to_stdout:
        for line in text_lines:
            print(line)


def _report_exit(args: argparse.Namespace, verdict: str) -> int:
    if verdict == "gec-holds":
        return 0
    if verdict == "gec-fails":
        return 1
    return 2 if getattr(args, "strict", False) else 0


def cmd_mu(args: argparse.Namespace) -> int:
    p = _load_polynomial(args)
    if p.is_zero():
        raise ValueError("mu of the zero polynomial is undefined")
    result = mu(p)
    lines = [
        f"mu(p) = {format_expression(result.mu)}",
        f"support rank r = {result.rank_r}",
    ]
    newton = None
    np_p = hull(p.support())
    if np_p.dim != np_p.rank:
        lines.append("Newton polytope of p is not full-dimensional; prediction skipped")
    elif p.rank > 3 and len(result.mu) > 60:
        lines.append("Newton polytope comparison skipped (support too large)")
    else:
        predicted = predicted_np_of_mu(np_p)
        computed = hull(result.mu.support())
        match = predicted.vertices == computed.vertices
        newton = {
            "predicted_vertices": list(predicted.vertices),
            "computed_vertices": list(computed.vertices),
            "match": match,
        }
        lines.append(
            "Newton polytope of mu(p): predicted and computed vertices "
            + ("agree" if match else "DISAGREE")
        )
        lines.append(f"  predicted: {list(predicted.vertices)}")
        lines.append(f"  computed:  {list(computed.vertices)}")
    payload = {
        "input": p.to_obj(),
        "mu": result.mu.to_obj(),
        "rank_r": result.rank_r,
        "newton": newton,
    }
    _emit(args, lines, payload)
    return 0


def cmd_gec(args: argparse.Namespace) -> int:
    p = _load_polynomial(args)
    report = gec_check(p)
    lines = [f"verdict: {report.verdict}"]
    if report.witness:
        kappa = report.witness.get("kappa_star")
        lines.append(
            f"mu(p) {'divides' if report.witness.get('divides') else 'does not divide'}"
            f" p^{kappa} (kappa* = {kappa})"
        )
        step = report.trace[-1]
        least = step["least_power"]
        lines.append(
            f"least dividing power: none up to kappa bound {step['kappa_bound']}"
            if least is None
            else f"least dividing power: p^{least} (kappa bound {step['kappa_bound']})"
        )
    _emit(args, lines, {"input": p.to_obj(), **report._payload()})
    return _report_exit(args, report.verdict)


def cmd_einstein(args: argparse.Namespace) -> int:
    p = _load_polynomial(args)
    try:
        lam = Fraction(args.lam) if args.lam is not None else None
    except ZeroDivisionError:
        raise ValueError(f"--lambda {args.lam}: zero denominator") from None
    result = einstein_check(p, lam)
    lines = [f"einstein condition: {'holds' if result.holds else 'fails'}"]
    if result.lam is not None:
        lines.append(f"lambda = {result.lam}, support rank r = {result.rank_r}")
    if result.holds and result.shift is not None:
        lines.append(f"c = {result.scalar}, m = {tuple(result.shift)}")
    payload = {
        "holds": result.holds,
        "lambda": result.lam,
        "rank_r": result.rank_r,
        "scalar": result.scalar,
        "shift": list(result.shift) if result.shift is not None else None,
    }
    _emit(args, lines, payload)
    return 0 if result.holds else 1


def _named_face_failure(report: ObstructionReport, face_vertices: tuple) -> dict | None:
    target = sorted(tuple(v) for v in face_vertices)
    for entry in report.trace:
        if "failures" not in entry:
            continue
        for failure in entry["failures"]:
            got = sorted(tuple(v) for v in failure["face"]["vertices"])
            if got == target:
                return failure
    return None


def cmd_family(args: argparse.Namespace) -> int:
    spec = parse_family(args.spec)
    delta = anticanonical_polytope(spec)
    reflexive = is_reflexive(delta)
    lines = [
        f"family {spec}: dimension {delta.dim}, "
        f"{len(delta.vertices)} vertices, {len(delta.facets)} facets, "
        f"reflexive: {reflexive}"
    ]
    payload: dict = {
        "spec": str(spec),
        "dimension": delta.dim,
        "vertices": len(delta.vertices),
        "facets": len(delta.facets),
        "reflexive": reflexive,
    }
    verdict = "inconclusive"
    if args.descend:
        report = face_descent(delta, d_max=args.dmax)
        verdict = report.verdict
        payload["report"] = report._payload()
        lines.append(f"descent verdict: {report.verdict}")
        if report.witness:
            face = report.witness.get("face", {})
            lines.append(
                f"witness: {report.witness['test']} on face with active facets "
                f"{tuple(face.get('active_facets', ()))}"
            )
        named = None
        try:
            named_face = obstructing_face(spec)
        except ValueError:
            named_face = None
        if named_face is not None:
            named = _named_face_failure(report, named_face.vertices)
            payload["named_face"] = {
                "vertices": list(named_face.vertices),
                "active_facets": list(named_face.active),
                "failure": named,
            }
            if named is not None:
                lines.append(
                    f"named obstructing face fails ({named['test']}), as expected"
                )
            else:
                lines.append("named obstructing face did NOT fail; check the data")
    witness = family_witness(spec)
    if witness is not None and args.check_witness:
        p, lam = witness
        res = einstein_check(p, lam)
        payload["witness"] = {
            "polynomial": p.to_obj(),
            "lambda": lam,
            "holds": res.holds,
        }
        lines.append(
            f"bundled witness with lambda = {lam}: "
            f"{'passes' if res.holds else 'FAILS'} the Einstein check"
        )
    _emit(args, lines, payload)
    if args.descend:
        return _report_exit(args, verdict)
    return 0


def cmd_polytope_info(args: argparse.Namespace) -> int:
    delta = _load_polytope(args.input)
    lines = [
        f"rank {delta.rank}, dimension {delta.dim}",
        f"{len(delta.vertices)} vertices, {len(delta.facets)} facets",
    ]
    payload = delta.to_obj()
    if delta.dim == delta.rank:
        refl = is_reflexive(delta)
        payload["reflexive"] = refl
        lines.append(f"reflexive: {refl}")
    # the faces are only counted, so their masks suffice
    face_counts = {d: len(_face_masks(delta, d)) for d in range(min(delta.dim, 3) + 1)}
    payload["face_counts"] = {str(d): c for d, c in face_counts.items()}
    lines.append(
        "faces by dimension: "
        + ", ".join(f"{d}: {c}" for d, c in sorted(face_counts.items()))
    )
    if delta.dim == 2:
        ok, records = edge_ratio_test(delta)
        payload["edge_ratios"] = records
        payload["edge_ratios_equal"] = ok
        shown = ", ".join(str(rec["ratio"]) for rec in records)
        lines.append(f"edge ratios l(E')/l(E): {shown} ({'equal' if ok else 'unequal'})")
    _emit(args, lines, payload)
    return 0


def cmd_descent(args: argparse.Namespace) -> int:
    if args.polytope is not None:
        if args.rank is not None:
            raise ValueError("--rank embeds a polynomial and does not apply to --polytope")
        delta = _load_polytope(args.polytope)
        p = None
    else:
        p = _load_polynomial(args)
        delta = hull(p.support())
    report = face_descent(delta, p, d_max=args.dmax)
    lines = [f"verdict: {report.verdict}"]
    if report.witness and "face" in report.witness:
        face = report.witness["face"]
        lines.append(
            f"witness: {report.witness['test']} on dim-{face['dim']} face "
            f"with vertices {face['vertices']}"
        )
    elif report.witness:
        lines.append(f"witness: {report.witness}")
    _emit(args, lines, report._payload())
    return _report_exit(args, report.verdict)


def _add_polynomial_inputs(sub: argparse.ArgumentParser) -> argparse._MutuallyExclusiveGroup:
    """--rank and the -e/-j/-f sources, of which argparse requires exactly
    one; returns their group, to which a subcommand may add a source."""
    sub.add_argument("--rank", type=int, default=None, help="embed into this many variables")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("-e", "--expr", help="expression, e.g. '(1+x)^3', or an alias")
    group.add_argument("-j", "--json-input", help="polynomial JSON")
    group.add_argument("-f", "--file", help="file with polynomial JSON or expression")
    return group


def _add_output_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="print the JSON report")
    sub.add_argument("--out", help="write the JSON report to a file")
    sub.add_argument(
        "--strict", action="store_true", help="exit 2 on inconclusive verdicts"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toric-gec",
        description=(
            "Exact Monge-Ampere operator and generalized Einstein condition "
            "checks for Laurent polynomials and toric Fano polytopes"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("mu", help="compute the Monge-Ampere polynomial")
    _add_polynomial_inputs(sub)
    _add_output_options(sub)
    sub.set_defaults(func=cmd_mu)

    sub = subs.add_parser("gec", help="decide the generalized Einstein condition")
    _add_polynomial_inputs(sub)
    _add_output_options(sub)
    sub.set_defaults(func=cmd_gec)

    sub = subs.add_parser("einstein", help="check the Einstein equation")
    _add_polynomial_inputs(sub)
    sub.add_argument("--lambda", dest="lam", default=None, help="Einstein constant")
    _add_output_options(sub)
    sub.set_defaults(func=cmd_einstein)

    sub = subs.add_parser("family", help="generate a family member, optionally descend")
    sub.add_argument("spec", help="family spec, e.g. V:k=2, S:m=3,k=1, NP1, P:n=2")
    sub.add_argument("--descend", action="store_true", help="run face descent")
    sub.add_argument("--dmax", type=int, default=2, help="maximum face dimension")
    sub.add_argument(
        "--check-witness",
        dest="check_witness",
        action="store_true",
        help="verify the bundled Einstein witness (control families)",
    )
    _add_output_options(sub)
    sub.set_defaults(func=cmd_family)

    sub = subs.add_parser("polytope-info", help="describe a lattice polytope")
    sub.add_argument(
        "input",
        help=(
            "alias (hexagon, trapezoid, unit-square), family spec, "
            "vertex JSON, or @file"
        ),
    )
    _add_output_options(sub)
    sub.set_defaults(func=cmd_polytope_info)

    sub = subs.add_parser("descent", help="face descent for a polynomial or polytope")
    _add_polynomial_inputs(sub).add_argument(
        "--polytope",
        help="polytope-only mode: alias, family spec, vertex JSON, or @file",
    )
    sub.add_argument("--dmax", type=int, default=2, help="maximum face dimension")
    _add_output_options(sub)
    sub.set_defaults(func=cmd_descent)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """One parser per process; parse_args fills a new Namespace on every
    call, so nothing carries over from one call of main to the next."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ExpressionError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
