"""Command line interface: argument handling, output formats, exit codes."""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys

import pytest

from toric_gec import (
    LaurentPolynomial,
    anticanonical_polytope,
    face_descent,
    mu,
    parse_expression,
    parse_family,
    standard_hexagon_q,
)
from toric_gec import cli as cli_module
from toric_gec import gec
from toric_gec.cli import MAX_EXPONENT, MAX_TERMS, REM7, _emit, main
from helpers import assert_same_text


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mu_alias_hexagon_q(capsys):
    code, out, err = run(capsys, ["mu", "-e", "hexagon-q"])
    assert code == 0
    assert "mu(p) =" in out
    assert "agree" in out
    assert err == ""


def test_mu_json_payload_round_trips(capsys):
    code, out, _ = run(capsys, ["mu", "-e", "rem7", "--json"])
    assert code == 0
    payload = json.loads(out)
    expected = mu(parse_expression(REM7)).mu
    assert LaurentPolynomial.from_obj(payload["mu"]) == expected
    assert payload["rank_r"] == 1
    assert payload["newton"]["match"] is True


def test_mu_respects_rank_override(capsys):
    code, out, _ = run(capsys, ["mu", "-e", "1+x", "--rank", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert LaurentPolynomial.from_obj(payload["mu"]).rank == 2
    assert payload["rank_r"] == 1


def test_gec_exit_codes(capsys):
    code, out, _ = run(capsys, ["gec", "-e", "(1+x)*(1+y)"])
    assert code == 0 and "verdict: gec-holds" in out
    code, out, _ = run(capsys, ["gec", "-e", "hexagon-q"])
    assert code == 1 and "verdict: gec-fails" in out
    assert "kappa* = 6" in out


def test_gec_prints_least_dividing_power(capsys):
    code, out, _ = run(capsys, ["gec", "-e", "(1+x)^2*(1+y)"])
    assert code == 0
    assert "kappa* = 5" in out
    assert "least dividing power: p^2 (kappa bound 4)" in out
    code, out, _ = run(capsys, ["gec", "-e", "hexagon-q"])
    assert code == 1
    assert "least dividing power: none up to kappa bound 4" in out


def test_gec_error_exit(capsys):
    code, out, err = run(capsys, ["gec", "-e", "1+x^2"])
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, ["gec", "-e", "1+"])
    assert code == 2
    assert err.startswith("error:")


def test_einstein_witness_output(capsys):
    code, out, _ = run(capsys, ["einstein", "-e", "fs:3", "--lambda", "4"])
    assert code == 0
    assert "einstein condition: holds" in out
    assert "lambda = 4, support rank r = 3" in out
    assert "c = 1, m = (1, 1, 1)" in out


def test_einstein_wrong_lambda(capsys):
    code, out, _ = run(capsys, ["einstein", "-e", "fs:2", "--lambda", "2"])
    assert code == 1
    assert "einstein condition: fails" in out


def test_einstein_without_lambda(capsys):
    code, out, _ = run(capsys, ["einstein", "-e", "x^-1*(x+1/2)^2"])
    assert code == 0
    assert "einstein condition: holds" in out


def test_family_descend_names_the_face(capsys):
    code, out, _ = run(capsys, ["family", "V:k=2", "--descend"])
    assert code == 1
    assert "descent verdict: gec-fails" in out
    assert "named obstructing face fails (hexagon), as expected" in out


def test_family_control_with_witness(capsys):
    code, out, _ = run(capsys, ["family", "P:n=2", "--descend", "--check-witness"])
    assert code == 0
    assert "descent verdict: inconclusive" in out
    assert "passes the Einstein check" in out
    code, _, _ = run(capsys, ["family", "P:n=2", "--descend", "--strict"])
    assert code == 2


def test_family_without_descend_reports_shape(capsys):
    code, out, _ = run(capsys, ["family", "W:m=2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 4
    assert payload["facets"] == 9
    assert payload["reflexive"] is True
    assert "report" not in payload


def test_family_bad_spec(capsys):
    code, _, err = run(capsys, ["family", "V:k=0"])
    assert code == 2
    assert "error:" in err


def test_polytope_info_trapezoid(capsys):
    code, out, _ = run(capsys, ["polytope-info", "trapezoid"])
    assert code == 0
    assert "4 vertices, 4 facets" in out
    assert "unequal" in out


def test_polytope_info_json_vertices(capsys):
    spec = json.dumps({"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]})
    code, out, _ = run(capsys, ["polytope-info", spec, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["face_counts"] == {"0": 4, "1": 4, "2": 1}
    assert payload["edge_ratios_equal"] is True


def test_polytope_info_file_input(tmp_path, capsys):
    target = tmp_path / "poly.json"
    target.write_text(json.dumps({"vertices": [[0], [3]]}), encoding="utf-8")
    code, out, _ = run(capsys, ["polytope-info", f"@{target}"])
    assert code == 0
    assert "rank 1, dimension 1" in out


def test_descent_polytope_mode(capsys):
    code, out, _ = run(capsys, ["descent", "--polytope", "trapezoid"])
    assert code == 1
    assert "verdict: gec-fails" in out
    assert "edge-ratio" in out


def test_descent_polynomial_mode(capsys):
    code, out, _ = run(
        capsys, ["descent", "-e", "(1+x)*(1+y)*(1+z)", "--dmax", "3"]
    )
    assert code == 0
    assert "verdict: gec-holds" in out


def test_descent_strict_inconclusive(capsys):
    code, out, _ = run(capsys, ["descent", "--polytope", "unit-square", "--strict"])
    assert code == 2
    assert "verdict: inconclusive" in out


def test_descent_requires_exactly_one_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["descent", "-e", "1+x", "--polytope", "hexagon"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["descent"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "polytope, rank",
    [("hexagon", "7"), ("hexagon", "2"), ("V:k=2", "4"), ('{"vertices": [[0], [3]]}', "1")],
)
def test_descent_rejects_rank_with_a_polytope(capsys, polytope, rank):
    # --rank embeds polynomial input; a polytope source has nothing to embed
    code, out, err = run(capsys, ["descent", "--polytope", polytope, "--rank", rank])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_file_polynomial_inputs(tmp_path, capsys):
    expr_file = tmp_path / "p.txt"
    expr_file.write_text("(1+x)^2\n", encoding="utf-8")
    code, out, _ = run(capsys, ["gec", "-f", str(expr_file)])
    assert code == 0
    json_file = tmp_path / "p.json"
    json_file.write_text(standard_hexagon_q().to_json(), encoding="utf-8")
    code, out, _ = run(capsys, ["gec", "-f", str(json_file)])
    assert code == 1


def test_json_coefficients_are_read_exactly(tmp_path, capsys):
    # a JSON number is the decimal it spells, through -j and -f alike; a
    # binary float reads this one as 1/10
    text = '{"rank": 1, "terms": [{"e": [0], "c": 0.10000000000000000001}, {"e": [1], "c": 1}]}'
    target = tmp_path / "p.json"
    target.write_text(text, encoding="utf-8")
    for source in (["-j", text], ["-f", str(target)]):
        code, out, _ = run(capsys, ["gec", *source, "--json"])
        assert code == 0
        (constant, _) = json.loads(out)["input"]["terms"]
        assert constant == {"e": [0], "c": "10000000000000000001/100000000000000000000"}


@pytest.mark.parametrize(
    "argv",
    [
        ["polytope-info", '{"x": 1}'],
        ["polytope-info", "[1,2]"],
        ["polytope-info", '{"vertices": 5}'],
        ["gec", "-j", '{"x": 1}'],
        ["gec", "-j", '{"rank": 2, "terms": 5}'],
        ["gec", "-j", '{"rank": 2, "terms": [{"e": [1,0]}]}'],
        ["gec", "-j", '{"rank": 2, "terms": [{"e": [1,0], "c": "1/0"}]}'],
        # JSON in a file is read as JSON, never as an expression
        ["gec", "-f", '{"rank": 2, "terms": [{"e": [1,0], "c": "1/0"}]}'],
    ],
)
def test_malformed_json_input_is_an_input_error(tmp_path, capsys, argv):
    if argv[1] == "-f":
        target = tmp_path / "p.json"
        target.write_text(argv[2], encoding="utf-8")
        argv = argv[:2] + [str(target)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["mu", "-e", "1/0"],
        ["gec", "-e", "1+2/0*x"],
        ["einstein", "-e", "1+x", "--lambda", "1/0"],
    ],
)
def test_zero_denominator_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_out_file_always_json(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, ["gec", "-e", "hexagon-q", "--out", str(target)]
    )
    assert code == 1
    assert "verdict: gec-fails" in out
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["verdict"] == "gec-fails"
    assert payload["witness"]["kappa_star"] == 6


# sha256 of the --json bytes of `descent --polytope NP1`
NP1_DESCENT_SHA256 = "49115f3c43a539a4019b78d511ab06537bcd0bcd9e2a915d345f8c3e4b65c00a"


@pytest.mark.parametrize(
    "argv",
    [
        ["descent", "--polytope", "NP1"],
        ["family", "S:m=2,k=1", "--descend"],
        ["mu", "-e", "(1+x)^2*(1+y)"],
    ],
)
def test_json_bytes_are_one_indented_dump(tmp_path, capsys, argv):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, argv + ["--json", "--out", str(target)])
    assert code in (0, 1)
    assert_same_text(target.read_bytes().decode("utf-8"), out)
    assert target.read_bytes() == out.encode("utf-8")
    assert_same_text(out, json.dumps(json.loads(out), indent=2) + "\n")
    if argv[0] == "descent":
        report = face_descent(anticanonical_polytope(parse_family("NP1")))
        assert_same_text(out, json.dumps(report.to_obj(), indent=2) + "\n")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == NP1_DESCENT_SHA256


# sha256 of the --json bytes of one command per subcommand, frozen from the
# encoder that converted the whole payload to plain JSON types before writing
SUBCOMMAND_JSON_SHA256 = {
    "mu -e (1+x)^2*(1+y)": "57a366b0246c2732fbe36ca9d6075991693f83b03b3d8b8cbe2ecebc1b639b04",
    "gec -e hexagon-q": "c4662f64e671ac9f88805ad7d5d9672d7c191f1816293b4ada151838df636638",
    "einstein -e fs:3 --lambda 4": (
        "747c4a4387e977c5accd81229cb8423eec260f30635711b50e8e7016e4fb2578"
    ),
    "family P:n=2 --descend --check-witness": (
        "d2b9845947e59654352148234b2b40530dadf16e65d28c40909cbdeeadaed406"
    ),
    "polytope-info trapezoid": "190dcfa49bc0f40bca3be3f31dea33d5ba124cf25536ce722696668b3be8ec34",
    "descent -e hexagon-q": "8a5b25bc82eefa2e454372e84c216b1b6d48a9db89499087458583bd2942559a",
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_JSON_SHA256))
def test_subcommand_json_bytes_are_frozen(capsys, command):
    code, out, _ = run(capsys, command.split() + ["--json"])
    assert code in (0, 1)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SUBCOMMAND_JSON_SHA256[command]


@pytest.mark.parametrize("mode", [["--json"], []])
def test_unopenable_out_file_prints_nothing(tmp_path, capsys, mode):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, ["descent", "--polytope", "NP1", "--out", str(target), *mode])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_an_encode_error_writes_nothing(tmp_path, capsys):
    # a set cannot be encoded; the error must come before any sink is written
    payload = {"verdict": "x", "trace": [{"tests": {1, 2}}]}
    kept = tmp_path / "kept.json"
    kept.write_text("earlier report\n", encoding="utf-8")
    fresh = tmp_path / "fresh.json"
    for target in (kept, fresh):
        with pytest.raises(TypeError):
            _emit(argparse.Namespace(json=True, out=str(target)), ["text"], payload)
    assert capsys.readouterr().out == ""
    assert kept.read_text(encoding="utf-8") == "earlier report\n"
    assert not fresh.exists()


def test_shared_records_are_encoded_once(monkeypatch, capsys):
    # NP1's trace repeats 12 distinct record lists over 352 entries; an
    # encoder that rewrites every copy calls the hook 1,732 times
    calls = []
    hook = gec._json_default
    monkeypatch.setattr(gec, "_json_default", lambda x: calls.append(x) or hook(x))
    code, out, _ = run(capsys, ["descent", "--polytope", "NP1", "--json"])
    assert code == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == NP1_DESCENT_SHA256
    assert 0 < len(calls) < 200


def test_missing_file_is_an_error(capsys):
    code, _, err = run(capsys, ["gec", "-f", "/nonexistent/path.txt"])
    assert code == 2
    assert "error:" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "toric_gec.cli", "gec", "-e", "hexagon-q"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "verdict: gec-fails" in proc.stdout


def _no_expansion(monkeypatch):
    """Make a power above the exponent cap, a product of more than MAX_TERMS
    terms or a family witness fail the test: an input over a cap must be
    refused before it is built. Powers within the exponent cap run, as a
    product of such powers is read one factor at a time, but each of their
    own products is held to the term cap too."""
    power, product = LaurentPolynomial.__pow__, LaurentPolynomial.__mul__

    def refuse(*args):
        raise AssertionError("an over-cap input was expanded")

    def capped_power(base, k):
        return refuse() if abs(k) > MAX_EXPONENT else power(base, k)

    def capped_product(first, second):
        out = product(first, second)
        return refuse() if len(out) > MAX_TERMS else out

    monkeypatch.setattr(LaurentPolynomial, "__pow__", capped_power)
    monkeypatch.setattr(LaurentPolynomial, "__mul__", capped_product)
    monkeypatch.setattr(cli_module, "family_witness", refuse)


def _many_terms(count: int) -> str:
    """An expression of count distinct monomials written as products of
    variables, so that reading it takes no power."""
    side = 1
    while side * side < count:
        side += 1
    monomials = ["*".join(["1"] + ["x"] * i + ["y"] * j) for i in range(side) for j in range(side)]
    return "+".join(monomials[:count])


def _json_terms(count: int) -> str:
    """The JSON of 1 + x + ... + x^(count - 1)."""
    return json.dumps({"rank": 1, "terms": [{"e": [i], "c": 1} for i in range(count)]})


@pytest.mark.parametrize(
    "source",
    [
        ["-e", f"(1+x)^{MAX_EXPONENT + 1}"],
        ["-e", f"1+x^2*(1+y)^({-MAX_EXPONENT - 1})"],
        ["-e", f"x*(1+x+y)^{10**30}"],
        ["-f", f"2*(3+x)^{MAX_EXPONENT + 1}"],
        ["-e", f"fs:{MAX_TERMS}"],
        ["-e", f"fs:{10**30}"],
        ["-e", _many_terms(MAX_TERMS + 1)],
        ["-j", _json_terms(MAX_TERMS + 1)],
        ["-f", _json_terms(MAX_TERMS + 1)],
        # exponents within their cap, but powers of 58,905 and 4,845 terms
        ["-e", "(1+x1+x2+x3+x4)^32"],
        ["-f", "(1+x1+x2+x3+x4)^16"],
        # powers within both caps, but products of 1,185,921 and 35,937 terms
        ["-e", "(1+x1)^32*(1+x2)^32*(1+x3)^32*(1+x4)^32"],
        ["-e", "(1+x)^32*(1+y)^32*(1+z)^32"],
    ],
)
def test_over_cap_inputs_are_input_errors(tmp_path, capsys, monkeypatch, source):
    # an exponent, a power's or a product's term count or a term count above
    # its cap exits 2 before anything is expanded; fs:n has n + 1 terms
    if source[0] == "-f":
        target = tmp_path / "p.txt"
        target.write_text(source[1], encoding="utf-8")
        source = ["-f", str(target)]
    _no_expansion(monkeypatch)
    for command in ("mu", "gec", "einstein", "descent"):
        code, out, err = run(capsys, [command, *source])
        assert (code, out) == (2, ""), command
        assert err.startswith("error: ") and "cap" in err, err


def test_inputs_at_the_caps_run(capsys):
    code, out, _ = run(capsys, ["mu", "-e", f"(1+x)^{MAX_EXPONENT}", "--json"])
    assert code == 0 and len(json.loads(out)["input"]["terms"]) == MAX_EXPONENT + 1
    code, out, _ = run(capsys, ["mu", "-j", _json_terms(MAX_TERMS), "--json"])
    assert code == 0 and len(json.loads(out)["input"]["terms"]) == MAX_TERMS
    assert len(parse_expression(_many_terms(MAX_TERMS))) == MAX_TERMS
    # a power at the term cap: (1+x)^31 * (1+y)^7 has 256 terms
    code, out, _ = run(capsys, ["mu", "-e", "(1+x)^31*(1+y)^7", "--json"])
    assert code == 0 and len(json.loads(out)["input"]["terms"]) == MAX_TERMS


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main reuses one parser per process: a sequence of calls that switches
    # subcommands and drops --json, --strict and --out from one call to the
    # next must print and exit exactly as calls that each build a fresh
    # parser, so no option of an earlier call leaks into a later one
    report = tmp_path / "mu.json"
    calls = [
        ["gec", "-e", "(1+x)^2*(1+y)", "--json"],
        ["gec", "-e", "(1+x)^2*(1+y)"],
        ["descent", "--polytope", "unit-square", "--strict"],
        ["descent", "--polytope", "unit-square"],
        ["mu", "-e", "1+x+y", "--out", str(report)],
        ["mu", "-e", "1+x+y"],
        ["einstein", "-e", "1+x+y", "--lambda", "3", "--json"],
        ["einstein", "-e", "1+x+y"],
        ["family", "P:n=2", "--descend", "--json"],
        ["gec", "-e", "1/0"],
        ["polytope-info", "hexagon"],
    ]

    def call(argv: list[str]) -> tuple:
        code, out, err = run(capsys, argv)
        written = report.read_text(encoding="utf-8") if report.exists() else None
        report.unlink(missing_ok=True)
        return code, out, err, written

    shared = [call(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli_module._parser.cache_clear()
        fresh.append(call(argv))
    assert shared == fresh
    assert [code for code, *_ in shared] == [0, 0, 2, 0, 0, 0, 0, 1, 0, 2, 0]
    assert shared[4][3] and shared[5][3] is None
    assert cli_module._parser() is cli_module._parser()
