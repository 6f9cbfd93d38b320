import io
import json
import random
import sys
from pathlib import Path

import pytest

from pseudoreal import (
    CycloNum,
    ExtendedMoebius,
    Poly,
    RationalMap,
    aut_group_report,
    classify,
    cli,
    cyclic_pseudo_real_family,
    silverman,
)
from pseudoreal.cli import main, parse_constant, parse_map_expr
from pseudoreal.errors import MapSyntaxError, NonRationalExpressionError, PseudoRealError
from pseudoreal.families import sample_degree3_order4, sample_degree13

DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_parse_silverman_expression():
    phi = parse_map_expr("i*((z-1)/(z+1))^3")
    assert phi.equals_projective(silverman(3))


def test_parse_degree13_expression():
    phi = parse_map_expr("z*(1+z^6+i*z^12)/(-i-z^6+z^12)")
    assert phi.equals_projective(sample_degree13())


def test_parse_errors_carry_positions():
    with pytest.raises(MapSyntaxError) as exc:
        parse_map_expr("z^^2")
    assert exc.value.position == 2
    with pytest.raises(NonRationalExpressionError):
        parse_map_expr("z^z")
    with pytest.raises(MapSyntaxError):
        parse_map_expr("2 +")
    with pytest.raises(MapSyntaxError):
        parse_map_expr("q + 1")


def test_parse_grammar_details():
    # precedence: ^ binds tighter than unary minus; integer exponents only
    assert parse_constant("-2^2") == CycloNum.from_rational(-4)
    assert parse_constant("3/4") == CycloNum.from_rational(3) / CycloNum.from_rational(4)
    assert parse_constant("w(12,3)") == CycloNum.i().rebase(12)
    assert parse_constant("w(6,-1)") == CycloNum.zeta(6, 5)
    assert parse_constant("2^-1") == CycloNum.from_rational(1) / CycloNum.from_rational(2)
    phi = parse_map_expr("1/z^2")
    assert phi.degree == 2


def test_analyze_json_report():
    code, out, err = run_cli("analyze", "--map", "i*((z-1)/(z+1))^3", "--json")
    assert code == 0, err
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["degree"] == 3
    assert report["classification"]["verdict"] == "pseudo_real"
    assert report["classification"]["theta"] == "i"
    assert report["antiholo"]["has_imaginary_reflection"] is True
    assert report["antiholo"]["has_reflection"] is False
    assert report["certified"] is True
    assert report["mode"] == "exact"


def test_analyze_deterministic_output():
    first = run_cli("analyze", "--map", "z^3", "--json")
    second = run_cli("analyze", "--map", "z^3", "--json")
    assert first == second
    assert first[0] == 0


def test_analyze_human_readable():
    code, out, err = run_cli("analyze", "--map", "z^3")
    assert code == 0
    assert "verdict:       real" in out
    assert "Dihedral(2)" in out


def test_analyze_numeric_mode():
    code, out, _ = run_cli("analyze", "--map", "z^3", "--json", "--mode", "numeric")
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "numeric"
    assert report["certified"] is False


def test_analyze_exit_codes():
    code, _, err = run_cli("analyze", "--map", "z^^2", "--json")
    assert code == 2 and "offset 2" in err
    code, _, err = run_cli("analyze", "--map", "z", "--json")
    assert code == 2  # degree below the dynamical range
    code, _, _ = run_cli("analyze", "--coeff-file", "/nonexistent.json", "--json")
    assert code == 2


def test_generate_silverman_and_pipe():
    code, out, _ = run_cli("generate", "silverman", "--degree", "5")
    assert code == 0
    phi = parse_map_expr(out.strip())
    assert phi.equals_projective(silverman(5))


def test_generate_example13():
    code, out, _ = run_cli("generate", "example13")
    assert code == 0
    assert parse_map_expr(out.strip()).equals_projective(sample_degree13())


def test_generate_cyclic_family():
    code, out, _ = run_cli(
        "generate", "cyclic", "--n", "6", "--r", "2", "--coeffs", "1,1,i"
    )
    assert code == 0
    assert parse_map_expr(out.strip()).equals_projective(sample_degree13())
    code, _, err = run_cli(
        "generate", "cyclic", "--n", "6", "--r", "2", "--coeffs", "1,1,1"
    )
    assert code == 2 and "error" in err


def test_generate_coeff_json():
    code, out, _ = run_cli("generate", "silverman", "--degree", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["field_order"] == 4
    from pseudoreal import RationalMap

    assert RationalMap.from_coeff_json(data).equals_projective(silverman(3))


def test_quotient_subcommand():
    code, out, _ = run_cli(
        "quotient", "--map", "z*(1+z^6+i*z^12)/(-i-z^6+z^12)", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rotation_order"] == 6
    assert payload["quotient_degree"] == 13
    assert payload["semiconjugacy_verified"] is True
    # a map with trivial symmetries has no quotient
    code, _, err = run_cli("quotient", "--map", "i*((z-1)/(z+1))^3")
    assert code == 2 and "cyclic" in err


def test_quotient_reuses_the_classification_normal_form(monkeypatch):
    calls = []
    original = classify.canonicalize_cyclic

    def counting(*args):
        calls.append(args)
        return original(*args)

    # patched in every module that may bind the name, so that a second
    # canonicalization anywhere on the quotient path is counted
    for module in (classify, cli):
        monkeypatch.setattr(module, "canonicalize_cyclic", counting, raising=False)
    code, _, err = run_cli("quotient", "--map", sample_degree13().to_expr(), "--json")
    assert code == 0, err
    assert len(calls) == 1


def test_moduli_subcommand():
    code, out, _ = run_cli("moduli", "--degree", "13", "--n", "6")
    assert code == 0
    assert "complex dimension 4" in out
    code, out, _ = run_cli("moduli", "--degree", "13", "--n", "6", "--json")
    payload = json.loads(out)
    assert payload["cyclic_locus_complex_dimension"] == 4
    assert payload["antiholo_feasible"] is True
    code, out, _ = run_cli("moduli", "--degree", "17", "--json")
    payload = json.loads(out)
    assert payload["pseudo_real_components"]["witnessed"] >= 2


def test_verify_subcommand():
    code, out, _ = run_cli(
        "verify", "--map", "z^3", "--auto", "[[0,1],[1,0]]", "--antiholo", "true"
    )
    assert code == 0
    assert json.loads(out)["verified"] is True
    # the spaced form printed by Python and JSON
    code, out, err = run_cli(
        "verify", "--map", "z^3", "--auto", "[[0, 1], [1, 0]]", "--antiholo", "true"
    )
    assert code == 0, err
    assert json.loads(out)["verified"] is True
    code, out, _ = run_cli(
        "verify", "--map", "z^3", "--auto", "[[i,0],[0,1]]", "--antiholo", "false"
    )
    assert code == 0
    assert json.loads(out)["verified"] is False
    code, out, err = run_cli("verify", "--map", "z^3", "--auto", "[[w(8, 1), 0], [0, 1]]")
    assert code == 0, err
    assert json.loads(out)["matrix"] == [["w(8,1)", "0"], ["0", "1"]]
    for bad in ("[1,2,3]", "[[1,2],[3]]", "[[1,2],[3,4]] z", "[[1,1],[1,1]]"):
        code, _, err = run_cli("verify", "--map", "z^3", "--auto", bad)
        assert code == 2, bad
        assert err.startswith("error: "), bad


def test_analyze_coeff_file(tmp_path):
    coeffs = tmp_path / "map.json"
    coeffs.write_text(json.dumps(silverman(3).to_coeff_json()))
    code, out, err = run_cli("analyze", "--coeff-file", str(coeffs), "--json")
    assert code == 0, err
    report = json.loads(out)
    assert report["degree"] == 3
    assert report["classification"]["verdict"] == "pseudo_real"


# z^3 over Q(i), two coordinates per coefficient
Z_CUBED_Q_I = [["0", "0"], ["0", "0"], ["0", "0"], ["1", "0"]]


@pytest.mark.parametrize(
    "data",
    [
        {"numer": [["1"], ["0"], ["1"]], "denom": [["1"]]},
        {"field_order": 1, "numer": 5, "denom": [["1"]]},
        [1, [["1"]], [["1"]]],
        {"field_order": 1, "numer": [[1e999], ["0"]], "denom": [["1"]]},
        {"field_order": 1, "numer": [["1/0"], ["0"], ["1"]], "denom": [["1"]]},
        {"field_order": 4.9, "numer": Z_CUBED_Q_I, "denom": [["1", "0"]]},
        {"field_order": True, "numer": [["0"], ["0"], ["0"], ["1"]], "denom": [["1"]]},
    ],
    ids=[
        "no-field-order",
        "numer-not-a-list",
        "top-level-array",
        "infinite-coefficient",
        "zero-denominator",
        "fractional-field-order",
        "boolean-field-order",
    ],
)
def test_analyze_malformed_coeff_file_is_an_input_error(tmp_path, data):
    coeffs = tmp_path / "map.json"
    coeffs.write_text(json.dumps(data))
    code, out, err = run_cli("analyze", "--coeff-file", str(coeffs), "--json")
    assert code == 2 and out == "" and err.startswith("error: ")


def test_batch_mode(tmp_path):
    batch = tmp_path / "maps.txt"
    batch.write_text("z^3\ni*((z-1)/(z+1))^3\n")
    code, out, _ = run_cli("analyze", "--batch", str(batch), "--json")
    assert code == 0
    reports = json.loads(out)
    assert [r["classification"]["verdict"] for r in reports] == ["real", "pseudo_real"]


def _golden_family_map():
    # its symmetries have entries in Q(zeta_8) and Q(zeta_16), outside Q(i)
    i = CycloNum.i()
    return cyclic_pseudo_real_family(8, 2, -1, [-1 + 2 * i, -2, -2 - 2 * i])


# a dense degree-6 map over Q(i) with rational coordinates, trivial group
DENSE6_EXPR = (
    "((-1/5+3/5*i)-z+(-9/10+7/10*i)*z^2+(1/2-1/2*i)*z^4+(-1/10-7/10*i)*z^5"
    "+(4/5-2/5*i)*z^6)/((9/10+3/10*i)+(-i)*z+(-3/10+9/10*i)*z^2"
    "+(1/10+7/10*i)*z^3+(-7/10-9/10*i)*z^4+(2/5+4/5*i)*z^5+z^6)"
)
# cyclic(12, 2): its report prints elements of Q(zeta_8), Q(zeta_12), Q(zeta_24)
CYCLIC_N12_R2_EXPR = "(i*z+(-2*i)*z^13+(1+2*i)*z^25)/((2+i)+2*z^12+z^24)"

GOLDEN_MAPS = [
    ("silverman5", lambda: silverman(5)),
    ("sample_degree13", sample_degree13),
    ("sample_degree3_order4", sample_degree3_order4),
    ("cyclic_n8_r2", _golden_family_map),
    ("dense6", lambda: parse_map_expr(DENSE6_EXPR)),
    ("cyclic_n12_r2", lambda: parse_map_expr(CYCLIC_N12_R2_EXPR)),
]


@pytest.mark.parametrize("name, build", GOLDEN_MAPS)
def test_analyze_json_matches_golden_report(name, build):
    # the reports in tests/data are byte-exact `analyze --json` output;
    # any change to a printed matrix, order or note shows up here
    code, out, err = run_cli("analyze", "--map", build().to_expr(), "--json")
    assert code == 0, err
    assert out.encode() == (DATA / f"analyze_{name}.json").read_bytes()


@pytest.mark.parametrize(
    "name, build",
    [(name, build) for name, build in GOLDEN_MAPS if name not in ("silverman5", "dense6")],
)
def test_quotient_json_matches_golden_report(name, build):
    # the four cyclic golden maps: psi, the case tag and the quotient map of
    # `quotient --json`, byte for byte
    code, out, err = run_cli("quotient", "--map", build().to_expr(), "--json")
    assert code == 0, err
    assert out.encode() == (DATA / f"quotient_{name}.json").read_bytes()


@pytest.mark.parametrize("name, build", GOLDEN_MAPS)
def test_report_orders_match_the_exact_power_loop(name, build):
    phi = build()
    rep = aut_group_report(phi)
    assert rep.certified and len(rep.orders) == len(rep.elements)
    for g, k in zip(rep.elements, rep.orders):
        assert g.exact and k == g.order(2 * (phi.degree + 1))


@pytest.mark.parametrize(
    "build, callers",
    [(sample_degree13, ["canonicalize_cyclic"]), (lambda: silverman(5), [])],
)
def test_analyze_powers_exact_elements_only_to_certify_the_generator(
    monkeypatch, build, callers
):
    # element orders come from the report; the one exact power loop left
    # certifies the order of the cyclic generator
    seen = []
    original = ExtendedMoebius.order

    def recording(self, *args, **kwargs):
        if self.exact:
            seen.append(sys._getframe(1).f_code.co_name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ExtendedMoebius, "order", recording)
    code, _, err = run_cli("analyze", "--map", build().to_expr(), "--json")
    assert code == 0, err
    assert seen == callers


@pytest.mark.parametrize("name", ["sample_degree13", "cyclic_n12_r2"])
def test_analyze_reads_numeric_orders_off_the_product_table(monkeypatch, name):
    # no numeric matrix is raised to powers: the group structure and the
    # lift fields of certify_element take their orders from the product table
    seen = set()
    original = ExtendedMoebius.order

    def recording(self, *args, **kwargs):
        if not self.exact:
            seen.add(sys._getframe(1).f_code.co_name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ExtendedMoebius, "order", recording)
    code, _, err = run_cli("analyze", "--map", dict(GOLDEN_MAPS)[name]().to_expr(), "--json")
    assert code == 0, err
    assert seen == set()


class _PairFrac:
    """Reference arithmetic for the parser: every subexpression is a pair
    of polynomials, constants included, with no folding."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            num = num if isinstance(num, Poly) else Poly.constant(num)
            den = Poly.one(num.order)
        self.num = num
        self.den = den

    def __add__(self, other):
        return _PairFrac(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return _PairFrac(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return _PairFrac(self.num * other.num, self.den * other.den)

    def __neg__(self):
        return _PairFrac(-self.num, self.den)

    def divide(self, other, pos):
        if other.num.is_zero():
            raise MapSyntaxError("division by the zero expression", pos)
        return _PairFrac(self.num * other.den, self.den * other.num)

    def power(self, k, pos):
        if k >= 0:
            return _PairFrac(self.num**k, self.den**k)
        if self.num.is_zero():
            raise MapSyntaxError("zero raised to a negative power", pos)
        return _PairFrac(self.den ** (-k), self.num ** (-k))

    def as_integer(self):
        if self.num.degree > 0 or self.den.degree > 0:
            return None
        value = self.num.coeff(0) / self.den.coeff(0) if not self.num.is_zero() else CycloNum.zero()
        q = value.as_rational()
        return None if q is None or q.denominator != 1 else int(q)


def _reference_parse(text):
    """The reduced map of ``text`` under the reference pair arithmetic."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_Frac", _PairFrac)
        frac = cli._Parser(text).parse()
    return RationalMap.reduce(frac.num, frac.den)


def _reference_constant(text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_Frac", _PairFrac)
        frac = cli._Parser(text).parse()
    if frac.num.degree > 0 or frac.den.degree > 0:
        raise NonRationalExpressionError("expected a constant expression without z")
    phi = RationalMap.reduce(frac.num, frac.den)
    return phi.numer.coeff(0) / phi.denom.coeff(0)


def _outcome(parse, text):
    """The parse result in exact, field-revealing form, or the error class
    and position."""
    try:
        value = parse(text)
    except PseudoRealError as exc:
        return type(exc), getattr(exc, "position", None)
    if isinstance(value, CycloNum):
        return value.order, value.num, value.den
    return value.to_coeff_json()


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        # z is half of the leaves
        kind = rng.randrange(6)
        if kind == 0:
            return f"{rng.randint(0, 9)}/{rng.randint(1, 9)}"
        if kind == 1:
            return "i"
        if kind == 2:
            return f"w({rng.choice((1, 2, 3, 4, 6, 8))},{rng.randint(-8, 8)})"
        return "z"
    op = rng.choice("+-*/^-")
    left = _random_expr(rng, depth - 1)
    if op == "^":
        return f"({left})^{rng.randint(-3, 5)}"
    if rng.random() < 0.1:
        left = f"-{left}"
    return f"({left}){op}({_random_expr(rng, depth - 1)})"


def test_parser_matches_the_pair_arithmetic():
    rng = random.Random(18)
    texts = [_random_expr(rng, 4) for _ in range(200)]
    texts += ["5", "-i", "0", "z", "z^0", "(z-z+3)/w(8,2)", "1/(w(8,1)*z)^0",
              "(z/z)^-2", "(2*z)/(z-z+2)", "w(12,3)*(3/4-i)^-2*z^3+1/z"]
    kinds = set()
    for text in texts:
        expected = _outcome(_reference_parse, text)
        assert _outcome(parse_map_expr, text) == expected, text
        assert _outcome(parse_constant, text) == _outcome(_reference_constant, text), text
        kinds.add(expected[0] if isinstance(expected, tuple) else dict)
    assert {MapSyntaxError, dict} <= kinds


@pytest.mark.parametrize("text", [
    "0/0", "z/(z-z)", "1/(0*z)", "(z-z)^-2", "0^-1", "(0/z)^-1", "z^(1/2)",
    "z^(z/z)", "2^i", "z^(z-z+2)", "3^(2-2)",
])
def test_parser_errors_match_the_pair_arithmetic(text):
    assert _outcome(parse_map_expr, text) == _outcome(_reference_parse, text)
    assert _outcome(parse_constant, text) == _outcome(_reference_constant, text)
