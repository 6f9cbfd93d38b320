"""Command-line front end.

Subcommands: analyze (full symmetry/classification report), generate
(built-in families), quotient (rotation-symmetry quotient), moduli
(dimension and component tables) and verify (exact certificate check for
one transformation).  Reports are JSON with a fixed field order and all
floats rendered as fixed-precision decimal strings, so identical inputs
produce byte-identical output.

The expression grammar for maps over exact constants:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' exponent)?          # integer exponents only
    atom   := integer | 'i' | 'z' | 'w(m,k)' | '(' expr ')'

with w(m,k) the exact root of unity e^(2 pi i k / m).  The verify
subcommand reads its matrix as

    matrix := '[' '[' expr ',' expr ']' ',' '[' expr ',' expr ']' ']'

with four constant entries.
"""

from __future__ import annotations

import argparse
import json
import sys

from .autgrp import TOLERANCES, verify_automorphism_exact
from .classify import Classification, classify_map
from .cyclotomic import CycloNum
from .errors import (
    BadDegreeError,
    ConditionViolationError,
    MapSyntaxError,
    NonRationalExpressionError,
    PseudoRealError,
    ResultantVanishesError,
    ZeroMapError,
)
from .families import (
    cyclic_pseudo_real_family,
    quotient_map,
    sample_degree13,
    silverman,
    verify_semiconjugacy,
)
from .moduli import (
    antiholo_order_feasibility,
    cyclic_locus_dimension,
    locus_dimensions,
    pseudo_real_component_census,
)
from .moebius import ExtendedMoebius
from .polyring import Poly
from .ratmap import RationalMap

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SEARCH = 3


# -- expression parsing ------------------------------------------------------


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    out = []
    idx = 0
    while idx < len(text):
        ch = text[idx]
        if ch.isspace():
            idx += 1
            continue
        if ch.isdigit():
            start = idx
            while idx < len(text) and text[idx].isdigit():
                idx += 1
            out.append(_Token("int", text[start:idx], start))
            continue
        if ch.isalpha():
            start = idx
            while idx < len(text) and text[idx].isalpha():
                idx += 1
            name = text[start:idx]
            if name not in ("i", "z", "w"):
                raise MapSyntaxError(f"unknown name {name!r}", start)
            out.append(_Token("name", name, start))
            continue
        if ch in "+-*/^(),[]":
            out.append(_Token(ch, ch, idx))
            idx += 1
            continue
        raise MapSyntaxError(f"unexpected character {ch!r}", idx)
    out.append(_Token("end", "", len(text)))
    return out


def _times(a, b):
    """a * b for polynomials, where None stands for 1."""
    if a is None:
        return b
    return a if b is None else a * b


class _Frac:
    """A parsed expression, not reduced.

    Until z appears it is a field constant: ``num`` is a CycloNum and
    ``den`` is None.  From then on it is num/den with ``num`` a polynomial
    and ``den`` either None, standing for 1, or a polynomial of positive
    degree: a constant denominator is folded into the numerator, and a
    polynomial of degree at most 0 over 1 becomes a constant again."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is not None and den.degree == 0:
            num, den = num.scale(den.lead().inv()), None
        if den is None and isinstance(num, Poly) and num.degree <= 0:
            num = num.coeff(0)
        self.num = num
        self.den = den

    def constant(self) -> CycloNum | None:
        return None if isinstance(self.num, Poly) else self.num

    def pair(self) -> tuple[Poly, Poly | None]:
        """(numerator, denominator) as polynomials, None standing for 1."""
        if isinstance(self.num, Poly):
            return self.num, self.den
        return Poly.constant(self.num), None

    def __add__(self, other):
        a, b = self.constant(), other.constant()
        if a is not None and b is not None:
            return _Frac(a + b)
        (p, q), (r, s) = self.pair(), other.pair()
        return _Frac(_times(p, s) + _times(r, q), _times(q, s))

    def __neg__(self):
        return _Frac(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.constant(), other.constant()
        if a is not None and b is not None:
            return _Frac(a * b)
        (p, q), (r, s) = self.pair(), other.pair()
        return _Frac(p * r, _times(q, s))

    def divide(self, other, pos):
        if other.num.is_zero():
            raise MapSyntaxError("division by the zero expression", pos)
        a, b = self.constant(), other.constant()
        if a is not None and b is not None:
            return _Frac(a / b)
        (p, q), (r, s) = self.pair(), other.pair()
        return _Frac(_times(p, s), _times(q, r))

    def power(self, k: int, pos):
        if k < 0 and self.num.is_zero():
            raise MapSyntaxError("zero raised to a negative power", pos)
        a = self.constant()
        if a is not None:
            return _Frac(a**k)
        p, q = self.pair()
        if k >= 0:
            return _Frac(p**k, None if q is None else q**k)
        return _Frac(Poly.one(p.order) if q is None else q ** (-k), p ** (-k))

    def as_integer(self) -> int | None:
        a = self.constant()
        q = None if a is None else a.as_rational()
        if q is None or q.denominator != 1:
            return None
        return int(q)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def next(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise MapSyntaxError(f"expected {kind!r}, found {tok.text or 'end'!r}", tok.pos)
        return tok

    def parse(self) -> _Frac:
        value = self.parse_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise MapSyntaxError(f"unexpected {tok.text!r}", tok.pos)
        return value

    def parse_matrix(self) -> list[_Frac]:
        """The entries of [[a,b],[c,d]], in row-major order."""
        entries = []
        self.expect("[")
        for row in range(2):
            if row:
                self.expect(",")
            self.expect("[")
            entries.append(self.parse_expr())
            self.expect(",")
            entries.append(self.parse_expr())
            self.expect("]")
        self.expect("]")
        self.expect("end")
        return entries

    def parse_expr(self) -> _Frac:
        value = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            rhs = self.parse_term()
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    def parse_term(self) -> _Frac:
        value = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.next()
            rhs = self.parse_unary()
            value = value * rhs if op.kind == "*" else value.divide(rhs, op.pos)
        return value

    def parse_unary(self) -> _Frac:
        if self.peek().kind == "-":
            self.next()
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> _Frac:
        base = self.parse_atom()
        if self.peek().kind != "^":
            return base
        op = self.next()
        exponent = self.parse_unary()  # right-associative; chains fold here
        k = exponent.as_integer()
        if k is None:
            raise NonRationalExpressionError(
                f"exponent at offset {op.pos} must be an integer constant"
            )
        return base.power(k, op.pos)

    def parse_atom(self) -> _Frac:
        tok = self.next()
        if tok.kind == "int":
            return _Frac(CycloNum.from_rational(int(tok.text)))
        if tok.kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "name":
            if tok.text == "i":
                return _Frac(CycloNum.i())
            if tok.text == "z":
                return _Frac(Poly.x())
            # w(m, k)
            self.expect("(")
            m_tok = self.expect("int")
            self.expect(",")
            sign = 1
            if self.peek().kind == "-":
                self.next()
                sign = -1
            k_tok = self.expect("int")
            self.expect(")")
            m = int(m_tok.text)
            if m < 1:
                raise MapSyntaxError("root-of-unity order must be positive", m_tok.pos)
            return _Frac(CycloNum.zeta(m, sign * int(k_tok.text)))
        raise MapSyntaxError(f"unexpected {tok.text or 'end'!r}", tok.pos)


def parse_map_expr(text: str) -> RationalMap:
    """Parse an expression into a reduced exact rational map."""
    num, den = _Parser(text).parse().pair()
    return RationalMap.reduce(num, Poly.one(num.order) if den is None else den)


def parse_constant(text: str) -> CycloNum:
    """Parse a z-free expression into an exact constant."""
    return _constant(_Parser(text).parse())


def _constant(frac: _Frac) -> CycloNum:
    """The value of a parsed expression that must be a constant."""
    value = frac.constant()
    if value is None:
        raise NonRationalExpressionError("expected a constant expression without z")
    return value


# -- report building -----------------------------------------------------------


def _fmt_float(x: float) -> str:
    return f"{x:.12e}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12e}{z.imag:+.12e}j"


def _fmt_entry(v) -> str:
    if isinstance(v, CycloNum):
        return v.to_expr()
    return _fmt_complex(complex(v))


def _element_json(g: ExtendedMoebius, order: int) -> dict:
    return {
        "matrix": [
            [_fmt_entry(g.a), _fmt_entry(g.b)],
            [_fmt_entry(g.c), _fmt_entry(g.d)],
        ],
        "antiholo": g.antiholo,
        "order": order,
        "exact": g.exact,
    }


def _classification_json(result: Classification, expr: str) -> dict:
    holos = result.report.with_orders(antiholo=False)
    antis = result.report.with_orders(antiholo=True)
    generators = [(g, k) for g, k in holos if k > 1]
    if result.holo_kind == "Cyclic" and generators:
        generators = [max(generators, key=lambda gk: gk[1])]
    report = {
        "schema_version": SCHEMA_VERSION,
        "input": expr,
        "degree": result.degree,
        "mode": result.mode,
        "tolerances": {key: _fmt_float(val) for key, val in sorted(TOLERANCES.items())},
        "aut": {
            "holo_type": result.holo_label(),
            "order": len(holos),
            "generators": [_element_json(g, k) for g, k in generators],
            "elements": [_element_json(g, k) for g, k in holos],
        },
        "antiholo": {
            "exists": bool(antis),
            "count": len(antis),
            "min_order": min((k for _, k in antis), default=None),
            "max_order": max((k for _, k in antis), default=None),
            "has_reflection": result.reflection_witness is not None,
            "has_imaginary_reflection": result.imaginary_witness is not None,
            "witnesses": [_element_json(g, k) for g, k in antis],
        },
        "classification": {
            "verdict": result.verdict,
            "theta": result.theta.to_expr() if result.theta is not None else None,
            "theta_phase": _fmt_complex(result.theta.to_complex())
            if result.theta is not None
            else None,
            "alpha": result.alpha.to_expr() if result.alpha is not None else None,
            "alpha_numeric": _fmt_complex(result.alpha_numeric)
            if result.alpha_numeric is not None
            else None,
            "beta": result.beta.to_expr() if result.beta is not None else None,
        },
        "certified": result.certified,
        "notes": list(result.consistency_notes),
    }
    return report


def _print_json(obj, stream) -> None:
    json.dump(obj, stream, indent=2)
    stream.write("\n")


def _human_summary(report: dict, stream) -> None:
    stream.write(f"degree:        {report['degree']}\n")
    stream.write(f"verdict:       {report['classification']['verdict']}\n")
    stream.write(f"aut:           {report['aut']['holo_type']}"
                 f" (order {report['aut']['order']})\n")
    anti = report["antiholo"]
    stream.write(
        "antiholo:      "
        f"count {anti['count']}, reflection {anti['has_reflection']}, "
        f"imaginary reflection {anti['has_imaginary_reflection']}\n"
    )
    if report["classification"]["theta"] is not None:
        stream.write(f"theta:         {report['classification']['theta']}\n")
    if report["classification"]["beta"] is not None:
        stream.write(f"beta:          {report['classification']['beta']}\n")
    stream.write(f"mode:          {report['mode']} (certified: {report['certified']})\n")
    for note in report["notes"]:
        stream.write(f"note:          {note}\n")


# -- subcommands ------------------------------------------------------------------


def _read_map(args) -> tuple[RationalMap, str]:
    if getattr(args, "coeff_file", None):
        with open(args.coeff_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        phi = RationalMap.from_coeff_json(data)
        return phi, f"coeff-file:{args.coeff_file}"
    text = getattr(args, "map", None)
    if text is None:
        text = sys.stdin.read().strip()
    if not text:
        raise MapSyntaxError("empty map expression", 0)
    return parse_map_expr(text), text


def _cmd_analyze(args, out, err) -> int:
    certify = args.mode == "exact"
    if args.batch:
        with open(args.batch, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        reports = []
        for line in lines:
            phi = parse_map_expr(line)
            result = classify_map(phi, certify=certify)
            reports.append(_classification_json(result, line))
        _print_json(reports, out)
        return EXIT_OK
    phi, echo = _read_map(args)
    result = classify_map(phi, certify=certify)
    report = _classification_json(result, echo)
    if args.json:
        _print_json(report, out)
    else:
        _human_summary(report, out)
    return EXIT_OK


def _cmd_generate(args, out, err) -> int:
    if args.family == "silverman":
        phi = silverman(args.degree)
    elif args.family == "example13":
        phi = sample_degree13()
    else:  # cyclic
        theta = CycloNum.zeta(2 * args.theta_den, args.theta_num)
        coeffs = [parse_constant(part) for part in args.coeffs.split(",")]
        phi = cyclic_pseudo_real_family(args.n, args.r, theta, coeffs)
    if args.json:
        _print_json(phi.to_coeff_json(), out)
    else:
        out.write(phi.to_expr() + "\n")
    return EXIT_OK


def _cmd_quotient(args, out, err) -> int:
    phi, echo = _read_map(args)
    result = classify_map(phi)
    if result.holo_kind != "Cyclic":
        err.write(
            f"error: quotient needs a cyclic symmetry group, found {result.holo_label()}\n"
        )
        return EXIT_INPUT
    form = result.form
    if form is None:
        err.write("error: no exact cyclic generator available for the quotient\n")
        return EXIT_SEARCH
    quot = quotient_map(form)
    verified = verify_semiconjugacy(form.canonical_map(), quot, form.n)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input": echo,
        "rotation_order": form.n,
        "psi": form.psi.to_expr(),
        "case": form.case_tag,
        "quotient": quot.to_expr(),
        "quotient_degree": quot.degree,
        "semiconjugacy_verified": verified,
    }
    if args.json:
        _print_json(payload, out)
    else:
        out.write(quot.to_expr() + "\n")
        if not verified:
            err.write("warning: semiconjugacy check failed\n")
    return EXIT_OK if verified else EXIT_SEARCH


def _cmd_moduli(args, out, err) -> int:
    d = args.degree
    payload: dict = {"schema_version": SCHEMA_VERSION, "degree": d}
    if args.n is not None:
        dim = cyclic_locus_dimension(d, args.n)
        rec = antiholo_order_feasibility(d, args.n)
        payload["n"] = args.n
        payload["cyclic_locus_complex_dimension"] = dim
        payload["cyclic_locus_feasible"] = dim is not None
        payload["antiholo_order"] = 2 * args.n
        payload["antiholo_feasible"] = rec.feasible
        payload["antiholo_admissible_r"] = [
            {"r": r, "case": case} for r, case in rec.admissible_r
        ]
        if rec.reason:
            payload["antiholo_reason"] = rec.reason
    else:
        if d % 2 == 1 and d >= 3:
            payload["loci"] = [
                {
                    "locus": desc.locus,
                    "real_dimension": desc.real_dimension,
                    "connected": desc.connected,
                    "notes": desc.notes,
                }
                for desc in locus_dimensions(d)
            ]
            census = pseudo_real_component_census(d)
            payload["pseudo_real_components"] = {
                "witnessed": census.witnessed,
                "possible": census.possible,
                "candidates": [
                    {
                        "s": c.s,
                        "antiholo_order": c.antiholo_order,
                        "status": c.status,
                        "detail": c.detail,
                    }
                    for c in census.candidates
                ],
            }
        else:
            payload["loci"] = []
            payload["note"] = "pseudo-real loci need odd degree >= 3"
    if args.json:
        _print_json(payload, out)
    else:
        if args.n is not None:
            dim = payload["cyclic_locus_complex_dimension"]
            out.write(
                f"cyclic locus (order {args.n}): "
                + (f"complex dimension {dim}\n" if dim is not None else "infeasible\n")
            )
            out.write(
                f"antiholomorphic order {2 * args.n}: "
                + ("feasible" if payload["antiholo_feasible"] else "infeasible")
            )
            if payload["antiholo_admissible_r"]:
                pairs = ", ".join(
                    f"r={e['r']} (case {e['case']})"
                    for e in payload["antiholo_admissible_r"]
                )
                out.write(f" [{pairs}]")
            out.write("\n")
        else:
            for entry in payload.get("loci", []):
                out.write(
                    f"{entry['locus']:<36} dim {entry['real_dimension']:>3}"
                    f"   connected: {entry['connected']}\n"
                )
            if "pseudo_real_components" in payload:
                pc = payload["pseudo_real_components"]
                out.write(
                    f"pseudo-real components: between {pc['witnessed']} and {pc['possible']}\n"
                )
    return EXIT_OK


def _cmd_verify(args, out, err) -> int:
    phi, echo = _read_map(args)
    entries = [_constant(frac) for frac in _Parser(args.auto).parse_matrix()]
    g = ExtendedMoebius(*entries, antiholo=args.antiholo)
    ok = verify_automorphism_exact(phi, g)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input": echo,
        "matrix": [[e.to_expr() for e in entries[:2]], [e.to_expr() for e in entries[2:]]],
        "antiholo": args.antiholo,
        "verified": ok,
    }
    _print_json(payload, out)
    return EXIT_OK


def _bool_flag(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudoreal",
        description="Symmetry groups and real/pseudo-real classification of "
        "rational maps on the Riemann sphere (exact arithmetic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="classify a rational map")
    analyze.add_argument("--map", help="map expression (default: read stdin)")
    analyze.add_argument("--coeff-file", help="JSON coefficient file")
    analyze.add_argument("--batch", help="file with one expression per line")
    analyze.add_argument("--json", action="store_true", help="JSON report")
    analyze.add_argument("--mode", choices=("exact", "numeric"), default="exact")

    gen = sub.add_parser("generate", help="emit a built-in family member")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    g_s = gen_sub.add_parser("silverman", help="i((z-1)/(z+1))^d")
    g_s.add_argument("--degree", type=int, required=True)
    g_s.add_argument("--json", action="store_true")
    g_c = gen_sub.add_parser(
        "cyclic", help="pseudo-real z*psi(z^n) with prescribed rotation order"
    )
    g_c.add_argument("--n", type=int, required=True)
    g_c.add_argument("--r", type=int, required=True)
    g_c.add_argument("--theta-num", type=int, default=0,
                     help="theta = pi * theta-num / theta-den")
    g_c.add_argument("--theta-den", type=int, default=1)
    g_c.add_argument("--coeffs", required=True,
                     help="comma-separated constants a_0,...,a_r (e.g. '1,1,i')")
    g_c.add_argument("--json", action="store_true")
    g_e = gen_sub.add_parser("example13", help="the built-in degree-13 sample")
    g_e.add_argument("--json", action="store_true")

    quot = sub.add_parser("quotient", help="quotient by the cyclic symmetry")
    quot.add_argument("--map", help="map expression (default: read stdin)")
    quot.add_argument("--coeff-file")
    quot.add_argument("--json", action="store_true")

    mod = sub.add_parser("moduli", help="dimension and component tables")
    mod.add_argument("--degree", type=int, required=True)
    mod.add_argument("--n", type=int)
    mod.add_argument("--json", action="store_true")

    ver = sub.add_parser("verify", help="exact check of one transformation")
    ver.add_argument("--map", help="map expression (default: read stdin)")
    ver.add_argument("--coeff-file")
    ver.add_argument("--auto", required=True, help="matrix [[a,b],[c,d]]")
    ver.add_argument("--antiholo", type=_bool_flag, default=False)
    return parser


def main(argv=None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "analyze": _cmd_analyze,
        "generate": _cmd_generate,
        "quotient": _cmd_quotient,
        "moduli": _cmd_moduli,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args, out, err)
    except (
        MapSyntaxError,
        NonRationalExpressionError,
        ConditionViolationError,
        BadDegreeError,
        ResultantVanishesError,
        ZeroMapError,
        ValueError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_INPUT
    except PseudoRealError as exc:
        err.write(f"search failure: {exc}\n")
        return EXIT_SEARCH


if __name__ == "__main__":
    sys.exit(main())
