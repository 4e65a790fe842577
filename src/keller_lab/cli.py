"""Command-line front end: thin adapters over the library operations.

Every subcommand prints one report object: {command, input_digest, result,
elapsed_ms}.  Numbers are exact fractions unless --float is given; --format
csv flattens the result into key,value rows; --plot-data swaps the result
for a planar grid suitable for external plotting.  Exit codes: 0 success,
1 domain error, 2 parse/usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import is_dataclass, fields as dataclass_fields
from fractions import Fraction
from pathlib import Path

from keller_lab import certify, factor, families, jacobian
from keller_lab import parser as parsing
from keller_lab.linalg import RatMatrix
from keller_lab.parser import ParseError
from keller_lab.poly import Poly, PolyMap


def _digest(*parts: str) -> str:
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


def canonical_map_text(f: PolyMap) -> str:
    return "\n".join(str(c) for c in f.components)


def to_jsonable(value, float_mode: bool = False):
    """Convert library values into deterministic JSON-ready structures."""
    if isinstance(value, Fraction):
        return float(value) if float_mode else str(value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Poly):
        return str(value)
    if isinstance(value, PolyMap):
        return [str(c) for c in value.components]
    if isinstance(value, RatMatrix):
        return [[to_jsonable(x, float_mode) for x in row]
                for row in value.data]
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name), float_mode)
                for f in dataclass_fields(value)}
    if isinstance(value, dict):
        return {str(k): to_jsonable(v, float_mode) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v, float_mode) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _load_map(args) -> tuple[PolyMap, str]:
    """Load a map from --map FILE or --expr components; returns (map, digest)."""
    if getattr(args, "map", None):
        text = Path(args.map).read_text(encoding="utf-8")
        f = parsing.parse_map_file(text)
    elif getattr(args, "expr", None):
        f = parsing.parse_map(list(args.expr), getattr(args, "n", None))
    else:
        raise ParseError("provide --map FILE or --expr for each component", 0)
    return f, _digest(canonical_map_text(f))


def _load_second_map(args) -> PolyMap:
    if getattr(args, "with_map", None):
        return parsing.parse_map_file(
            Path(args.with_map).read_text(encoding="utf-8"))
    if getattr(args, "with_expr", None):
        return parsing.parse_map(list(args.with_expr), getattr(args, "n", None))
    raise ParseError("provide --with FILE or --with-expr components", 0)


def parse_domain(spec: str) -> certify.ConvexDomain:
    """Parse 'box:lo,hi;lo,hi', 'ball:c1,c2;r', or 'half:BOX|a1,a2,b|...'."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "box":
            bounds = [tuple(Fraction(x) for x in pair.split(","))
                      for pair in rest.split(";")]
            if any(len(b) != 2 for b in bounds):
                raise ValueError("each box coordinate needs lo,hi")
            return certify.ConvexDomain.box(bounds)
        if kind == "ball":
            center_text, _, radius_text = rest.partition(";")
            center = [Fraction(x) for x in center_text.split(",")]
            return certify.ConvexDomain.ball(center, Fraction(radius_text))
        if kind == "half":
            box_text, *constraint_texts = rest.split("|")
            bounds = [tuple(Fraction(x) for x in pair.split(","))
                      for pair in box_text.split(";")]
            constraints = []
            for text in constraint_texts:
                *normal, rhs = [Fraction(x) for x in text.split(",")]
                constraints.append((normal, rhs))
            return certify.ConvexDomain.halfspaces(bounds, constraints)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad domain {spec!r}: {exc}", 0) from exc
    raise ParseError(
        f"unknown domain kind {kind!r} (expected box, ball or half)", 0)


def parse_complex_coeffs(text: str) -> list[tuple[Fraction, Fraction]]:
    """Parse 'c0,c1,...' with entries 're' or 're:im', ascending powers."""
    out = []
    for part in text.split(","):
        re_text, _, im_text = part.partition(":")
        try:
            out.append((Fraction(re_text.strip()),
                        Fraction(im_text.strip()) if im_text else Fraction(0)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad coefficient {part.strip()!r}", 0) from exc
    if not out:
        raise ParseError("empty coefficient list", 0)
    return out


def _plot_data_for_map(f: PolyMap, resolution: int) -> dict:
    if f.n != 2:
        raise ValueError("plot data needs a two-variable map")
    rows = []
    for i in range(resolution):
        for j in range(resolution):
            x = Fraction(-1) + Fraction(2 * i, resolution - 1) \
                if resolution > 1 else Fraction(0)
            y = Fraction(-1) + Fraction(2 * j, resolution - 1) \
                if resolution > 1 else Fraction(0)
            fx, fy = f.eval((x, y))
            rows.append((x, y, fx, fy))
    return {"kind": "plot-data", "columns": ["x", "y", "f1", "f2"],
            "rows": rows}


# -- subcommand handlers -------------------------------------------------------

def _cmd_jacobian(args):
    f, digest = _load_map(args)
    if args.plot_data:
        return _plot_data_for_map(f, args.grid), digest
    matrix = jacobian.jacobian_matrix(f)
    det = jacobian.jacobian_det(f)
    return {"kind": "jacobian", "n": f.n,
            "matrix": [[str(matrix[i, j]) for j in range(f.n)]
                       for i in range(f.n)],
            "det": det}, digest


def _cmd_keller(args):
    f, digest = _load_map(args)
    if args.plot_data:
        return _plot_data_for_map(f, args.grid), digest
    verdict = jacobian.keller_check(f)
    return {"kind": "keller-verdict", "is_keller": verdict.is_keller,
            "det": verdict.det,
            "constant": verdict.constant_value}, digest


def _cmd_inverse(args):
    f, digest = _load_map(args)
    zmap = families.zshift_from_map(f)
    inverse = families.zshift_inverse(zmap)
    if args.plot_data:
        return _plot_data_for_map(inverse, args.grid), digest
    return {"kind": "map", "map": inverse,
            "coefficient_table": inverse.coeffs}, digest


def _cmd_compose(args):
    outer, _ = _load_map(args)
    inner = _load_second_map(args)
    composed = outer.compose(inner)
    digest = _digest(canonical_map_text(outer), canonical_map_text(inner))
    if args.plot_data:
        return _plot_data_for_map(composed, args.grid), digest
    return {"kind": "map", "map": composed}, digest


def _cmd_decompose(args):
    f, digest = _load_map(args)
    zmap = families.zshift_from_map(f)
    result = factor.decompose_zshift(zmap)
    return {"kind": "factorization",
            "factors": [{"gamma": s.gamma, "alphas": s.alphas}
                        for s in result.factors],
            "verified": result.verify()}, digest


def _cmd_member(args):
    f, digest = _load_map(args)
    zmap = families.zshift_from_map(f)
    result = factor.rank_one_membership(zmap)
    payload = {"kind": "membership", "member": result.member}
    if result.spec is not None:
        payload["spec"] = {"gamma": result.spec.gamma,
                           "alphas": result.spec.alphas}
    if result.witness is not None:
        payload["witness"] = result.witness
    return payload, digest


def _cmd_normal_form(args):
    f, digest = _load_map(args)
    nf = factor.planar_normal_form(f)
    return {"kind": "normal-form", "case": nf.case_tag,
            "A": nf.a, "alpha_top": nf.alpha_top,
            "base": {"gamma": nf.base.gamma, "alphas": nf.base.alphas},
            "m": nf.m, "swapped": nf.swapped,
            "degenerate": nf.degenerate,
            "normal_map": nf.normal_map()}, digest


def _certificate_payload(cert: certify.Certificate) -> dict:
    return {"kind": "certificate", "status": cert.status,
            "method": cert.method, "evidence": cert.evidence}


def _cmd_inject_sample(args):
    f, digest = _load_map(args)
    domain = parse_domain(args.domain)
    cert = certify.certify_injective_sampling(
        f, domain, args.trials, args.seed, args.denom_bits)
    return _certificate_payload(cert), digest


def _cmd_inject_symbolic(args):
    f, digest = _load_map(args)
    zmap = families.zshift_from_map(f)
    cert = certify.certify_injective_zshift(zmap)
    return _certificate_payload(cert), digest


def _cmd_shear_check(args):
    h = parse_complex_coeffs(args.h)
    g = parse_complex_coeffs(args.g) if args.g else [(Fraction(0), Fraction(0))]
    inp = certify.PlanarShearInput(tuple(h), tuple(g), Fraction(args.radius))
    digest = _digest(repr(inp.h), repr(inp.g), str(inp.radius))
    cert = certify.planar_shear_check(inp, args.grid, args.gamma_steps)
    if args.plot_data:
        gamma = (cert.evidence.get("gamma")
                 if cert.status == certify.PROVEN else (Fraction(1), Fraction(0)))
        rows = certify.shear_margin_grid(inp, args.grid, gamma)
        return {"kind": "plot-data", "columns": ["x", "y", "margin"],
                "rows": rows}, digest
    return _certificate_payload(cert), digest


def _cmd_analytic_check(args):
    coeffs = parse_complex_coeffs(args.coeffs)
    domain = parse_domain(args.domain)
    digest = _digest(repr(coeffs), args.domain)
    cert = certify.analytic_pair_check(coeffs, domain, args.grid)
    return _certificate_payload(cert), digest


def _cmd_pvalent(args):
    f, digest = _load_map(args)
    pieces = [parse_domain(spec) for spec in args.piece]
    result = certify.pvalent_bound(
        f, pieces, resolution=args.grid, trials=args.trials, seed=args.seed)
    return {"kind": "pvalence", "bound": result.bound,
            "pieces": [_certificate_payload(c)
                       for c in result.certificates]}, digest


_HANDLERS = {
    "jacobian": _cmd_jacobian,
    "keller": _cmd_keller,
    "inverse": _cmd_inverse,
    "compose": _cmd_compose,
    "decompose": _cmd_decompose,
    "member": _cmd_member,
    "normal-form-2d": _cmd_normal_form,
    "inject-sample": _cmd_inject_sample,
    "inject-symbolic": _cmd_inject_symbolic,
    "shear-check": _cmd_shear_check,
    "analytic-check": _cmd_analytic_check,
    "pvalent": _cmd_pvalent,
}


def _add_map_flags(sub):
    sub.add_argument("--map", help="map file (expressions or family format)")
    sub.add_argument("--expr", action="append",
                     help="component expression (repeat once per component)")
    sub.add_argument("--n", type=int, default=None,
                     help="variable count (default: inferred)")


def _add_output_flags(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--float", action="store_true",
                     help="render numbers as decimals instead of fractions")
    sub.add_argument("--plot-data", action="store_true",
                     help="emit a planar grid instead of the usual result")
    sub.add_argument("--grid", type=int, default=32,
                     help="grid resolution for certification/plots")


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="keller-lab",
        description="Exact construction, inversion, factorization and "
                    "injectivity certification for polynomial maps.")
    subs = top.add_subparsers(dest="command", required=True)

    for name in ("jacobian", "keller", "inverse", "decompose", "member",
                 "normal-form-2d", "inject-symbolic"):
        sub = subs.add_parser(name)
        _add_map_flags(sub)
        _add_output_flags(sub)

    sub = subs.add_parser("compose")
    _add_map_flags(sub)
    sub.add_argument("--with", dest="with_map", help="inner map file")
    sub.add_argument("--with-expr", action="append",
                     help="inner map component expression")
    _add_output_flags(sub)

    sub = subs.add_parser("inject-sample")
    _add_map_flags(sub)
    sub.add_argument("--domain", required=True,
                     help="box:lo,hi;... | ball:c,...;r | half:BOX|a,..,b")
    sub.add_argument("--trials", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--denom-bits", type=int, default=4,
                     help="sample lattice denominator 2^k")
    _add_output_flags(sub)

    sub = subs.add_parser("shear-check")
    sub.add_argument("--h", required=True,
                     help="coefficients c0,c1,... ('re' or 're:im')")
    sub.add_argument("--g", default="",
                     help="coefficients of the second piece (default 0)")
    sub.add_argument("--radius", default="1")
    sub.add_argument("--gamma-steps", type=int, default=360)
    _add_output_flags(sub)

    sub = subs.add_parser("analytic-check")
    sub.add_argument("--coeffs", required=True,
                     help="complex polynomial coefficients c0,c1,...")
    sub.add_argument("--domain", required=True)
    _add_output_flags(sub)

    sub = subs.add_parser("pvalent")
    _add_map_flags(sub)
    sub.add_argument("--piece", action="append", required=True,
                     help="convex piece (same syntax as --domain); repeat")
    sub.add_argument("--trials", type=int, default=64)
    sub.add_argument("--seed", type=int, default=0)
    _add_output_flags(sub)

    return top


def build_report(argv: list[str]) -> tuple[dict, argparse.Namespace]:
    args = build_arg_parser().parse_args(argv)
    start = time.perf_counter()
    result, digest = _HANDLERS[args.command](args)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = {
        "command": args.command,
        "input_digest": digest,
        "result": to_jsonable(result, getattr(args, "float", False)),
        "elapsed_ms": round(elapsed_ms, 3),
    }
    return report, args


def _write_csv(report: dict, stream) -> None:
    writer = csv.writer(stream)
    result = report["result"]
    if result.get("kind") == "plot-data":
        writer.writerow(result["columns"])
        writer.writerows(result["rows"])
        return
    writer.writerow(["key", "value"])
    writer.writerow(["command", report["command"]])
    writer.writerow(["input_digest", report["input_digest"]])

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(f"{prefix}[{i}]", v)
        else:
            writer.writerow([prefix, value])

    walk("result", result)
    writer.writerow(["elapsed_ms", report["elapsed_ms"]])


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        report, args = build_report(argv)
    except SystemExit as exc:  # argparse printed a usage error or the help
        return exc.code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "csv":
        buffer = io.StringIO()
        _write_csv(report, buffer)
        sys.stdout.write(buffer.getvalue())
    else:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
