"""Command-line interface.

Subcommands::

    foldcheck invariants "RP4 # (S2 x S2)"
    foldcheck decide "K3" --target R4 [--tame] [--format json] [--explain]
    foldcheck thom "RP4 x S1"
    foldcheck span "K3"
    foldcheck catalog

The manifold argument is a catalog expression or, if it is not one, the
path of a JSON manifold document.  Targets are ``R<p>``, ``sphere:<p>``,
``self`` (the manifold's own tangent data, i.e. a map homotopic to the
identity), or ``pullback:<file>`` with a JSON bundle-descriptor document.

Exit codes: 0 on success (Unknown verdicts are successes), 1 on usage
errors, 2 on expression or document errors (messages include positions
where available).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .algebra import ClassZ2, TotalClass
from .catalog import Manifold, load_descriptor, load_manifold
from .characteristic import structure_flags, tangent_descriptor
from .decide import Outcome, TargetSpec, decide_fold, stable_span_bounds, thom_polynomials
from .errors import ExpressionError, FoldcheckError, SchemaError
from .expressions import parse_expression
from .tristate import P1Data

__all__ = ["main"]


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="foldcheck",
        description="Characteristic-class obstructions to the existence of fold maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, manifold: bool = True) -> None:
        if manifold:
            p.add_argument("manifold", help="catalog expression or path to a JSON document")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_inv = sub.add_parser("invariants", help="print characteristic-class invariants")
    add_common(p_inv)

    p_dec = sub.add_parser("decide", help="decide existence of a (tame) fold map")
    add_common(p_dec)
    p_dec.add_argument("--target", required=True, help="R<p> | sphere:<p> | self | pullback:<file>")
    p_dec.add_argument("--tame", action="store_true", help="ask about tame fold maps")
    p_dec.add_argument("--explain", action="store_true", help="also print the invariants consulted")

    p_thom = sub.add_parser("thom", help="evaluate the Thom polynomial table (dims 4-7)")
    add_common(p_thom)
    p_thom.add_argument("--target", help="optional target for the virtual difference")

    p_span = sub.add_parser("span", help="stable span bounds")
    add_common(p_span)

    p_cat = sub.add_parser("catalog", help="list catalog atoms and operators")
    add_common(p_cat, manifold=False)

    return parser


# ---------------------------------------------------------------------------
# input loading


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise SchemaError("document nests too deeply") from None


def _resolve_manifold(text: str) -> Manifold:
    """A catalog expression, else an existing regular file read as a document.

    The expression comes first, so a file or directory in the working
    directory never shadows a catalog atom (``./K3`` still names a file).
    When neither applies, the expression error is reported.
    """
    try:
        return parse_expression(text)
    except ExpressionError:
        if not os.path.isfile(text):
            raise
    return load_manifold(_load_json(text))


def _target_dim(raw: str) -> Optional[int]:
    """``raw`` as a positive integer in ASCII digits, or None; ``isdecimal`` passes any script's."""
    return int(raw) if raw.isascii() and raw.isdecimal() and int(raw) >= 1 else None


def _parse_target(text: str, m: Manifold, parser: _ArgumentParser) -> TargetSpec:
    if text == "self":
        return TargetSpec.pullback(m.dim, tangent_descriptor(m))
    if text.startswith("pullback:"):
        descriptor = load_descriptor(_load_json(text[len("pullback:"):]), m.algebra)
        return TargetSpec.pullback(m.dim, descriptor)
    if text.startswith("sphere:"):
        p = _target_dim(text[len("sphere:"):])
        if p is None:
            parser.error(f"invalid sphere target {text!r}")
        if p > m.dim:
            parser.error(f"target dimension {p} exceeds dim M = {m.dim}")
        return TargetSpec.sphere(p)
    p = _target_dim(text[1:]) if text.startswith("R") else None
    if p is not None:
        if p > m.dim:
            parser.error(f"target dimension {p} exceeds dim M = {m.dim}")
        return TargetSpec.euclidean(p)
    parser.error(f"unrecognized target {text!r} (expected R<p>, sphere:<p>, self, or pullback:<file>)")
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# rendering


def _p1_json(p1: P1Data):
    return p1.value.value if p1.number is None else {"int": p1.number}


def _coords(x: ClassZ2) -> List[int]:
    return [x.bits >> i & 1 for i in range(x.algebra.rank(x.degree))]


def _total_json(total: TotalClass) -> dict:
    return {
        "rendered": str(total),
        "components": [_coords(total.component(d)) for d in range(total.algebra.top_degree + 1)],
    }


def _trace_json(verdictlike) -> List[dict]:
    return [
        {"rule": e.rule, "citation": e.citation, "obstruction": e.obstruction, "value": e.value}
        for e in verdictlike.trace
    ]


def _trace_lines(trace, outcome: Optional[Outcome] = None) -> List[str]:
    lines = [f"[{e.citation}] {e.value}" for e in trace]
    if outcome is not None and lines:
        lines[-1] = f"{lines[-1]} => {outcome.render()}"
    return lines


def _invariant_summary(m: Manifold, indent: str = "") -> List[str]:
    flags = structure_flags(m)
    sigma = "none" if m.signature is None else str(m.signature)
    return [
        f"{indent}chi = {m.euler}",
        f"{indent}sigma = {sigma}",
        f"{indent}orientable = {str(m.orientable).lower()}",
        f"{indent}spin = {str(flags.spin).lower()}",
        f"{indent}pin = {str(flags.pin).lower()}",
        f"{indent}stably parallelizable = {str(m.stably_parallelizable).lower()}",
        f"{indent}w = {m.w}",
        f"{indent}wu = {m.wu}",
        f"{indent}wbar = {m.wbar}",
        f"{indent}p1 = {m.p1}",
        f"{indent}W3 = {str(m.w3_twisted).capitalize()} ({m.w3_twisted.note})",
    ]


def _run_invariants(m: Manifold, fmt: str) -> str:
    if fmt == "json":
        flags = structure_flags(m)
        payload = {
            "name": m.name,
            "dim": m.dim,
            "euler": m.euler,
            "signature": m.signature,
            "orientable": m.orientable,
            "spin": flags.spin,
            "pin": flags.pin,
            "stably_parallelizable": m.stably_parallelizable,
            "w": _total_json(m.w),
            "wu": _total_json(m.wu),
            "wbar": _total_json(m.wbar),
            "p1": _p1_json(m.p1),
            "w3_twisted": {"status": str(m.w3_twisted), "note": m.w3_twisted.note},
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"M = {m.name}  (dim {m.dim})"]
    lines.extend(_invariant_summary(m))
    lines.append("w components:")
    for d in range(m.dim + 1):
        lines.append(f"  w_{d} = {_coords(m.w.component(d))}")
    return "\n".join(lines) + "\n"


def _run_decide(m: Manifold, target: TargetSpec, tame: bool, fmt: str, explain: bool) -> str:
    verdict = decide_fold(m, target, tame)
    if fmt == "json":
        payload = {
            "manifold": m.name,
            "dim": m.dim,
            "target": target.label,
            "tame": tame,
            "verdict": verdict.outcome.value,
            "trace": _trace_json(verdict),
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [
        f"M = {m.name}  (dim {m.dim})",
        f"target = {target.label}",
        f"mode = {'tame fold' if tame else 'fold'}",
    ]
    if explain:
        lines.append("invariants consulted:")
        lines.extend(_invariant_summary(m, indent="  "))
    lines.extend(_trace_lines(verdict.trace, verdict.outcome))
    return "\n".join(lines) + "\n"


def _run_thom(m: Manifold, target: Optional[TargetSpec], fmt: str) -> str:
    difference = target.descriptor if target is not None and target.kind == "pullback" else None
    table = thom_polynomials(m, difference)
    if fmt == "json":
        payload = {
            "manifold": m.name,
            "dim": table.dim,
            "entries": [
                {"name": e.name, "degree": e.degree, "value": e.value, "vanishes": e.vanishes}
                for e in table.entries
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"M = {m.name}  (dim {m.dim})"]
    for e in table.entries:
        status = "unknown" if e.vanishes is None else ("zero" if e.vanishes else "nonzero")
        lines.append(f"{e.name} (deg {e.degree}) = {e.value}  [{status}]")
    return "\n".join(lines) + "\n"


def _run_span(m: Manifold, fmt: str) -> str:
    bounds = stable_span_bounds(m)
    if fmt == "json":
        payload = {
            "manifold": m.name,
            "dim": m.dim,
            "lower": bounds.lower,
            "upper": bounds.upper,
            "trace": _trace_json(bounds),
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [
        f"M = {m.name}  (dim {m.dim})",
        f"stable span bounds: lower = {bounds.lower}, upper = {bounds.upper}",
    ]
    lines.extend(_trace_lines(bounds.trace))
    return "\n".join(lines) + "\n"


_CATALOG_ATOMS = [
    ("S<n>", "sphere", "n >= 0"),
    ("RP<n>", "real projective space", "n >= 1"),
    ("CP<n>", "complex projective space", "n >= 1"),
    ("CP2~", "CP2 with the reversed orientation", ""),
    ("K3", "the K3 surface", ""),
    ("Sigma<g>", "orientable surface of genus g", "g >= 0"),
    ("N<k>", "non-orientable surface with k cross-caps", "k >= 1"),
]

_CATALOG_OPERATORS = [
    ("A # B", "connected sum (equal dimensions, dim >= 1)"),
    ("A x B", "cartesian product"),
    ("k # A", "k-fold connected sum, k >= 1"),
]


def _run_catalog(fmt: str) -> str:
    if fmt == "json":
        payload = {
            "atoms": [
                {"token": t, "description": d, "constraint": c} for t, d, c in _CATALOG_ATOMS
            ],
            "operators": [{"form": f, "description": d} for f, d in _CATALOG_OPERATORS],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = ["catalog atoms:"]
    for token, description, constraint in _CATALOG_ATOMS:
        suffix = f"  ({constraint})" if constraint else ""
        lines.append(f"  {token:<9} {description}{suffix}")
    lines.append("operators:")
    for form, description in _CATALOG_OPERATORS:
        lines.append(f"  {form:<9} {description}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _dispatch(args, parser: _ArgumentParser) -> str:
    if args.command == "catalog":
        return _run_catalog(args.format)
    m = _resolve_manifold(args.manifold)
    if args.command == "invariants":
        return _run_invariants(m, args.format)
    if args.command == "span":
        return _run_span(m, args.format)
    if args.command == "thom":
        target = _parse_target(args.target, m, parser) if args.target else None
        return _run_thom(m, target, args.format)
    target = _parse_target(args.target, m, parser)
    return _run_decide(m, target, args.tame, args.format, args.explain)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        output = _dispatch(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"foldcheck: error: invalid JSON document: {exc}\n")
        return 2
    except FoldcheckError as exc:
        sys.stderr.write(f"foldcheck: error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"foldcheck: error: {exc}\n")
        return 2
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
