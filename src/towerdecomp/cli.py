"""Command-line front end.

Exit codes: 0 success, 1 parse error, 2 validation error, 3 internal
verification failure.  Every printed decomposition has been verified by
exact differentiation in ``add_decomp_in_field`` before output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import substitute
from .decomp import add_decomp_in_field, integrate_in_field
from .elem import YES, elementary_integrability
from .embed import (
    apply_homomorphism,
    associated_matrix,
    embed_well_generated,
    is_well_generated,
    normalization_images,
    normalize_tower,
)
from .errors import (
    ExprSyntaxError,
    InternalVerificationError,
    TowerDecompError,
)
from .exprio import (
    parse_expression,
    parse_tower_file,
    render_expression,
    render_latex,
    render_matrix_latex,
    render_tower_file,
)
from .tower import normalize_generators


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="towerdecomp",
        description="Additive decomposition and integrability in "
        "primitive differential towers over Q(x).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_expr in [
        ("decomp", True),
        ("integrate", True),
        ("elementary", True),
        ("embed", False),
        ("matrix", False),
        ("check", False),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--tower", required=True, help="tower file path")
        p.add_argument(
            "--expr",
            required=needs_expr,
            default=None,
            help="expression over the tower variables",
        )
        p.add_argument("--json", action="store_true", dest="as_json")
        p.add_argument("--latex", action="store_true", dest="as_latex")
        p.add_argument(
            "--normalize",
            action="store_true",
            help="shift generators to simple derivatives before validating",
        )
        if name == "embed":
            p.add_argument(
                "--matrix",
                action="store_true",
                dest="show_matrix",
                help="also print both associated matrices",
            )
    return parser


def _load_tower(args, out):
    """(tower, read): the tower of the file, shifted when --normalize is
    given, and read(expr), which parses an expression in the file's tower,
    so that it means what the user wrote, and maps it into that tower.  The
    shift replaced t_i by u_i = t_i - shift_i, so t_i goes to u_i + shift_i.
    """
    with open(args.tower, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ExprSyntaxError(
                f"{args.tower}: not UTF-8 text (byte {exc.start})"
            ) from None
    user = parse_tower_file(text)
    tower, images = user, None
    if args.normalize:
        tower, shifts = normalize_generators(user)
        images = [tower.gens[0]] + [tower.gens[i] + shift for i, shift in shifts]
        for i, shift in shifts:
            if shift:
                out.append(
                    f"shift {tower.names[i]}: "
                    f"{render_expression(shift, tower.names)}"
                )

    def read(expr):
        f = parse_expression(expr, user)
        if images is None:
            return f
        return tower.element(substitute(f.value, tower.F, images))

    return tower, read


def _render(value, T, latex=False):
    return (render_latex if latex else render_expression)(value, T.names)


def _matrix_rows(matrix):
    """The rendered entries of an associated matrix, one list per row, and
    the plain-text line of each row."""
    T = matrix.tower
    rows = [
        [
            render_expression(matrix.entry(i, j).value, T.names)
            for j in range(1, T.n + 1)
        ]
        for i in range(T.n)
    ]
    return rows, ["[ " + ", ".join(row) + " ]" for row in rows]


def _emit(lines, payload, args):
    if args.as_json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))


def _cmd_decomp(args):
    out = []
    T, read = _load_tower(args, out)
    T.ensure_s_primitive()
    f = read(args.expr)
    dec = add_decomp_in_field(f)
    integrable = not dec.r
    out += [
        f"g = {_render(dec.g.value, T, args.as_latex)}",
        f"r = {_render(dec.r.value, T, args.as_latex)}",
        f"integrable: {'yes' if integrable else 'no'}",
    ]
    payload = {
        "tower": render_tower_file(T),
        "input": render_expression(f.value, T.names),
        "g": render_expression(dec.g.value, T.names),
        "r": render_expression(dec.r.value, T.names),
        "integrable": integrable,
        "verified": True,
    }
    _emit(out, payload, args)
    return 0


def _cmd_integrate(args):
    out = []
    T, read = _load_tower(args, out)
    T.ensure_s_primitive()
    f = read(args.expr)
    res = integrate_in_field(f)
    if res.integrable:
        out.append(f"integral = {_render(res.antiderivative.value, T, args.as_latex)}")
    else:
        out.append("not integrable in the tower")
        out.append(f"remainder = {_render(res.certificate.value, T, args.as_latex)}")
    payload = {
        "tower": render_tower_file(T),
        "input": render_expression(f.value, T.names),
        "integrable": res.integrable,
        "integral": render_expression(res.antiderivative.value, T.names)
        if res.integrable
        else None,
        "remainder": render_expression(res.certificate.value, T.names),
        "verified": True,
    }
    _emit(out, payload, args)
    return 0


def _cmd_elementary(args):
    out = []
    T, read = _load_tower(args, out)
    T.ensure_s_primitive()
    f = read(args.expr)
    verdict = elementary_integrability(f)
    out.append(f"elementary: {verdict.status}")
    witness_payload = []
    if verdict.status == YES:
        for j, c in enumerate(verdict.span_coeffs):
            if c:
                out.append(f"  {c} * {T.names[j + 1]}")
        for c, arg in verdict.witness:
            out.append(f"  {c} * log({_render(arg.value, T, args.as_latex)})")
            witness_payload.append(
                {
                    "coefficient": str(c),
                    "argument": render_expression(arg.value, T.names),
                }
            )
    elif verdict.reason:
        out.append(f"reason: {verdict.reason}")
        if verdict.certificate is not None:
            out.append(
                "certificate (non-constant residue): "
                f"{_render(verdict.certificate.value, T, args.as_latex)}"
            )
    payload = {
        "tower": render_tower_file(T),
        "input": render_expression(f.value, T.names),
        "status": verdict.status,
        "witness": witness_payload,
        "span_coeffs": [str(c) for c in verdict.span_coeffs],
        "reason": verdict.reason,
    }
    _emit(out, payload, args)
    return 0


def _cmd_embed(args):
    out = []
    T, read = _load_tower(args, out)
    T.ensure_s_primitive()
    normalized, change_log = normalize_tower(T)
    if change_log:
        out.append(f"normalization steps: {len(change_log)}")
    emb = embed_well_generated(normalized)
    if emb.w == normalized.n and all(
        emb.images[j].value == emb.target.gens[j + 1] for j in range(normalized.n)
    ):
        out.append("already well generated; identity embedding")
    out.append(render_tower_file(emb.target).rstrip())
    images_payload = {}
    for j, img in enumerate(emb.images):
        name = normalized.names[j + 1]
        rendered = render_expression(img.value, emb.target.names)
        out.append(f"phi({name}) = {rendered}")
        images_payload[name] = rendered
    if getattr(args, "show_matrix", False):
        for tower in (normalized, emb.target):
            matrix = associated_matrix(tower)
            if args.as_latex:
                out.append(render_matrix_latex(matrix))
            else:
                out += _matrix_rows(matrix)[1] + [""]
    payload = {
        "tower": render_tower_file(normalized),
        "target": render_tower_file(emb.target),
        "w": emb.w,
        "ell": list(emb.ell),
        "images": images_payload,
    }
    if args.expr is not None:
        f = read(args.expr)
        f = normalized.element(
            substitute(f.value, normalized.F, normalization_images(normalized, change_log))
        )
        image = apply_homomorphism(emb, f)
        dec = add_decomp_in_field(image)
        tgt = emb.target
        out.append(f"phi(f) = {_render(image.value, tgt, args.as_latex)}")
        out.append(f"g = {_render(dec.g.value, tgt, args.as_latex)}")
        out.append(f"r = {_render(dec.r.value, tgt, args.as_latex)}")
        payload.update(
            {
                "input": render_expression(f.value, normalized.names),
                "image": render_expression(image.value, tgt.names),
                "g": render_expression(dec.g.value, tgt.names),
                "r": render_expression(dec.r.value, tgt.names),
                "verified": True,
            }
        )
    _emit(out, payload, args)
    return 0


def _cmd_matrix(args):
    out = []
    T, _ = _load_tower(args, out)
    matrix = associated_matrix(T)
    rows, lines = _matrix_rows(matrix)
    out += [render_matrix_latex(matrix)] if args.as_latex else lines
    payload = {"tower": render_tower_file(T), "matrix": rows}
    _emit(out, payload, args)
    return 0


def _cmd_check(args):
    out = []
    T, _ = _load_tower(args, out)
    result = T.validate_s_primitive()
    if result.ok:
        out.append("S-primitive: yes")
    else:
        out.append(f"S-primitive: no ({result.reason})")
        if result.certificate is not None:
            out.append(f"dependence certificate: {result.certificate}")
    well = None
    if result.ok and T.is_logarithmic:
        ok, why = is_well_generated(T)
        well = ok
        out.append(f"well generated: {'yes' if ok else 'no (' + why + ')'}")
    payload = {
        "tower": render_tower_file(T),
        "s_primitive": result.ok,
        "reason": result.reason,
        "certificate": [str(c) for c in result.certificate]
        if result.certificate
        else None,
        "well_generated": well,
    }
    _emit(out, payload, args)
    return 0


_COMMANDS = {
    "decomp": _cmd_decomp,
    "integrate": _cmd_integrate,
    "elementary": _cmd_elementary,
    "embed": _cmd_embed,
    "matrix": _cmd_matrix,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ExprSyntaxError as exc:
        where = f" at offset {exc.offset}" if exc.offset is not None else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalVerificationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except TowerDecompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
