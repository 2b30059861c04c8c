"""Command-line front end.

Exit codes: 0 success, 1 parse, file or usage error, 2 validation error, 3
internal verification failure or a heuristic gcd that found no evaluation
point.  Every printed decomposition has been
verified piece by piece in ``add_decomp_in_field`` before output, taking
Hermite reduction's identity for its pieces as given.

Every command runs one path: load the tower, validate it, read ``--expr``,
run the command, emit its lines or its JSON payload.  A command that runs a
layer beyond ``decomp`` (``elem`` or ``embed``, and no other) imports it
itself.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import substitute
from .decomp import add_decomp_in_field, integrate_in_field
from .errors import (
    ExprSyntaxError,
    HeuristicGCDFailed,
    InternalVerificationError,
    TowerDecompError,
)
from .exprio import (
    parse_expression,
    parse_tower_file,
    render_expression,
    render_latex,
    render_tower_file,
)
from .tower import normalize_generators


def _load_tower(args, out):
    """(tower, read): the tower of the file, shifted when --normalize is
    given, and read(expr), which parses an expression in the file's tower,
    so that it means what the user wrote, and maps it into that tower.  The
    shift replaced t_i by u_i = t_i - shift_i, so t_i goes to u_i + shift_i.
    """
    with open(args.tower, "r", encoding="utf-8") as fh:
        try:
            # the mark goes after decoding, so offsets count from the file's start
            text = fh.read().removeprefix("\ufeff")
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


def _shown(value, T, latex):
    """The value as its output line shows it, LaTeX or plain text."""
    return (render_latex if latex else render_expression)(value, T.names)


def _render(value, T, latex):
    """(shown, text): the value as its output line shows it (``_shown``)
    and as plain text for ``--json``; without LaTeX both are the one
    rendering."""
    text = render_expression(value, T.names)
    return (_shown(value, T, latex) if latex else text), text


def _decomp(T, f, args, read):
    dec = add_decomp_in_field(f)
    integrable = not dec.r
    g_shown, g = _render(dec.g.value, T, args.as_latex)
    r_shown, r = _render(dec.r.value, T, args.as_latex)
    lines = [f"g = {g_shown}", f"r = {r_shown}"]
    lines.append(f"integrable: {'yes' if integrable else 'no'}")
    return lines, {"g": g, "r": r, "integrable": integrable, "verified": True}


def _integrate(T, f, args, read):
    res = integrate_in_field(f)
    integral = None
    if res.integrable:
        g_shown, integral = _render(res.antiderivative.value, T, args.as_latex)
        lines = [f"integral = {g_shown}"]
        remainder = "0"
    else:
        r_shown, remainder = _render(res.certificate.value, T, args.as_latex)
        lines = ["not integrable in the tower", f"remainder = {r_shown}"]
    return lines, {
        "integrable": res.integrable,
        "integral": integral,
        "remainder": remainder,
        "verified": True,
    }


def _elementary(T, f, args, read):
    from .elem import YES, elementary_integrability

    verdict = elementary_integrability(f)
    lines = [f"elementary: {verdict.status}"]
    witness = []
    if verdict.status == YES:
        for j, c in enumerate(verdict.span_coeffs):
            if c:
                lines.append(f"  {c} * {T.names[j + 1]}")
        for c, arg in verdict.witness:
            shown, text = _render(arg.value, T, args.as_latex)
            lines.append(f"  {c} * log({shown})")
            witness.append({"coefficient": str(c), "argument": text})
    elif verdict.reason:
        lines.append(f"reason: {verdict.reason}")
        if verdict.certificate is not None:
            shown = _shown(verdict.certificate.value, T, args.as_latex)
            lines.append(f"certificate (non-constant coefficient of the residue polynomial): {shown}")
    return lines, {
        "status": verdict.status,
        "witness": witness,
        "span_coeffs": [str(c) for c in verdict.span_coeffs],
        "reason": verdict.reason,
    }


def _embed(T, f, args, read):
    from .embed import (
        apply_homomorphism,
        embed_well_generated,
        normalization_images,
        normalize_tower,
    )

    normalized, change_log = normalize_tower(T)
    lines = [f"normalization steps: {len(change_log)}"] if change_log else []
    emb = embed_well_generated(normalized)
    tgt = emb.target
    if emb.w == normalized.n and all(
        emb.images[j].value == tgt.gens[j + 1] for j in range(normalized.n)
    ):
        lines.append("already well generated; identity embedding")
    lines.append(render_tower_file(tgt).rstrip())
    images = {}
    for j, img in enumerate(emb.images):
        name = normalized.names[j + 1]
        images[name] = render_expression(img.value, tgt.names)
        lines.append(f"phi({name}) = {images[name]}")
    if args.show_matrix:
        for tower in (normalized, tgt):
            # a blank line closes each plain matrix, not the LaTeX one
            lines += _matrix(tower, None, args, None)[0] + ([] if args.as_latex else [""])
    # the payload reports the normalized tower in place of T
    fields = {
        "tower": render_tower_file(normalized),
        "target": render_tower_file(tgt),
        "w": emb.w,
        "ell": list(emb.ell),
        "images": images,
    }
    if args.expr is not None:
        images_of_file = normalization_images(normalized, change_log)
        f = normalized.element(
            substitute(read(args.expr).value, normalized.F, images_of_file)
        )
        image = apply_homomorphism(emb, f)
        dec = add_decomp_in_field(image)
        image_shown, image_text = _render(image.value, tgt, args.as_latex)
        g_shown, g = _render(dec.g.value, tgt, args.as_latex)
        r_shown, r = _render(dec.r.value, tgt, args.as_latex)
        lines += [f"phi(f) = {image_shown}", f"g = {g_shown}", f"r = {r_shown}"]
        fields.update(
            input=render_expression(f.value, normalized.names),
            image=image_text,
            g=g,
            r=r,
            verified=True,
        )
    return lines, fields


def _matrix(T, f, args, read):
    """The associated matrix of T, printed in plain text or LaTeX; the
    payload holds its entries in plain text."""
    from .embed import associated_matrix

    M = associated_matrix(T)
    cells = [[M.entry(i, j).value for j in range(1, T.n + 1)] for i in range(T.n)]
    pairs = [[_render(v, T, args.as_latex) for v in row] for row in cells]
    rows = [[text for _, text in row] for row in pairs]
    if not args.as_latex:
        return ["[ " + ", ".join(row) + " ]" for row in rows], {"matrix": rows}
    body = " \\\\\n".join(" & ".join(shown for shown, _ in row) for row in pairs)
    return [f"\\begin{{pmatrix}}\n{body}\n\\end{{pmatrix}}"], {"matrix": rows}


def _check(T, f, args, read):
    from .embed import is_well_generated

    result = T.validate_s_primitive()
    certificate = None
    if result.ok:
        lines = ["S-primitive: yes"]
    else:
        lines = [f"S-primitive: no ({result.reason})"]
        if result.certificate is not None:
            certificate = [str(c) for c in result.certificate]
            lines.append(f"dependence certificate: {', '.join(certificate)}")
    well = None
    if result.ok and T.is_logarithmic:
        well, why = is_well_generated(T)
        lines.append(f"well generated: {'yes' if well else 'no (' + why + ')'}")
    return lines, {
        "s_primitive": result.ok,
        "reason": result.reason,
        "certificate": certificate or None,
        "well_generated": well,
    }


# name -> (command, validate the tower first, read --expr first).  A command
# takes the tower, the element read from --expr or None, the arguments and
# the reader, and returns its printed lines and its payload fields.  --expr
# is required exactly where the pipeline reads it.
_COMMANDS = {
    "decomp": (_decomp, True, True),
    "integrate": (_integrate, True, True),
    "elementary": (_elementary, True, True),
    "embed": (_embed, True, False),
    "matrix": (_matrix, False, False),
    "check": (_check, False, False),
}

# exception -> (exit code, message prefix); the most specific class decides
_EXITS = {
    ExprSyntaxError: (1, "error"),
    OSError: (1, "error"),
    InternalVerificationError: (3, "internal error"),
    HeuristicGCDFailed: (3, "internal error"),
    TowerDecompError: (2, "error"),
}


def _parse(argv):
    """The arguments of the command line argv, read by one parser: --expr is
    required where the command reads it, and --matrix is ``embed``'s alone."""
    parser = argparse.ArgumentParser(
        prog="towerdecomp",
        description="Additive decomposition and integrability in "
        "primitive differential towers over Q(x).",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--tower", required=True, help="tower file path")
    parser.add_argument("--expr", help="expression over the tower variables")
    parser.add_argument("--json", action="store_true", dest="as_json")
    parser.add_argument("--latex", action="store_true", dest="as_latex")
    parser.add_argument(
        "--normalize",
        action="store_true",
        help="shift generators to simple derivatives before validating",
    )
    parser.add_argument(
        "--matrix",
        action="store_true",
        dest="show_matrix",
        help="embed only: also print both associated matrices",
    )
    # each "--expr", v pair is passed as "--expr=v", so that an expression
    # that starts with "-" is not taken for an option
    folded, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg == "--expr" else None
        folded.append(arg if value is None else f"--expr={value}")
    args = parser.parse_args(folded)
    if args.expr == []:  # argparse drops a lone "--" from an option's value
        args.expr = "--"
    if args.expr is None and _COMMANDS[args.command][2]:
        parser.error("the following arguments are required: --expr")
    if args.show_matrix and args.command != "embed":
        parser.error(f"argument --matrix: embed takes it, not {args.command}")
    return args


def _run(args):
    command, validates, reads = _COMMANDS[args.command]
    out = []
    T, read = _load_tower(args, out)
    if validates:
        T.ensure_s_primitive()
    f = read(args.expr) if reads else None
    lines, fields = command(T, f, args, read)
    if args.as_json:
        head = {"tower": render_tower_file(T)}
        if f is not None:
            head["input"] = render_expression(f.value, T.names)
        # a command's own "tower" keeps the key's place and replaces the value
        print(json.dumps({**head, **fields}, indent=2))
    else:
        print("\n".join(out + lines))


def main(argv=None) -> int:
    # printed results keep every digit; the parser caps constants itself
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
    try:
        _run(_parse(sys.argv[1:] if argv is None else argv))
        return 0
    except SystemExit as exc:  # argparse has printed the usage or the help
        return 1 if exc.code else 0
    except tuple(_EXITS) as exc:
        code, prefix = next(_EXITS[k] for k in type(exc).__mro__ if k in _EXITS)
        offset = getattr(exc, "offset", None)
        where = f" at offset {offset}" if offset is not None else ""
        print(f"{prefix}: {exc}{where}", file=sys.stderr)
        return code
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
