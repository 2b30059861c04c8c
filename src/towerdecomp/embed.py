"""Embedding a logarithmic tower into a well-generated one.

The associated matrix collects the projections of the generator derivatives;
its last nonzero column entries (the significant components) drive two
constructions: normalization, which eliminates constant-linear dependences
among significant components and reorders generators until the significant
vector is monotone, and the embedding proper, which scans the matrix for a
Q-linearly independent basis b_1, ..., b_w and builds a target tower with
one generator per basis element, so that every column of the target's
matrix has exactly one nonzero entry.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import free_of, ground, substitute
from .decomp import solve_constant_combination_values
from .errors import (
    InternalVerificationError,
    NotLogarithmic,
    PreconditionCLIMI,
)
from .matryoshka import derivative_projections, project_value
from .tower import (
    LOG,
    PRIM,
    FormalProduct,
    Record,
    Tower,
    TowerBuilder,
    TowerElement,
    _prefix_tower,
)


class AssociatedMatrix(Record):
    """The ``tower`` and its ``entries``, rows 0..n-1 of tuples: entry
    (i, j-1) is projection i of t_j'."""

    __slots__ = ("tower", "entries")

    def entry(self, i, j):
        """Row i (0-based level), column j (1-based generator)."""
        return self.entries[i][j - 1]


class SignificantData(Record):
    """``sv``, the significant index of each generator derivative, and
    ``sc``, the projection of t_j' at level sv_j as a TowerElement."""

    __slots__ = ("sv", "sc")


class Embedding(Record):
    """phi from ``source`` into ``target``.  ``basis`` holds b_1..b_w as
    TowerElements of the source; ``ell_j`` is the 1-based basis index of
    sc_j, strictly increasing; ``coeffs`` per generator j the tuple of
    c_{j,k} for k < ell_j; and ``images`` phi(t_j) as TowerElements of the
    target."""

    __slots__ = ("source", "target", "basis", "ell", "coeffs", "images")

    @property
    def w(self):
        return len(self.basis)


def associated_matrix(T: Tower) -> AssociatedMatrix:
    """Grid of projections of the generator derivatives."""
    cols, _ = derivative_projections(T)
    rows = tuple(
        tuple(TowerElement(cols[j][i], T) for j in range(T.n))
        for i in range(T.n)
    )
    return AssociatedMatrix(T, rows)


def significant_data(T: Tower) -> SignificantData:
    cols, sv = derivative_projections(T)
    sc = (TowerElement(col[level], T) for col, level in zip(cols, sv))
    return SignificantData(tuple(sv), tuple(sc))


def _scan_significant(T: Tower, cols, sv):
    """First obstacle to well-generation among the significant components.

    Returns (j, coeffs) for the first generator index j (0-based) whose
    significant component is the constant combination coeffs of the earlier
    ones; failing that (j, None) for the first j where the significant
    vector decreases; None when there is neither.
    """
    sc = [col[level] for col, level in zip(cols, sv)]
    for j in range(1, T.n):
        coeffs = solve_constant_combination_values(T.F, sc[j], sc[:j])
        if coeffs is not None:
            return j, coeffs
    for j in range(1, T.n):
        if sv[j] < sv[j - 1]:
            return j, None
    return None


def is_well_generated(T: Tower):
    """(ok, failing condition): Q-linear independence of the significant
    components, monotone significant vector, one nonzero entry per column."""
    cols, sv = derivative_projections(T)
    found = _scan_significant(T, cols, sv)
    if found is not None:
        j, coeffs = found
        if coeffs is not None:
            return False, (
                f"significant component of generator {j + 1} depends on "
                "earlier ones"
            )
        return False, f"significant vector decreases at generator {j + 1}"
    for j, col in enumerate(cols, start=1):
        count = sum(1 for i in range(T.n) if col[i])
        if count != 1:
            return False, f"column {j} has {count} nonzero entries, expected 1"
    return True, ""


def _require_logarithmic(T: Tower):
    if not T.is_logarithmic:
        raise NotLogarithmic("every generator must be logarithmic")


def _rebuild(names, args, base_name):
    builder = TowerBuilder(names, base_name=base_name)
    values = list(builder.F.gens)
    for arg in args:
        builder.log(arg.substitute(builder.F, values))
    return builder.build()


def normalize_tower(T: Tower):
    """Rearrange a logarithmic tower until its significant components are
    Q-linearly independent and its significant vector is monotone.  Returns
    the new tower and a change log of ("eliminate", j, coeffs) and
    ("swap", j) steps.  The significant vector strictly decreases
    lexicographically at every step, which guarantees termination."""
    _require_logarithmic(T)
    T.ensure_s_primitive()
    change_log = []
    current = T
    prev_sv = None
    while True:
        cols, sv = derivative_projections(current)
        if prev_sv is not None and not sv < prev_sv:
            raise InternalVerificationError(
                "significant vector failed to decrease"
            )
        prev_sv = sv
        found = _scan_significant(current, cols, sv)
        if found is None:
            break
        j, coeffs = found
        names = [g.name for g in current.generators]
        args = [g.argument for g in current.generators]
        if coeffs is not None:
            # replace t_{j+1} by t_{j+1} - sum(c_k t_k); on arguments this is
            # division by the corresponding powers
            for k, c in enumerate(coeffs):
                if c:
                    args[j] = args[j].combine(args[k], -c)
            step = ("eliminate", j + 1, tuple(coeffs))
        else:
            names[j - 1], names[j] = names[j], names[j - 1]
            args[j - 1], args[j] = args[j], args[j - 1]
            # the swapped arguments live in the old coordinates; positions of
            # the two generators trade places in the field as well
            perm = list(current.F.gens)
            perm[j], perm[j + 1] = perm[j + 1], perm[j]
            args = [a.substitute(current.F, perm) for a in args]
            step = ("swap", j)
        current = _rebuild(names, args, current.names[0])
        current.ensure_s_primitive()
        change_log.append(step)
    return current, change_log


def normalization_images(normalized: Tower, change_log):
    """The images in ``normalized`` of x, t_1, ..., t_n of the tower that
    ``normalize_tower`` rewrote into it, a differential homomorphism.

    An ("eliminate", j, coeffs) step replaced t_j by t_j - sum(c_k t_k), so
    the old t_j goes to t_j + sum(c_k t_k); a ("swap", j) step exchanged the
    generators at positions j and j + 1.  Both are linear, so the composite
    sends each old generator to a rational combination of the new ones.
    """
    n = normalized.n
    # rows[i][k]: coefficient of the current t_{k+1} in the image of t_{i+1}
    rows = [[Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    for step in change_log:
        if step[0] == "eliminate":
            _, j, coeffs = step
            for row in rows:
                for k, c in enumerate(coeffs):
                    row[k] += row[j - 1] * c
        else:
            j = step[1]
            for row in rows:
                row[j - 1], row[j] = row[j], row[j - 1]
    F = normalized.F
    images = [F.gens[0]]
    for row in rows:
        img = F.zero
        for k, c in enumerate(row, start=1):
            if c:
                img += ground(F, c) * F.gens[k]
        images.append(img)
    return images


def _recover_log_argument(prefix, value, level):
    """The FormalProduct argument whose logarithmic derivative is value,
    checked exactly.  value, a basis entry, is a projection of a generator
    derivative, so it is a rational combination of logarithmic derivatives
    at its level, and its residues are its coefficients."""
    from .elem import _residue_analysis, _witness_from_roots

    analysis = _residue_analysis(prefix, value, level)
    if analysis[0] == "constant":
        items, combined = _witness_from_roots(prefix, value, level, analysis[1])
        if combined == value:
            return FormalProduct([(arg, c) for c, arg in items])
    raise InternalVerificationError("basis entry is not a logarithmic derivative")


def embed_well_generated(T: Tower) -> Embedding:
    """Build a well-generated tower and a differential homomorphism into it.

    The basis is collected scanning the matrix row by row, left to right
    within a row, keeping entries that are Q-linearly independent of those
    already kept.  Each generator image is u_{ell_j} plus the constant
    combination of earlier basis generators solving t_j' in the basis."""
    _require_logarithmic(T)
    T.ensure_s_primitive()
    cols, sv = derivative_projections(T)
    found = _scan_significant(T, cols, sv)
    if found is not None:
        if found[1] is not None:
            raise PreconditionCLIMI(
                "significant components are constant-linearly dependent; "
                "run normalize_tower first"
            )
        raise PreconditionCLIMI(
            "significant vector is not monotone; run normalize_tower first"
        )
    n = T.n
    F = T.F
    basis = []
    position = {}  # (row, col) -> 1-based basis index
    for i in range(n):
        for j in range(i + 1, n + 1):
            entry = cols[j - 1][i]
            if not entry:
                continue
            coeffs = solve_constant_combination_values(F, entry, basis)
            if coeffs is None:
                basis.append(entry)
                position[(i, j)] = len(basis)
    w = len(basis)
    if not n <= w <= n * (n + 1) // 2:
        raise InternalVerificationError("basis size out of range")
    ell = []
    for j in range(1, n + 1):
        idx = position.get((sv[j - 1], j))
        if idx is None:
            raise InternalVerificationError(
                "significant component did not enter the basis"
            )
        ell.append(idx)
    # a tower with no generators has the identity embedding, w = 0
    if ell and (ell[0] != 1 or ell[-1] != w or any(
        a >= b for a, b in zip(ell, ell[1:])
    )):
        raise InternalVerificationError("basis positions are not staircase")
    coeffs_per_gen = []
    for j in range(1, n + 1):
        lj = ell[j - 1]
        rest = T.derivs[j - 1] - basis[lj - 1]
        c = solve_constant_combination_values(F, rest, basis[: lj - 1])
        if c is None:
            raise InternalVerificationError(
                "generator derivative not spanned by earlier basis entries"
            )
        coeffs_per_gen.append(tuple(c))

    target_names = [f"u{k}" for k in range(1, w + 1)]
    builder = TowerBuilder(target_names, base_name=T.names[0])
    Ft = builder.F
    # phi(t_j) = u_{ell_j} + sum of c_{j,k} u_k
    images = []
    for j in range(1, n + 1):
        img = Ft.gens[ell[j - 1]]
        for k, c in enumerate(coeffs_per_gen[j - 1], start=1):
            if c:
                img += ground(Ft, c) * Ft.gens[k]
        images.append(img)
    sub_values = [Ft.gens[0]] + images
    target_specs = []
    prefix_specs = []  # PRIM-only view for differentiating during the build
    for k in range(1, w + 1):
        val = substitute(basis[k - 1], Ft, sub_values)
        if not free_of(val, range(k, w + 1)):
            raise InternalVerificationError(
                "target derivative involves later generators"
            )
        prefix = _prefix_tower([T.names[0]] + target_names, prefix_specs, Ft)
        level = max(
            (i for i, p in enumerate(project_value(prefix, val)) if p),
            default=0,
        )
        target_specs.append((LOG, _recover_log_argument(prefix, val, level)))
        prefix_specs.append((PRIM, val))
    target = Tower(Ft, [T.names[0]] + target_names, target_specs)
    target.ensure_s_primitive()
    ok, why = is_well_generated(target)
    if not ok:
        raise InternalVerificationError(f"target not well generated: {why}")
    # the homomorphism must commute with the derivations on every generator
    for j in range(1, n + 1):
        lhs = target.diff(images[j - 1])
        rhs = substitute(T.derivs[j - 1], Ft, sub_values)
        if lhs != rhs:
            raise InternalVerificationError(
                "homomorphism does not commute with derivation"
            )
    return Embedding(
        source=T,
        target=target,
        basis=tuple(TowerElement(b, T) for b in basis),
        ell=tuple(ell),
        coeffs=tuple(coeffs_per_gen),
        images=tuple(TowerElement(i, target) for i in images),
    )


def apply_homomorphism(E: Embedding, f: TowerElement) -> TowerElement:
    """Image of a source element under the embedding."""
    Ft = E.target.F
    values = [Ft.gens[0]] + [img.value for img in E.images]
    return TowerElement(substitute(f.value, Ft, values), E.target)
