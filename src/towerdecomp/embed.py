"""Embedding a logarithmic tower into a well-generated one.

The associated matrix collects the projections of the generator derivatives;
its last nonzero column entries (the significant components) drive two
constructions: normalization, which eliminates constant-linear dependences
among significant components and reorders generators until the significant
vector is monotone, each step a change of generators that keeps the tower
the user's up to a checked differential isomorphism, and the embedding
proper, which scans the matrix for a Q-linearly independent basis b_1, ...,
b_w and builds a target tower with one generator per basis element, so that
every column of the target's matrix has exactly one nonzero entry.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import free_of, make_field, substitute
from .decomp import solve_constant_combination_values
from .errors import (
    InternalVerificationError,
    NotLogarithmic,
    PreconditionCLIMI,
)
from .matryoshka import derivative_projections
from .tower import (
    LOG,
    FormalProduct,
    Record,
    Tower,
    TowerElement,
    change_generators,
    expect,
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
    if not expect(T, Tower).is_logarithmic:
        raise NotLogarithmic("every generator must be logarithmic")


def _step_values(F, step):
    """The image in F, the field after ``step``, of x and of each generator
    before it: an ("eliminate", j, coeffs) step replaced t_j by t_j -
    sum(c_k t_k), so the old t_j goes to t_j + sum(c_k t_k); a ("swap", j)
    step exchanged the generators at positions j and j + 1."""
    values = list(F.gens)
    if step[0] == "eliminate":
        _, j, coeffs = step
        for k, c in enumerate(coeffs, start=1):
            if c:
                values[j] += F.ground(c) * F.gens[k]
    else:
        j = step[1]
        values[j], values[j + 1] = values[j + 1], values[j]
    return values


def normalize_tower(T: Tower):
    """Rearrange a logarithmic tower until its significant components are
    Q-linearly independent and its significant vector is monotone.  Returns
    the new tower and a change log of ("eliminate", j, coeffs) and
    ("swap", j) steps.  The significant vector strictly decreases
    lexicographically at every step, which guarantees termination.  Each
    step is one ``change_generators`` by ``_step_values``, and the images of
    T's generators are checked to commute with the derivations."""
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
        names = list(current.names)
        args = [g.argument for g in current.generators]
        if coeffs is not None:
            # replace t_{j+1} by t_{j+1} - sum(c_k t_k); on arguments this is
            # division by the corresponding powers
            for k, c in enumerate(coeffs):
                if c:
                    args[j] = args[j].combine(args[k], -c)
            step = ("eliminate", j + 1, tuple(coeffs))
        else:
            names[j], names[j + 1] = names[j + 1], names[j]
            args[j - 1], args[j] = args[j], args[j - 1]
            step = ("swap", j)
        F, _ = make_field(names)
        current = change_generators([(LOG, a) for a in args], F, _step_values(F, step))
        _require_built_s_primitive(current, "rebuilt tower")
        change_log.append(step)
    if change_log:
        _require_commuting(T, current, normalization_images(current, change_log), "normalization")
    return current, change_log


def normalization_images(normalized: Tower, change_log):
    """The images in ``normalized`` of x, t_1, ..., t_n of the tower that
    ``normalize_tower`` rewrote into it, a differential isomorphism: the
    steps' ``_step_values`` composed by substitution, by position in the
    field of ``normalized``, which every step's field permutes."""
    F = normalized.F
    images = list(F.gens)
    for step in change_log:
        values = _step_values(F, step)
        images = [substitute(img, F, values) for img in images]
    return images


def _recover_log_argument(T, value, level):
    """The FormalProduct argument whose logarithmic derivative is value,
    checked exactly in the source T.  value, a basis entry, is a projection
    of a generator derivative, so it is a rational combination of logarithmic
    derivatives at its own row's level, and its residues are its
    coefficients; ``embed_well_generated`` maps the argument by phi."""
    from .elem import _residue_analysis, _witness_from_roots

    analysis = _residue_analysis(T, value, level)
    if analysis[0] == "constant":
        items, combined = _witness_from_roots(T, value, level, analysis[1])
        if combined == value:
            return FormalProduct([(arg, c) for c, arg in items])
    raise InternalVerificationError("basis entry is not a logarithmic derivative")


def _require_built_s_primitive(T, what):
    """A tower built here from a validated one fails validation only by a bug."""
    result = T.validate_s_primitive()
    if not result.ok:
        raise InternalVerificationError(f"{what} is not S-primitive: {result.reason}")


def _require_commuting(T, target, values, what):
    """values, the images in ``target`` of x, t_1, ..., t_n of T, must commute
    with the derivations on every t_j, and then by the Leibniz rule on all
    of T's field."""
    for img, d in zip(values[1:], T.derivs):
        if target.diff(img) != substitute(d, target.F, values):
            raise InternalVerificationError(f"{what} does not commute with derivation")


def embed_well_generated(T: Tower) -> Embedding:
    """Build a well-generated tower and a differential homomorphism into it.

    The basis is collected scanning the matrix row by row, left to right
    within a row, keeping entries that are Q-linearly independent of those
    already kept.  The scan also yields each entry's coordinates, the
    solver's coefficients or a new element's unit vector, whose column sums
    are t_j' over the basis; each element's source row; and ell_j, the index
    of entry (sv_j, j).  Rows above sv_j are zero and rows below it come
    before b_{ell_j}, so t_j' = b_{ell_j} + sum of c_{j,k} b_k, k < ell_j,
    and phi(t_j) = u_{ell_j} + sum of c_{j,k} u_k.  The log argument of b_k
    is found in the source, at the level of b_k's row, and mapped by phi; the
    target, the one tower built, names its generators u1..uw, or v1..vw when
    the base variable is one of u1..uw."""
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
    basis, rows, ell = [], [], [None] * n  # b_k and its source row
    # t_j' over b_1, b_2, ...: at most one basis element per entry i < j
    coords = [[Fraction(0)] * (n * (n + 1) // 2) for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n + 1):
            entry = cols[j - 1][i]
            if not entry:
                continue
            c = solve_constant_combination_values(T.F, entry, basis)
            if c is None:
                c = [0] * len(basis) + [1]
                basis.append(entry)
                rows.append(i)
                if i == sv[j - 1]:
                    ell[j - 1] = len(basis)
            for k, ck in enumerate(c):
                coords[j - 1][k] += ck
    w = len(basis)
    if not n <= w <= n * (n + 1) // 2:
        raise InternalVerificationError("basis size out of range")
    if None in ell:
        raise InternalVerificationError(
            "significant component did not enter the basis"
        )
    # a tower with no generators has the identity embedding, w = 0
    if ell and (ell[0] != 1 or ell[-1] != w or any(
        a >= b for a, b in zip(ell, ell[1:])
    )):
        raise InternalVerificationError("basis positions are not staircase")
    coeffs_per_gen = [tuple(vec[: lj - 1]) for vec, lj in zip(coords, ell)]

    prefix = "v" if T.names[0] in {f"u{k}" for k in range(1, w + 1)} else "u"
    names = [T.names[0]] + [f"{prefix}{k}" for k in range(1, w + 1)]
    Ft, _ = make_field(names)
    images = []
    for lj, coeffs in zip(ell, coeffs_per_gen):
        img = Ft.gens[lj]
        for k, c in enumerate(coeffs, start=1):
            if c:
                img += Ft.ground(c) * Ft.gens[k]
        images.append(img)
    sub_values = [Ft.gens[0]] + images
    args = [
        _recover_log_argument(T, b, i).substitute(Ft, sub_values)
        for b, i in zip(basis, rows)
    ]
    for k, arg in enumerate(args, start=1):
        if not all(free_of(f, range(k, w + 1)) for f, _ in arg.factors):
            raise InternalVerificationError("target argument involves later generators")
    target = Tower(Ft, [(LOG, arg) for arg in args])
    _require_built_s_primitive(target, "target")
    ok, why = is_well_generated(target)
    if not ok:
        raise InternalVerificationError(f"target not well generated: {why}")
    # commuting on all of phi(K) gives u_k' = phi(b_k)
    _require_commuting(T, target, sub_values, "homomorphism")
    return Embedding(
        source=T,
        target=target,
        basis=tuple(TowerElement(b, T) for b in basis),
        ell=tuple(ell),
        coeffs=tuple(coeffs_per_gen),
        images=tuple(TowerElement(i, target) for i in images),
    )


def apply_homomorphism(E: Embedding, f: TowerElement) -> TowerElement:
    """Image of a source element under the embedding, f as read by
    ``E.source.element``: another tower's element is a TypeError, and so is
    an E that is not an ``Embedding``."""
    Ft = expect(E, Embedding).target.F
    values = [Ft.gens[0]] + [img.value for img in E.images]
    return TowerElement(substitute(E.source.element(f).value, Ft, values), E.target)
