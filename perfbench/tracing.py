"""Per-layer spans, recorded from the benchmark's own files.

``Tracer.install`` wraps the covered functions of towerdecomp in place: each
name is patched in its defining module and in every towerdecomp module that
bound the same object with ``from .x import f``.  Function-local imports
resolve through the defining module, so they see the wrapper too.  Calls to
sympy's ``PolyElement.cancel``, through which every ``FracElement`` is
normalized, are counted and charged to the innermost open span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

from sympy.polys.rings import PolyElement

# layer (module of towerdecomp) -> covered functions
COVERED = {
    "tower": ["Tower.diff", "Tower.validate_s_primitive", "normalize_generators"],
    "arith": [
        "substitute", "squarefree_decomposition", "unipoly_gcd", "unipoly_xgcd",
        "unipoly_resultant", "split_proper_poly", "solve_linear_system",
    ],
    "matryoshka": ["project_value", "head_data_value", "order_key_value", "is_simple_value"],
    "hermite": ["hermite_reduce_proper_value", "_hermite_core"],
    "decomp": ["add_decomp_in_field", "solve_constant_combination_values", "_is_remainder_value"],
    "elem": ["elementary_integrability", "_residue_analysis", "_witness_from_roots"],
    "embed": ["normalize_tower", "embed_well_generated", "apply_homomorphism"],
    "exprio": ["parse_tower_file", "parse_expression", "render_expression"],
    "cli": ["main"],
}
NAMES = [f"{layer}.{fn}" for layer, fns in COVERED.items() for fn in fns]

SOLVER = "decomp.solve_constant_combination_values"
VERDICT = "elem.elementary_integrability"
ADD_DECOMP = "decomp.add_decomp_in_field"
ORDER_KEY = "matryoshka.order_key_value"
HEAD_DATA = "matryoshka.head_data_value"

# span fields
NAME, START, END, PARENT, REQUEST, CANCELS, OUTCOME = range(7)


def _outcome(name, result):
    if name == SOLVER:
        return result is not None
    if name == VERDICT:
        return result.status
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self.loose_cancels = {}  # request -> cancels made with no span open
        self._patched = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, 0.0, 0.0, parent, tracer.request, 0, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[OUTCOME] = _outcome(name, result)
                return result
            finally:
                span[END] = time.perf_counter()
                tracer.stack.pop()

        return traced

    def _counting_cancel(self, fn):
        tracer = self

        @functools.wraps(fn)
        def cancel(*args, **kwargs):
            if tracer.stack:
                tracer.spans[tracer.stack[-1]][CANCELS] += 1
            else:
                loose = tracer.loose_cancels
                loose[tracer.request] = loose.get(tracer.request, 0) + 1
            return fn(*args, **kwargs)

        return cancel

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        for layer in COVERED:
            importlib.import_module(f"towerdecomp.{layer}")
        modules = [m for n, m in sys.modules.items() if n == "towerdecomp" or n.startswith("towerdecomp.")]
        for layer, fns in COVERED.items():
            mod = sys.modules[f"towerdecomp.{layer}"]
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(mod, cls_name)
                    self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
                    continue
                orig = getattr(mod, fn)
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, wrapper)
        self._patch(PolyElement, "cancel", self._counting_cancel(PolyElement.cancel))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []


def layer_metrics(spans, loose_cancels, excluded=frozenset()):
    """Per-layer metrics of one traced pass.  Spans of excluded requests (those that
    timed out or failed) are left out, so that the counts repeat exactly."""
    keep = [i for i, s in enumerate(spans) if s[REQUEST] not in excluded]
    child = [0.0] * len(spans)
    for i in keep:
        s = spans[i]
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    agg = {n: [0, 0.0, 0] for n in NAMES}
    for i in keep:
        s = spans[i]
        a = agg[s[NAME]]
        a[0] += 1
        a[1] += s[END] - s[START] - child[i]
        a[2] += s[CANCELS]
    out = {}
    for n, (calls, self_s, cancels) in agg.items():
        out[f"{n}.calls"] = calls
        out[f"{n}.self_s"] = self_s
        out[f"{n}.cancels"] = cancels

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else None

    adds = [i for i in keep if spans[i][NAME] == ADD_DECOMP]
    loop_passes = {i for i in keep if spans[i][NAME] == ORDER_KEY and parent_name(i) == ADD_DECOMP}
    head = [
        i for i in keep
        if spans[i][NAME] == HEAD_DATA
        and (parent_name(i) == ADD_DECOMP or spans[i][PARENT] in loop_passes)
    ]
    solver = [spans[i][OUTCOME] for i in keep if spans[i][NAME] == SOLVER]
    verdicts = [spans[i][OUTCOME] for i in keep if spans[i][NAME] == VERDICT]
    out["decomp.passes_per_request"] = len(loop_passes) / len(adds) if adds else 0.0
    out["matryoshka.head_data_per_pass"] = len(head) / len(loop_passes) if loop_passes else 0.0
    out["decomp.solver_hit_ratio"] = sum(solver) / len(solver) if solver else 0.0
    for status in ("yes", "no", "undecided"):
        out[f"elem.verdicts.{status}"] = verdicts.count(status)
    loose = sum(c for r, c in loose_cancels.items() if r not in excluded)
    out["trace.cancels_total"] = sum(spans[i][CANCELS] for i in keep) + loose
    return out
