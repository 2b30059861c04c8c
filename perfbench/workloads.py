"""The workloads of the towerdecomp benchmark.

Every workload is a fixed pool of requests drawn once from POOL_SEED, so each
request has a committed digest of its exact answer in ``digests.json``; a
pool drawn from another seed is checked by the oracle alone.  The
run's ``--seed`` draws the order in which the one closed-loop client visits
the pool (``Workload.passes``).  Towers are written as text specs so that the
oracle can rebuild their derivations without towerdecomp.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import sympy
import towerdecomp as td

import oracle

POOL_SEED = 20250825
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench_work")  # tower files of cli-cold

# The paper's towers (tests/conftest.py and tests/test_embed.py).  A generator
# is (name, "log", [(argument, exponent), ...]) or (name, "prim", derivative).
LI = ("x", [
    ("t1", "log", [("x", 1)]),
    ("t2", "prim", "1/t1"),
    ("t3", "log", [("t1", 1)]),
])
NESTED = ("x", [
    ("t1", "log", [("x", 1)]),
    ("t2", "log", [("x", 1), ("t1", 1)]),
    ("t3", "log", [("x + 1", 1), ("t1 + 1", 1), ("t2", 1)]),
])
U = ("x", [
    ("u1", "log", [("x", 1)]),
    ("u2", "log", [("x + 1", 1)]),
    ("u3", "log", [("u1", 1)]),
])
COUPLED = ("x", [
    ("t1", "log", [("x", 1)]),
    ("t2", "log", [("t1", 1)]),
    ("t3", "log", [("x + 1", 1), ("t1", 1)]),
])
PAPER_TOWERS = {"li": LI, "nested": NESTED, "u": U, "coupled": COUPLED}
README_EXPR = "1/(t1*t2) + (t2 - 2*x*t1)/t1**2 + t3"


# -- towers and elements ----------------------------------------------------


def build_tower(spec):
    """The validated tower of a spec; arguments are read by sympy."""
    base, gens = spec
    b = td.TowerBuilder([g[0] for g in gens], base_name=base)
    for _, kind, payload in gens:
        if kind == "log":
            b.log(td.FormalProduct([(element(b.F, t), e) for t, e in payload]))
        else:
            b.prim(element(b.F, payload))
    T = b.build()
    T.ensure_s_primitive()
    return T


def element(F, text):
    """The element of the field F that sympy reads from text."""
    return F.from_expr(sympy.sympify(text, locals={str(v): v for v in F.symbols}))


def random_element(T, rng, max_terms=3, max_exp=2, coeff_range=5):
    """Sparse numerator over a sparse denominator, as in tests/conftest.py."""
    gens = list(T.gens)

    def poly(allow_zero):
        out = T.F.zero
        for _ in range(rng.randint(1, max_terms)):
            c = rng.randint(-coeff_range, coeff_range)
            if not c:
                continue
            term = T.F.one * c
            for g in rng.sample(gens, rng.randint(0, min(2, len(gens)))):
                term *= g ** rng.randint(1, max_exp)
            out += term
        if not allow_zero and not out:
            out = T.F.one
        return out

    return poly(True) / poly(False)


def random_log_tower(rng, n):
    """(spec, tower) of a random S-primitive logarithmic tower with n
    generators, drawn as tests/conftest.py's random_log_tower draws it."""
    while True:
        gens = []
        for i in range(n):
            choices = ["x", "x + 1", "x + 2", "x**2 + 1", "2*x + 3"]
            for name, _, _ in gens:
                choices += [name, f"{name} + 1", f"{name} + x"]
            factors = rng.sample(choices, rng.randint(1, min(2, len(choices))))
            gens.append((f"t{i + 1}", "log", [(f, rng.choice([1, 1, 2])) for f in factors]))
        spec = ("x", gens)
        try:
            return spec, build_tower(spec)
        except td.TowerNotSPrimitive:
            continue


def text(value, power="**"):
    """Canonical text of a field element, readable by sympy (and by the
    towerdecomp CLI with power="^")."""
    names = [str(s) for s in value.field.symbols]

    def poly(p):
        terms = []
        for mono, c in sorted(p.terms()):
            factors = [f"{int(c.numerator)}/{int(c.denominator)}"]
            factors += [f"{n}{power}{e}" for n, e in zip(names, mono) if e]
            terms.append("*".join(factors))
        return " + ".join(terms) or "0"

    return f"({poly(value.numer)})/({poly(value.denom)})"


def gens_of(T):
    """A tower's generators in spec form, read back from the program."""
    out = []
    for g in T.generators:
        if g.kind == "log":
            out.append((g.name, "log", [(text(b), str(e)) for b, e in g.argument.factors]))
        else:
            out.append((g.name, "prim", text(g.derivative)))
    return out


# -- requests ----------------------------------------------------------------


@dataclass
class Request:
    key: str
    call: Callable[[], object]  # the timed work
    answer: Callable[[object], dict]  # rendered answer; its sha256 is the digest
    check: Callable[[dict, dict], str | None]  # oracle: (answer, all answers)
    after: str | None = None  # key of a request that must complete first in the pass


@dataclass
class Workload:
    name: str
    requests: list
    groups: list  # lists of request indices, visited as units

    def passes(self, seed):
        """Endless passes over the pool, each visiting the groups in a fresh
        permutation drawn from the seed."""
        rng = random.Random(seed)
        while True:
            order = rng.sample(self.groups, len(self.groups))
            yield [self.requests[i] for group in order for i in group]


def singletons(requests):
    return [[i] for i in range(len(requests))]


def decomp_request(key, T, D, f):
    f_text = text(f)
    return Request(
        key,
        lambda: td.add_decomp_in_field(T.element(f)),
        lambda dec: {"g": text(dec.g.value), "r": text(dec.r.value)},
        lambda ans, _: oracle.check_decomposition(D, f_text, ans["g"], ans["r"]),
    )


def integrate_request(key, T, D, f):
    """integrate_in_field(f'); the oracle differentiates f itself."""
    fp = T.diff(f)
    f_text = text(f)

    def answer(res):
        anti = res.antiderivative
        return {
            "integral": text(anti.value) if anti is not None else None,
            "remainder": text(res.certificate.value),
        }

    def check(ans, _):
        if ans["integral"] is None:
            return "derivative reported not integrable"
        if not oracle.is_zero(oracle.add(D(D.parse(ans["integral"])), oracle.neg(D(D.parse(f_text))))):
            return "integral' != f'"
        return None

    return Request(key, lambda: td.integrate_in_field(T.element(fp)), answer, check)


def elementary_request(key, T, D, f):
    f_text = text(f)

    def answer(v):
        return {
            "status": v.status,
            "g": text(v.decomposition.g.value),
            "r": text(v.decomposition.r.value),
            "span": [str(c) for c in v.span_coeffs],
            "witness": [[str(c), text(a.value)] for c, a in v.witness],
            "certificate": text(v.certificate.value) if v.certificate is not None else None,
        }

    return Request(
        key,
        lambda: td.elementary_integrability(T.element(f)),
        answer,
        lambda ans, _: oracle.check_elementary(D, f_text, ans),
    )


OPS = {"decomp": decomp_request, "integrate": integrate_request, "elementary": elementary_request}


# -- paper-mix ------------------------------------------------------------------

PAPER_MIX_PER_TOWER = 30


def paper_mix_setup(pool_seed):
    return {name: build_tower(spec) for name, spec in PAPER_TOWERS.items()}


def paper_mix(towers, pool_seed):
    rng = random.Random(pool_seed)
    li = towers["li"]
    readme = element(li.F, README_EXPR)
    items = [("li", "readme", readme)]
    for name, T in towers.items():
        items += [(name, f"e{i:02d}", random_element(T, rng)) for i in range(PAPER_MIX_PER_TOWER)]
    requests = []
    derivations = {name: oracle.Derivation.from_gens(*spec) for name, spec in PAPER_TOWERS.items()}
    for k, (name, tag, f) in enumerate(items):
        op = list(OPS)[k % len(OPS)]
        requests.append(OPS[op](f"{name}/{tag}/{op}", towers[name], derivations[name], f))
    return Workload("paper-mix", requests, singletons(requests))


# -- embed-finer -------------------------------------------------------------

EMBED_RANDOM_TOWERS = (2, 3, 4)  # generator counts
EMBED_ELEMENTS = 8
NESTED_ELEMENTS = 25  # the stream of test_homomorphism_commutes_with_derivation


def embed_finer_setup(pool_seed):
    rng = random.Random(pool_seed)
    towers = {"nested": (NESTED, build_tower(NESTED))}
    for k, n in enumerate(EMBED_RANDOM_TOWERS):
        towers[f"r{k}n{n}"] = random_log_tower(rng, n)
    return towers


def embed_finer(towers, pool_seed):
    """Per tower, one embedding request, then element requests that use it.

    The nested tower's elements are those of
    test_homomorphism_commutes_with_derivation, and as there each image is
    differentiated in the target; element 22 is the known 31 s Tower.diff.
    The random towers' elements take the `towerdecomp embed --expr` path:
    the image is decomposed in the target.
    """
    requests, groups = [], []
    for name, (spec, T) in towers.items():
        nested = name == "nested"
        rng = random.Random(pool_seed if nested else f"{pool_seed}/{name}")
        count = NESTED_ELEMENTS if nested else EMBED_ELEMENTS
        elements = [random_element(T, rng) for _ in range(count)]
        embed_key = f"{name}/embed"
        state = {}
        group = [len(requests)]
        requests.append(embed_request(embed_key, T, spec[0], state))
        for i, f in enumerate(elements):
            group.append(len(requests))
            op = "derivative" if nested else "decomp"
            requests.append(element_request(f"{name}/e{i:02d}/{op}", op, embed_key, state, f, spec[0]))
        groups.append(group)
    return Workload("embed-finer", requests, groups)


def embed_request(key, T, base, state):
    """normalize_tower then embed_well_generated; later element requests of
    the tower use the embedding."""

    def call():
        state.pop("E", None)  # element requests never see an earlier pass's embedding
        normalized, _ = td.normalize_tower(T)
        state["E"] = td.embed_well_generated(normalized)
        return state["E"]

    def answer(E):
        return {
            "normalized": gens_of(E.source),
            "target": gens_of(E.target),
            "images": {g.name: text(img.value) for g, img in zip(E.source.generators, E.images)},
            "ell": list(E.ell),
        }

    def check(ans, _):
        source = oracle.Derivation.from_gens(base, ans["normalized"])
        target = oracle.Derivation.from_gens(base, ans["target"])
        return oracle.check_commutation(source, target, ans["images"])

    return Request(key, call, answer, check)


def element_request(key, op, embed_key, state, f, base):
    """apply_homomorphism, then add_decomp_in_field ("decomp") or the
    derivation ("derivative") in the target tower.  The request runs only
    after its tower's embedding request completed in the same pass."""
    f_text = text(f)

    def call():
        E = state["E"]
        # the element is read by generator name in the normalized tower, as
        # `towerdecomp embed --expr` reads it
        image = td.apply_homomorphism(E, E.source.element(f.set_field(E.source.F)))
        if op == "decomp":
            return image, td.add_decomp_in_field(image)
        return image, td.differentiate(image)

    def answer(res):
        image, out = res
        if op == "decomp":
            return {"image": text(image.value), "g": text(out.g.value), "r": text(out.r.value)}
        return {"image": text(image.value), "derivative": text(out.value)}

    def check(ans, answers):
        emb = answers[embed_key]
        source = oracle.Derivation.from_gens(base, emb["normalized"])
        target = oracle.Derivation.from_gens(base, emb["target"])
        why = oracle.check_image(source, f_text, target, emb["images"], ans["image"])
        if why or op == "decomp":
            return why or oracle.check_decomposition(target, ans["image"], ans["g"], ans["r"])
        image = target.parse(ans["image"])
        if not oracle.is_zero(oracle.add(target(image), oracle.neg(target.parse(ans["derivative"])))):
            return "derivative of the image is wrong"
        return None

    return Request(key, call, answer, check, after=embed_key)


# -- degree-ladder -------------------------------------------------------------

LADDER_TOWERS = {"li": LI, "u": U}
LADDER_Q = {"linear": "t3 + x", "quadratic": "t3**2 + t1*t3 + x"}
LADDER_K = 3


def degree_ladder_setup(pool_seed):
    return {name: build_tower(spec) for name, spec in LADDER_TOWERS.items()}


def degree_ladder(towers, pool_seed):
    requests = []
    for name, T in towers.items():
        D = oracle.Derivation.from_gens(*LADDER_TOWERS[name])
        rename = dict(zip(["t1", "t2", "t3"], T.names[1:]))
        for qname, q in LADDER_Q.items():
            for k in range(1, LADDER_K + 1):
                f_src = re.sub(r"t\d", lambda m: rename[m.group(0)], f"(t2 + x)/({q})**{k}")
                f = element(T.F, f_src)
                for op in ("decomp", "elementary"):
                    requests.append(OPS[op](f"{name}/{qname}/k{k}/{op}", T, D, f))
    return Workload("degree-ladder", requests, singletons(requests))


# -- cli-cold ------------------------------------------------------------------

CLI_EXPRS_PER_TOWER = 2


def cli_command(args, trace_path=None):
    """argv of one cold CLI run, from the checkout root."""
    if trace_path is None:
        return [sys.executable, "-m", "towerdecomp.cli"] + args
    launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_launcher.py")
    return [sys.executable, launcher, trace_path] + args


def tower_file(spec):
    base, gens = spec
    lines = [f"var {base}"]
    for name, kind, payload in gens:
        if kind == "log":
            arg = "*".join(f"({t})^{e}" if e != 1 else f"({t})" for t, e in payload)
            lines.append(f"gen {name} : log({arg.replace('**', '^')})")
        else:
            lines.append(f"gen {name} : prim {payload.replace('**', '^')}")
    return "\n".join(lines) + "\n"


def parse_tower_text(text_):
    """(base, gens) of a rendered tower file, in spec form for the oracle."""
    base, gens = None, []
    for line in text_.splitlines():
        if line.startswith("var "):
            base = line[4:].strip()
        elif line.startswith("gen "):
            name, rest = [s.strip() for s in line[4:].split(":", 1)]
            rest = rest.replace("^", "**")
            if rest.startswith("log"):
                gens.append((name, "log", [(rest[3:], 1)]))
            else:
                gens.append((name, "prim", rest[4:]))
    return base, gens


def cli_request(key, args):
    """One `towerdecomp <args> --json` run in a fresh interpreter.  The time
    limit's SIGALRM interrupts the wait, and subprocess.run then kills and
    reaps the child."""

    def call(trace_path=None):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        return subprocess.run(
            cli_command(args + ["--json"], trace_path),
            capture_output=True, text=True, env=env, cwd=WORKDIR,
        )

    def answer(proc):
        return {"exit": proc.returncode, "stdout": proc.stdout}

    def check(ans, _):
        if ans["exit"] != 0:
            return f"exit code {ans['exit']}"
        payload = json.loads(ans["stdout"])
        D = oracle.Derivation.from_gens(*parse_tower_text(payload["tower"]))
        cmd = args[0]
        if cmd == "decomp":
            return oracle.check_decomposition(D, fix(payload["input"]), fix(payload["g"]), fix(payload["r"]))
        if cmd == "integrate" and payload["integrable"]:
            return oracle.check_antiderivative(D, fix(payload["input"]), fix(payload["integral"]))
        if cmd == "embed":
            target = oracle.Derivation.from_gens(*parse_tower_text(payload["target"]))
            images = {n: fix(t) for n, t in payload["images"].items()}
            why = oracle.check_commutation(D, target, images)
            if why or "image" not in payload:
                return why
            return oracle.check_decomposition(target, fix(payload["image"]), fix(payload["g"]), fix(payload["r"]))
        if cmd == "matrix":
            for k, name in enumerate(D.names[1:], start=1):
                column = [D.parse(fix(row[k - 1])) for row in payload["matrix"]]
                if not oracle.is_zero(oracle.total(*column, oracle.neg(D.derivative(k)))):
                    return f"matrix column {name} does not sum to {name}'"
        if cmd == "check" and not payload["s_primitive"]:
            return "paper tower reported not S-primitive"
        return None

    return Request(key, call, answer, check)


def fix(s):
    return s.replace("^", "**")


def cli_cold_setup(pool_seed):
    os.makedirs(WORKDIR, exist_ok=True)
    for name, spec in PAPER_TOWERS.items():
        with open(os.path.join(WORKDIR, f"{name}.tower"), "w", encoding="utf-8") as fh:
            fh.write(tower_file(spec))
    return {name: build_tower(spec) for name, spec in PAPER_TOWERS.items()}


def cli_cold(towers, pool_seed):
    """The README's six commands, then per tower two random expressions
    through decomp, integrate and elementary in turn."""
    readme = README_EXPR.replace("**", "^")
    commands = [
        ["decomp", "--tower", "li.tower", "--expr", readme],
        ["integrate", "--tower", "li.tower", "--expr", "1/x"],
        ["elementary", "--tower", "li.tower", "--expr", readme],
        ["embed", "--tower", "nested.tower", "--expr", "t3/x", "--matrix"],
        ["matrix", "--tower", "li.tower"],
        ["check", "--tower", "li.tower"],
    ]
    keys = [f"readme/{c[0]}" for c in commands]
    rng = random.Random(pool_seed)
    ops = ("decomp", "integrate", "elementary")
    for name, T in towers.items():
        for i in range(CLI_EXPRS_PER_TOWER):
            op = ops[len(commands) % len(ops)]
            expr = text(random_element(T, rng), power="^")
            commands.append([op, "--tower", f"{name}.tower", "--expr", expr])
            keys.append(f"{name}/e{i}/{op}")
    requests = [cli_request(k, c) for k, c in zip(keys, commands)]
    return Workload("cli-cold", requests, singletons(requests))


# name -> (set-up, pool built from the set-up's towers, per-request limit in
# whole seconds); set-up and pool take the seed the pool is drawn from.  Each
# limit sits in the widest gap of the workload's request times at the parent
# commit, as recorded in digests.json ("parent_s").
WORKLOADS = {
    "paper-mix": (paper_mix_setup, paper_mix, 4),
    "embed-finer": (embed_finer_setup, embed_finer, 1),
    "degree-ladder": (degree_ladder_setup, degree_ladder, 1),
    "cli-cold": (cli_cold_setup, cli_cold, 10),
}
