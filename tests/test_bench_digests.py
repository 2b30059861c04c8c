"""The benchmark's committed answers, checked in the test suite.

``perfbench/digests.json`` holds the sha256 of every pool request's exact
answer.  This rebuilds the paper-mix and embed-finer pools, the
degree-ladder rungs that took under 0.1 s when the digests were recorded,
and the slower rungs named in ``SLOW_RUNGS``, which run the residue
resultant (``prem`` and the subresultant PRS) on larger operands, from
``perfbench/workloads.py`` in this process, and compares each answer's
digest with the committed one.  A speedup that changes an answer then fails
here, not only when the benchmark runs.  Nothing under ``perfbench/`` is
written.
"""

import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FAST_RUNG_S = 0.1
# recorded above FAST_RUNG_S but finishing today: the two quadratic k3
# decompositions (about 0.3 s together, since their reconstruction check
# differentiates g over L*D*R, not L*D^2) and every other rung but the two
# quadratic k3 elementary ones, which take seconds each
SLOW_RUNGS = {
    "li/linear/k3/decomp",
    "li/linear/k3/elementary",
    "li/quadratic/k2/decomp",
    "li/quadratic/k2/elementary",
    "li/quadratic/k3/decomp",
    "u/linear/k2/elementary",
    "u/linear/k3/decomp",
    "u/linear/k3/elementary",
    "u/quadratic/k2/decomp",
    "u/quadratic/k2/elementary",
    "u/quadratic/k3/decomp",
}


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
        run = importlib.import_module("run")
    committed = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
    return workloads, run, committed


@pytest.mark.parametrize("name", ["paper-mix", "embed-finer", "degree-ladder"])
def test_answers_match_committed_digests(name, bench):
    workloads, run, committed = bench
    table = committed[name]
    if name == "degree-ladder":
        keys = {k for k, e in table.items() if e["status"] == "ok" and e["parent_s"] < FAST_RUNG_S}
        keys |= SLOW_RUNGS
    else:
        keys = set(table)
    setup, pool, _ = workloads.WORKLOADS[name]
    wl = pool(setup(workloads.POOL_SEED), workloads.POOL_SEED)
    # pool order: each embedding request runs before its tower's elements
    got = {r.key: run.digest(r.answer(r.call())) for r in wl.requests if r.key in keys}
    assert len(got) == len(keys) > 0
    assert got == {k: table[k]["sha256"] for k in keys}
