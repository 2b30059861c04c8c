"""The benchmark's committed answers, checked in the test suite.

``perfbench/digests.json`` holds the sha256 of every pool request's exact
answer that finished when the digests were recorded.  This rebuilds the
paper-mix, embed-finer and degree-ladder pools from
``perfbench/workloads.py`` in this process, runs every request that has a
committed digest (every degree-ladder rung but
``u/quadratic/k3/elementary``, which timed out when the digests were
recorded) and compares each answer's digest with the committed one.  A speedup that changes an
answer then fails here, not only when the benchmark runs.  Nothing under
``perfbench/`` is written.
"""

import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    keys = {k for k, e in table.items() if "sha256" in e}
    setup, pool, _ = workloads.WORKLOADS[name]
    wl = pool(setup(workloads.POOL_SEED), workloads.POOL_SEED)
    # pool order: each embedding request runs before its tower's elements
    got = {r.key: run.digest(r.answer(r.call())) for r in wl.requests if r.key in keys}
    assert len(got) == len(keys) > 0
    assert got == {k: table[k]["sha256"] for k in keys}
