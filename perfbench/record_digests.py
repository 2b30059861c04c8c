"""Record the digest and the time of every pool request of the benchmark.

    python3 perfbench/record_digests.py [workload ...]

Runs each request of each named workload (all of them by default) once, in
pool order, with a limit of CALIBRATION_LIMIT_S seconds, checks every answer
with the oracle, and rewrites those workloads' entries in digests.json.  The
recorded times are what the per-request limits in workloads.py were chosen
from.  Run it only when the program's answers are meant to change.
"""

from __future__ import annotations

import json
import os
import sys

import run

CALIBRATION_LIMIT_S = 120


def main(names):
    import workloads

    for name in names or list(workloads.WORKLOADS):
        setup, pool, _ = workloads.WORKLOADS[name]
        wl = pool(setup(workloads.POOL_SEED), workloads.POOL_SEED)
        table, answers, done = {}, {}, []
        for req in wl.requests:
            status, latency, _, result = run.run_request(req, CALIBRATION_LIMIT_S)
            entry = {"status": status, "parent_s": round(latency, 4)}
            if status == "ok":
                answers[req.key] = req.answer(result)
                entry["sha256"] = run.digest(answers[req.key])
                done.append(req)
            elif status == "error":
                raise SystemExit(f"{name}/{req.key} raised {result}")
            table[req.key] = entry
            print(name, req.key, status, f"{latency:.3f}", flush=True)
        for req in done:
            why = req.check(answers[req.key], answers)
            if why:
                raise SystemExit(f"{name}/{req.key}: oracle rejects the answer: {why}")
        digests = {}
        if os.path.exists(run.DIGESTS):
            with open(run.DIGESTS, encoding="utf-8") as fh:
                digests = json.load(fh)
        digests[name] = table
        with open(run.DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    run.import_program()
    main(sys.argv[1:])
