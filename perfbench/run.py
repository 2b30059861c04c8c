"""The towerdecomp benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (or, with ``all``, each workload in turn) from the root of
a checkout, against the sources in ``src/``.  One closed-loop client sends
the next request only when the previous one has returned.  Every answer is
checked against its committed digest and, outside the timed loop, by an
independent sympy oracle.  Times are rescaled to a fixed machine speed
(speed.py).  The last line of standard output is one JSON object; the exit
code is 1 when any answer was wrong.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_PROBES = 7
NPROC = len(os.sched_getaffinity(0))


def pin_to_one_cpu():
    """Keep this process, and the interpreters it starts, on one CPU: the one
    where the reference computation runs fastest now, the least contended.
    The CPUs of the shared VM change speed independently of each other, so
    the speed samples around a request (speed.py) only describe it when both
    run on the same CPU."""
    times = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        times[cpu] = statistics.median(speed.sample() for _ in range(5))
    os.sched_setaffinity(0, {min(times, key=times.get)})


class RequestTimeout(BaseException):
    """Raised by SIGALRM inside a request; BaseException so that no
    ``except Exception`` in the program can swallow it."""


def _alarm(signum, frame):
    raise RequestTimeout()


def run_request(req, limit_s, call=None):
    """(status, wall seconds, scaled seconds, result) of one request under
    the time limit.  The request starts with sympy's cache emptied and after
    a full collection, so that it neither gains from nor pays for whatever
    requests the seed put before it, and its time is rescaled to the
    reference machine speed (speed.py)."""
    # imports sympy, which setup_probe.py must time, so not at the top
    from sympy.core.cache import clear_cache

    signal.signal(signal.SIGALRM, _alarm)
    clear_cache()
    gc.collect()
    before = speed.sample()
    t0 = time.perf_counter()
    signal.alarm(limit_s)
    try:
        result = (call or req.call)()
        status = "ok"
    except RequestTimeout:
        result, status = None, "timeout"
    except Exception as exc:  # a program error is a failed request
        result, status = repr(exc), "error"
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - t0
    # the limit is wall-clock time, so a timed-out request is not rescaled
    scaled = wall if status == "timeout" else speed.scaled(wall, before)
    return status, wall, scaled, result


def digest(answer):
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()


def import_program():
    """Import towerdecomp from this checkout's src/, and nothing else."""
    sys.path.insert(0, SRC)
    try:
        import towerdecomp
    except ImportError as exc:
        raise SystemExit(f"cannot import towerdecomp from {SRC}: {exc}")

    if os.path.dirname(os.path.abspath(towerdecomp.__file__)) != os.path.join(SRC, "towerdecomp"):
        raise SystemExit(f"towerdecomp imported from {towerdecomp.__file__}, not from {SRC}")
    return towerdecomp


def probe_setup(name, pool_seed):
    """Median set-up time over SETUP_PROBES fresh interpreters, each time
    rescaled to the reference machine speed: (scaled, wall-clock) seconds."""
    times, walls = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(pool_seed)],
            capture_output=True, text=True, check=True,
        )
        wall, scaled = map(float, out.stdout.split())
        times.append(scaled)
        walls.append(wall)
    return statistics.median(times), statistics.median(walls)


class Pass:
    """One pass of the closed loop over a workload's pool."""

    def __init__(self):
        self.records = []  # (key, status, scaled latency, digest)
        self.answers = {}  # key -> rendered answer (first one seen)
        self.busy = 0.0  # scaled time spent inside requests
        self.wall = 0.0  # the same in wall-clock seconds

    def run(self, requests, limit_s, call_for=None):
        """call_for(request) gives the callable to time, by default its call.
        A request whose `after` request did not complete in this pass is
        skipped: it is neither run nor checked, and counts as not completed."""
        done = set()
        for req in requests:
            if req.after is not None and req.after not in done:
                self.records.append((req.key, "skipped", 0.0, None))
                continue
            status, wall, latency, result = run_request(req, limit_s, call_for(req) if call_for else None)
            sha = None
            if status == "ok":
                try:
                    answer = req.answer(result)
                except Exception:  # a malformed result is a failed request
                    status = "error"
                else:
                    sha = digest(answer)
                    self.answers.setdefault(req.key, answer)
                    done.add(req.key)
            self.records.append((req.key, status, latency, sha))
            self.busy += latency
            self.wall += wall
        return self


def pass_count(committed, seconds, limit_s):
    """Whole passes that fill `seconds` at the parent commit's request times.

    A fixed count, not a clock, ends the loop, so that every run makes the
    same number of requests and the tail percentile stays the same one."""
    nominal = sum(min(e["parent_s"], limit_s) for e in committed.values())
    return max(1, round(seconds / nominal))


def closed_loop(passes, count, limit_s):
    return [Pass().run(next(passes), limit_s) for _ in range(count)]


def verify(wl, done, committed):
    """Keys of requests whose answer failed its digest or the oracle."""
    by_key = {r.key: r for r in wl.requests}
    answers = {}
    for p in done:
        for key, answer in p.answers.items():
            answers.setdefault(key, answer)
    wrong = set()
    for p in done:
        for key, status, _, sha in p.records:
            expected = committed.get(key, {}).get("sha256")
            if status == "ok" and expected is not None and sha != expected:
                wrong.add(key)
    for key, answer in answers.items():
        if key not in wrong and by_key[key].check(answer, answers):
            wrong.add(key)
    return wrong


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or the maximum below 11 samples."""
    lat = sorted(latencies)
    n = len(lat)
    if not n:
        return 0.0, 0.0, 0
    beyond = 10 if n > 10 else 0
    return lat[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def end_to_end(done, wrong, setup, peak_rss_mb):
    """setup is (scaled, wall-clock) seconds, as probe_setup gives it."""
    records = [r for p in done for r in p.records]
    ok = [r for r in records if r[1] == "ok" and r[0] not in wrong]
    passes = {}
    for key, _, latency, _ in ok:
        passes.setdefault(key, []).append(latency)
    # A request's latency is the median over the passes that completed it,
    # and each of those passes is one sample of it.  A pool is small, so an
    # upper percentile falls on one or two requests, whose medians move less
    # from run to run than their single passes do.
    lat = [statistics.median(v) for v in passes.values() for _ in v]
    value, pct, beyond = tail(lat)
    busy = sum(p.busy for p in done)
    summary = {
        "setup_s": (setup[0], "s"),
        "requests_per_s": (len(ok) / busy, "1/s"),
        "latency_p50_s": (statistics.median(lat) if lat else 0.0, "s"),
        "latency_tail_s": (value, "s"),
        "failed_share": (1 - len(ok) / len(records), "1"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"{setup[1]:.6g} s wall-clock",
        "requests_per_s": f"{len(ok) / sum(p.wall for p in done):.6g} per wall-clock second",
        "latency_tail_s": f"p{pct:.2f} of {len(lat)} completed requests, {beyond} beyond it",
        "failed_share": f"{len(records) - len(ok)} of {len(records)} requests: "
        + ", ".join(f"{s} {sum(1 for r in records if r[1] == s)}" for s in ("timeout", "skipped", "error"))
        + f", wrong {sum(1 for r in records if r[0] in wrong)}",
    }
    return summary, notes


def peak_rss(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(name, seed, pool_seed, limit_s):
    import sympy
    from sympy.polys.domains import QQ

    return (
        f"workload {name}, seed {seed}, pool seed {pool_seed}, python {platform.python_version()}, "
        f"sympy {sympy.__version__}, ground type {QQ.dtype.__name__}, "
        f"nproc {NPROC}, pinned to CPU {os.sched_getaffinity(0).pop()}, limit {limit_s} s per request"
    )


def traced_pass(cli, requests, limit_s):
    """One pass with the tracer on: (pass, spans, cancels outside spans)."""
    import tracing
    import workloads

    if cli:
        files = []

        def call_for(req):
            path = os.path.join(workloads.WORKDIR, f"spans-{len(files)}.json")
            files.append((req.key, path))
            return lambda: req.call(path)

        done = Pass().run(requests, limit_s, call_for)
        spans, loose = [], {}
        for key, path in files:
            if not os.path.exists(path):  # the child was killed by the limit
                continue
            with open(path, encoding="utf-8") as fh:
                child = json.load(fh)
            offset = len(spans)
            for s in child["spans"]:
                s[tracing.PARENT] += offset if s[tracing.PARENT] >= 0 else 0
                s[tracing.REQUEST] = key
                spans.append(s)
            loose[key] = child["loose_cancels"]
        return done, spans, loose

    tracer = tracing.Tracer()

    def call_for(req):
        tracer.request = req.key
        return req.call

    tracer.install()
    try:
        done = Pass().run(requests, limit_s, call_for)
    finally:
        tracer.uninstall()
    return done, tracer.spans, tracer.loose_cancels


def run_workload(name, seed, seconds, trace, pool_seed):
    """(correct, attempted, failed, metrics as {name: (value, unit)}, lines)."""
    setup_s = None if trace else probe_setup(name, pool_seed)  # (scaled, wall-clock)
    import workloads

    setup, pool, limit_s = workloads.WORKLOADS[name]
    with open(DIGESTS, encoding="utf-8") as fh:
        committed = json.load(fh)[name]
    if pool_seed != workloads.POOL_SEED:
        # another draw has no committed digests: the oracle alone checks it,
        # and the committed pool's times still fix the number of passes
        committed = {k: {"parent_s": e["parent_s"]} for k, e in committed.items()}
    wl = pool(setup(pool_seed), pool_seed)
    gc.freeze()  # the collections before requests then skip the pool and the towers
    cli = name == "cli-cold"
    passes = wl.passes(seed)
    lines = [environment(name, seed, pool_seed, limit_s)]
    if not trace:
        done = closed_loop(passes, pass_count(committed, seconds, limit_s), limit_s)
        rss = peak_rss(cli)
        wrong = verify(wl, done, committed)
        metrics, notes = end_to_end(done, wrong, setup_s, rss)
        lines.append(f"{len(done)} passes over {len(wl.requests)} requests")
        lines += [f"{k} = {v:.6g} {u}" + (f"  ({notes[k]})" if k in notes else "") for k, (v, u) in metrics.items()]
        del metrics["failed_share"]  # may be 0, so it is reported but not gated
    else:
        import tracing

        order = next(passes)
        plain = Pass().run(order, limit_s)
        traced, spans, loose = traced_pass(cli, order, limit_s)
        done = [plain, traced]
        wrong = verify(wl, done, committed)
        excluded = {key for key, status, _, _ in traced.records if status != "ok"} | wrong
        layer = tracing.layer_metrics(spans, loose, excluded)

        def rate(p):
            return sum(1 for r in p.records if r[1] == "ok") / p.busy

        layer["trace.overhead"] = rate(traced) / rate(plain)
        metrics = {k: (v, UNITS[k.rsplit(".", 1)[-1]]) for k, v in layer.items()}
        lines.append(f"one pass untraced, one traced, over {len(order)} requests; "
                     f"{len(excluded)} timed-out or failed requests left out of the counts")
        lines += [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
        os.makedirs(TRACE_DIR, exist_ok=True)
        with open(os.path.join(TRACE_DIR, f"{name}-seed{seed}.json"), "w", encoding="utf-8") as fh:
            json.dump({"environment": lines[0], "fields": SPAN_FIELDS, "spans": spans}, fh)
    records = [r for p in done for r in p.records]
    failed = sum(1 for r in records if r[1] == "error" or r[0] in wrong)
    for key in sorted(wrong):
        lines.append(f"WRONG ANSWER: {key}")
    return failed == 0, len(records), failed, metrics, lines


UNITS = {
    "calls": "count", "self_s": "s", "cancels": "count", "passes_per_request": "ratio",
    "head_data_per_pass": "ratio", "solver_hit_ratio": "ratio", "yes": "count",
    "no": "count", "undecided": "count", "overhead": "ratio", "cancels_total": "count",
}
TRACE_DIR = os.path.join(ROOT, ".perfbench_trace")
SPAN_FIELDS = ["name", "start", "end", "parent", "request", "cancels", "outcome"]


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_all(args):
    """Each workload in its own interpreter, one after another."""
    import workloads

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--pool-seed", str(args.pool_seed)],
            capture_output=True, text=True,
        )
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not out:
            raise SystemExit(f"{name}: exit code {proc.returncode}")
        res = json.loads(out[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for k, m in res["metrics"].items():
            metrics[f"{name}/{k}"] = (m["value"], m["unit"])
    return correct, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool-seed", type=int, default=None,
                        help="draw the request pools from this seed instead of the committed one; "
                             "answers are then checked by the oracle only")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    import_program()
    import workloads

    if args.pool_seed is None:
        args.pool_seed = workloads.POOL_SEED

    if args.workload == "all":
        correct, attempted, failed, metrics = run_all(args)
    else:
        try:
            correct, attempted, failed, metrics, lines = run_workload(
                args.workload, args.seed, args.seconds, args.trace, args.pool_seed
            )
        finally:
            shutil.rmtree(workloads.WORKDIR, ignore_errors=True)
        print("\n".join(lines))
    print(result_line(correct, attempted, failed, metrics), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
