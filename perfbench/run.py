"""Crawl benchmark: seeded workloads through the public crawl API.

Usage (from the repository root):

    python3 perfbench/run.py --workload crawl_verify --seed 1 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload
    python3 perfbench/run.py --selfcheck                 # tiny instances

One run: start a Ray session of the fixed shape below, generate the
workload's inputs from ``--seed``, warm up on a small instance of the
same seed (whose admission order must equal the simulator's), then
repeat the workload until ``--seconds`` have been measured.  Every
repetition's outputs are checked exactly.  The last stdout line is one
JSON object: ``correct``, ``attempted`` and ``failed`` (repetitions)
and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run also writes
``.perfbench_out/<workload>.trace.json`` (spans, the in-process layer
ledger and frontier counters).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time

T_IMPORT = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Ray session shape, fixed for every run and recorded with every
# result.  2 logical CPUs fit every stage's resource request (frontier
# actors 0.05 CPU each, the offer task 1 CPU, the fused fetch+parse
# actor 0.5 CPU).  With 1 logical CPU the offer task never fits beside
# the frontier actors and offer_seeds hangs.
RAY_NUM_CPUS = 2
RAY_OBJECT_STORE_BYTES = 512 << 20
# a repetition that runs longer than this counts as failed
REP_TIMEOUT_S = {"crawl_verify": 75, "iterative_discover": 45,
                 "frontier_dense": 45}
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# AF_UNIX socket paths under the Ray temp dir must stay < 108 bytes
RAY_TMP = os.path.join(ROOT, ".pbt")


def declared_units(kind):
    """name -> unit of the ``kind`` metrics declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def process_age_s():
    """Seconds since this process started (from /proc, 10 ms ticks;
    since this module was imported where /proc is unavailable)."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - T_IMPORT


def host_state():
    try:
        with open("/proc/loadavg") as f:
            load = [float(x) for x in f.read().split()[:3]]
    except OSError:
        load = []
    return {"nproc_affinity": len(os.sched_getaffinity(0)),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "logical_cpus": os.cpu_count(), "ray_num_cpus": RAY_NUM_CPUS,
            "loadavg": load}


class PrivateRssPeak:
    """Peak private resident memory of this process (RssAnon + RssFile,
    in MB) while the block runs, sampled every ``interval`` seconds.
    Shared-memory pages are left out: they are Ray object-store pages
    this process happened to touch, whose count depends on where the
    store placed each object, not on what the driver holds."""

    def __init__(self, interval=0.01):
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = None

    @staticmethod
    def private_mb():
        kb = 0
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith(("RssAnon:", "RssFile:")):
                    kb += int(line.split()[1])
        return kb / 1024.0

    def _sample(self):
        while True:
            self.peak_mb = max(self.peak_mb, self.private_mb())
            if self._stop.wait(self.interval):
                return

    def __enter__(self):
        self._stop.clear()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak_mb = max(self.peak_mb, self.private_mb())
        return False


# what a repetition keeps once its outputs are checked
KEEP = ("metrics", "drain_blocks", "iterations")


class RepTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RepTimeout()


def timed_call(fn, timeout_s):
    """Run ``fn()``; raise RepTimeout if it takes over ``timeout_s``."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def ray_start():
    import ray

    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p])
    kw = {}
    if len(RAY_TMP) <= 40:
        kw["_temp_dir"] = RAY_TMP
    ray.init(address="local", num_cpus=RAY_NUM_CPUS,
             object_store_memory=RAY_OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level="ERROR", **kw)
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def run_workload(name, seed, seconds, trace, started_s):
    """One benchmark run of one workload -> result dict.  ``started_s``:
    seconds from process start to this call."""
    import ray

    from perfbench import workloads as W

    cls = W.WORKLOADS[name]
    host_start = host_state()
    failures = []
    t_setup = time.perf_counter()
    ray_start()
    ray_init_s = time.perf_counter() - t_setup
    t = time.perf_counter()
    wl = cls(seed, os.path.join(WORK_DIR, name))
    gen_s = time.perf_counter() - t
    t = time.perf_counter()
    try:
        small_bad = timed_call(wl.small_check, REP_TIMEOUT_S[name])
    except RepTimeout:
        small_bad = ["timed out"]
    warm_s = time.perf_counter() - t
    failures += [f"small instance: {b}" for b in small_bad]
    # process start -> ready: interpreter and imports, ray.init, input
    # generation and the warm-up on the small instance
    setup_s = started_s + time.perf_counter() - t_setup

    tracer = None
    if trace:
        from perfbench import trace as T

        tracer = T.Tracer(run_id=f"{name}-{seed}")
    null = W.NullTracer()
    rss = PrivateRssPeak()
    reps, attempted, failed = [], 0, 0
    schedules = set()   # every repetition, traced or not, same schedule
    traced_rep = None
    measured = 0.0
    # a hung session would hang every repetition too.  Traced runs
    # alternate untraced and traced repetitions, so the tracing
    # overhead compares like with like
    hung = small_bad == ["timed out"]
    while not hung and (measured < seconds
                        or (trace and traced_rep is None)):
        use_tracer = tracer if (trace and attempted % 2 == 1) else null
        attempted += 1
        t, t_epoch = time.perf_counter(), time.time()
        try:
            # the peak covers the repetitions, not the checks after them
            with rss:
                rep = timed_call(lambda: wl.rep(use_tracer),
                                 REP_TIMEOUT_S[name])
        except RepTimeout:
            failed += 1
            failures.append(f"repetition {attempted} timed out")
            break
        except Exception as e:  # a failed repetition is counted, not fatal
            failed += 1
            failures.append(f"repetition {attempted} raised {e!r}")
            measured += time.perf_counter() - t
            if failed >= 3:
                break
            continue
        measured += time.perf_counter() - t
        bad = wl.check(rep)
        if rep.out["table"] is not None:
            schedules.add(W.schedule_digest(rep.out["table"]))
        rep.out = {k: v for k, v in rep.out.items() if k in KEEP}
        rep.out.update(t_start=t_epoch, t_end=time.time())
        if bad:
            failed += 1
            failures += [f"repetition {attempted}: {b}" for b in bad]
            if failed >= 3:
                break
            continue
        if use_tracer is null:
            reps.append(rep)
        else:
            traced_rep = rep
    host_end = host_state()
    if len(schedules) > 1:
        failures.append("repetitions produced different admission schedules")
    # same seed, same inputs (checked at a small size, after timing)
    det = [W.digest(cls(seed, os.path.join(WORK_DIR, "det"),
                        scale=0.02).fingerprint()) for _ in range(2)]
    if det[0] != det[1]:
        failures.append("generator is not deterministic for this seed")

    result = {"workload": name, "seed": seed, "host_start": host_start,
              "host_end": host_end, "failures": failures}
    if not reps:
        failures.append("no untraced repetition completed")
    if trace and reps and traced_rep is not None:
        from perfbench import trace as T

        try:
            values, report = T.per_layer(wl, reps, traced_rep, tracer,
                                         cores=RAY_NUM_CPUS)
        except Exception as e:  # report it as a failed run, with a result
            failures.append(f"layer ledger raised {e!r}")
            values, report = {}, {}
        report.update(result)
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"{name}.trace.json"), "w") as f:
            json.dump(report, f, indent=1, sort_keys=True, default=str)
    elif reps:
        values = {
            "urls_per_s": statistics.median(r.urls / r.wall_s for r in reps),
            "first_record_s": statistics.median(r.first_s for r in reps),
            "setup_s": setup_s,
            "driver_peak_rss_mb": rss.peak_mb,
        }
    else:
        values = {}
    metrics = {}
    if values:
        declared = declared_units("per_layer" if trace else "end_to_end")
        if set(values) != set(declared):
            failures.append("metrics differ from BENCHMARK.json: "
                            f"{sorted(set(values) ^ set(declared))}")
        metrics = {k: {"value": v, "unit": declared.get(k, "")}
                   for k, v in values.items()}
    if hung:
        attempted = failed = 1
    result.update({
        "attempted": attempted, "failed": failed,
        "failed_ops_share": failed / max(1, attempted),
        "setup_parts_s": {"ray_init": ray_init_s, "generate": gen_s,
                          "warm_small_instance": warm_s},
        "rep_wall_s": [r.wall_s for r in reps],
        "metrics": metrics,
    })
    ray.shutdown()
    return result


def corruptions(table):
    """Corrupted copies of an output table that a check must reject."""
    import pyarrow as pa

    def with_first(col, value):
        c = table.column(col).to_pylist()
        c[0] = value
        i = table.schema.get_field_index(col)
        return table.set_column(i, table.schema.field(i),
                                pa.array(c, table.schema.field(i).type))

    yield "a dropped row", table.slice(1)
    yield "a wrong URL", with_first("url", "http://corrupt.invalid/x")
    if "title" in table.column_names:
        yield "a wrong parsed title", with_first("title", "corrupt")


def selfcheck(seed):
    """Tiny instance of every workload, plus proof that each output
    check rejects corrupted outputs."""
    import ray

    from perfbench import workloads as W

    ray_start()
    problems = []
    for name, cls in W.WORKLOADS.items():
        wl = cls(seed, os.path.join(WORK_DIR, name), scale=0.02)
        problems += [f"{name} small: {b}" for b in wl.small_check()]
        rep = wl.rep(W.NullTracer())
        problems += [f"{name}: {b}" for b in wl.check(rep)]
        good = rep.out["table"]
        for label, bad_table in corruptions(good):
            rep.out["table"] = bad_table
            if not wl.check(rep):
                problems.append(f"{name}: check accepted {label}")
    ray.shutdown()
    return problems


def cleanup():
    import ray

    if ray.is_initialized():
        ray.shutdown()
    for d in (WORK_DIR, RAY_TMP):
        shutil.rmtree(d, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    started_s = process_age_s()

    sys.path.insert(0, ROOT)
    try:
        import hepcrawl_ray.pipelines.crawl  # noqa: F401
    except ImportError as e:
        log(f"perfbench: cannot import the crawl engine: {e}")
        return 2
    from perfbench.workloads import WORKLOADS

    if args.selfcheck:
        try:
            problems = selfcheck(args.seed)
        finally:
            cleanup()
        for p in problems:
            log("selfcheck:", p)
        print(json.dumps({"selfcheck": not problems, "problems": problems}))
        return 0 if not problems else 1

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        log(f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)} or 'all'")
        return 2
    if len(names) > 1:
        # one process per workload: each gets its own Ray session
        import subprocess

        lines = []
        for n in names:
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", n,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=180)
            lines.append(json.loads(out.stdout.strip().splitlines()[-1]))
            lines[-1]["workload"] = n
        for r in lines:
            share = r["failed"] / max(1, r["attempted"])
            print(f"{r['workload']}: failed_ops_share = {share:.6g} ratio, "
                  + ", ".join(f"{k} = {v['value']:.6g} {v['unit']}"
                              for k, v in r["metrics"].items()))
        print(json.dumps({
            "correct": all(r["correct"] for r in lines),
            "attempted": sum(r["attempted"] for r in lines),
            "failed": sum(r["failed"] for r in lines),
            "metrics": {f"{r['workload']}.{k}": v for r in lines
                        for k, v in r["metrics"].items()}}))
        return 0

    name = names[0]
    try:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           started_s)
    finally:
        cleanup()
    for f in res["failures"]:
        log("FAILED:", f)
    log(json.dumps({k: v for k, v in res.items() if k != "metrics"}))
    print(f"{name}: failed_ops_share = {res['failed_ops_share']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} repetitions)")
    for k, v in res["metrics"].items():
        print(f"{name}: {k} = {v['value']:.6g} {v['unit']}")
    correct = not res["failures"] and bool(res["metrics"])
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
