"""percolab benchmark: one workload per process, run as a closed-loop batch.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere; it builds nothing and imports percolab from the
checkout's `src/`. The workloads and metric names come from BENCHMARK.json
at the root; README.md beside this file describes them.

--trace 0 (default) measures the end-to-end metrics with tracing off:
  three fresh processes in turn (two children, then this process) each time
  one set-up and then repeat the fixed batch until --seconds / 3 of batch
  time have passed; this process goes on until MIN_BATCHES batches have run
  in all;
  setup_s      median of the three set-ups, each from before `import percolab`
               until the workload's inputs are in memory;
  run_s        median wall time of all the batches;
  total_s      setup_s + run_s;
  peak_rss_mb  ru_maxrss of this process, which did one set-up and its batches.
--trace 1 runs one untraced set-up + batch in a child (for trace.overhead_s),
  then one set-up + batch here with spans/counters installed, and reports the
  per-layer metrics.

Both modes then run the correctness gate outside the timed phase and compare
the output digest and exact counts with earlier runs of the same code and
seed. The last stdout line is one JSON object: correct, attempted, failed,
metrics. Exit code 0 only when every operation and check passed; 2 when the
checkout has no percolab sources. Writes only under perfbench/out/.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_SAMPLES = 3
MIN_BATCHES = 5
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("PERCOLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def parse_args(argv, spec):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the reference instances)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="keep repeating the timed batch until this much time has passed "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "prepare", "sample"),
                    default="main", help=argparse.SUPPRESS)
    ap.add_argument("--batches", type=int, default=1, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def child(args, role: str, seconds=0.0, batches=1) -> dict:
    """Run one role of this script in a fresh interpreter; return its JSON line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--role", role, "--seconds", repr(seconds), "--batches", str(batches)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{role} child exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def run_child_role(args) -> int:
    t0 = time.perf_counter()
    import workloads  # imports percolab: part of the set-up being timed
    wl = workloads.WORKLOADS[args.workload](_seed(args, workloads), OUT)
    if args.role == "prepare":
        if wl.prepare is not None:
            wl.prepare()
        return 0
    inputs = wl.setup()
    setup_s = time.perf_counter() - t0
    checks = workloads.Checks()
    times, batches, digests = run_batches(wl, inputs, args.seconds, args.batches, checks)
    print(json.dumps({"setup_s": setup_s, "times": times, "digests": digests,
                      "counts": [b.counts for b in batches],
                      "attempted": checks.attempted, "failed": checks.failed}))
    return 0


def _seed(args, workloads) -> int:
    return workloads.DEFAULT_SEED if args.seed is None else args.seed


def source_hash() -> str:
    """sha256 over the library and benchmark sources: identifies 'the same
    code' for the digest and exact-count ledger when git is unavailable."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(BENCH.glob("*.py")) + [ROOT / "BENCHMARK.json"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git(*cmd):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _proc_field(path, key):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(seed, thread_env, code) -> dict:
    import numpy
    import percolab
    # only the checkout's own repository: a parent directory's must not answer
    rev = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain") if rev else None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name") or platform.processor(),
        "ram": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "percolab": percolab.__version__,
        "git_revision": rev or "unknown (not a git checkout)",
        "git_dirty": None if status is None else bool(status),
        "source_sha256": code,
        "env": thread_env,
        "workload_seed": seed,
    }


def ledger_compare(key: str, entry: dict, checks) -> None:
    """Compare this run's digest and exact counts with the first run of the
    same code and seed recorded under perfbench/out/, then record any field
    seen for the first time."""
    path = OUT / "ledger.json"
    ledger = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    seen = ledger.setdefault(key, {})
    for field, value in entry.items():
        if field in seen:
            checks.check(seen[field] == value, "repeat",
                         f"{field} differs from an earlier run: {seen[field]} != {value}")
        else:
            seen[field] = value
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def run_batches(wl, inputs, seconds, min_batches, checks):
    """Repeat the batch until `seconds` of batch time have passed and it has
    run at least `min_batches` times. Each batch's output digest is taken
    right after it, untimed, before the next batch rewrites the artifacts."""
    times, batches, digests = [], [], []
    while True:
        gc.collect()
        t = time.perf_counter()
        try:
            batch = wl.batch(inputs)
        except Exception:
            traceback.print_exc()
            checks.ops(1, False, "batch raised")
            break
        times.append(time.perf_counter() - t)
        digests.append(batch.digest())
        checks.ops(batch.ops, True, "batch")
        batches.append(batch)
        if sum(times) >= seconds and len(times) >= min_batches:
            break
    return times, batches, digests


def gate(wl, inputs, batches, digests, counts, checks) -> str:
    """Correctness gate, outside the timed phase; returns the output digest.
    `digests` and `counts` cover every batch, the children's included."""
    checks.check(len(set(digests)) == 1, "repeat", f"digests differ between batches: {digests}")
    checks.check(all(c == counts[0] for c in counts), "repeat",
                 "batch counts differ between batches")
    try:
        wl.gate(inputs, batches[-1], checks)
    except Exception as exc:
        traceback.print_exc()
        checks.check(False, "gate", f"gate raised {exc!r}")
    return digests[0]


def main_role(args, spec, thread_env) -> int:
    child(args, "prepare")
    if args.trace:
        # one untraced set-up + batch: the reference for trace.overhead_s
        seconds, per_process = 0.0, 1
        samples = [child(args, "sample")]
    else:
        seconds = args.seconds / SETUP_SAMPLES
        samples = [child(args, "sample", seconds) for _ in range(SETUP_SAMPLES - 1)]
        per_process = max(1, MIN_BATCHES - sum(len(c["times"]) for c in samples))

    t0 = time.perf_counter()
    import workloads  # imports percolab: part of the set-up being timed
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer(f"{args.workload}-{os.getpid()}-{time.time_ns()}")
        tracer.install()
    seed = _seed(args, workloads)
    wl = workloads.WORKLOADS[args.workload](seed, OUT)
    inputs = wl.setup()
    setup_s = time.perf_counter() - t0

    checks = workloads.Checks()
    for c in samples:
        checks.ops(c["attempted"], c["failed"] == 0, "batches in a child process")
    if tracer:
        tracer.phase = "run"
    times, batches, digests = run_batches(wl, inputs, seconds, per_process, checks)
    traced_total_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    code = source_hash()
    print(f"workload {args.workload} seed {seed}: {json.dumps(wl.describe(), sort_keys=True)}")
    print(f"provenance {json.dumps(provenance(seed, thread_env, code), sort_keys=True)}")
    entry = {}
    if batches:
        if tracer:
            tracer.phase = "gate"
        digest = gate(wl, inputs, batches, digests + [d for c in samples for d in c["digests"]],
                      [b.counts for b in batches] + [n for c in samples for n in c["counts"]],
                      checks)
        entry = {"digest": digest, "batch_counts": batches[0].counts}
        print(f"digest sha256:{digest}")
        print(f"batch counts {json.dumps(entry['batch_counts'], sort_keys=True)}")

    if tracer and batches:
        metrics = traced_metrics(args, spec, wl, tracer, t0, traced_total_s,
                                 samples[0]["setup_s"] + samples[0]["times"][0], checks, entry)
    elif batches:
        metrics = end_to_end_metrics([c["setup_s"] for c in samples] + [setup_s],
                                     [t for c in samples for t in c["times"]] + times,
                                     peak_rss_mb, batches[0].ops)
    else:
        metrics = {}
    if batches:
        ledger_compare(f"{code[:16]}/{args.workload}/{seed}", entry, checks)

    result_metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value = metrics.get(m["name"], (None,))[0]
        if value is None:
            checks.check(False, "metric", f"{m['name']} was not measured")
            continue
        result_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    rate = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"error_rate {rate!r} ({checks.failed} failed / {checks.attempted} attempted)")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    ok = checks.failed == 0
    print(json.dumps({"correct": ok, "attempted": max(checks.attempted, 1),
                      "failed": checks.failed, "metrics": result_metrics}))
    return 0 if ok else 1


def end_to_end_metrics(samples, times, peak_rss_mb, ops) -> dict:
    setup_s = statistics.median(samples)
    run_s = statistics.median(times)
    print(f"setup_s {setup_s!r} s (median of {len(samples)} fresh-process set-ups: "
          f"{', '.join(f'{s:.4f}' for s in samples)})")
    print(f"run_s {run_s!r} s (median of {len(times)} batches of {ops} operations in "
          f"{SETUP_SAMPLES} processes: "
          f"{', '.join(f'{t:.4f}' for t in times)}; {ops / run_s:.2f} operations/s)")
    print(f"total_s {setup_s + run_s!r} s")
    print(f"peak_rss_mb {peak_rss_mb!r} MB")
    return {"setup_s": (setup_s, "s"), "run_s": (run_s, "s"),
            "total_s": (setup_s + run_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}


def traced_metrics(args, spec, wl, tracer, t0, traced_total_s, untraced_total_s,
                   checks, entry) -> dict:
    import spans
    measured = spans.Profile([s for s in tracer.spans if s.phase != "gate"])
    gate_profile = spans.Profile([s for s in tracer.spans if s.phase == "gate"])
    metrics = spans.layer_metrics(measured, gate_profile, traced_total_s, untraced_total_s,
                                  checks.failed_by_kind.get("oracle", 0))
    runs = [s for s in tracer.spans if s.name == "percolate.dfs" and s.phase == "run"]
    checks.check(all(s.counts["bits"] == s.counts["n"] for s in runs), "bits",
                 "a percolation run did not consume exactly n bits")
    for name, value in entry["batch_counts"].items():
        checks.check(metrics[name][0] == value, "counts",
                     f"traced {name} = {metrics[name][0]}, batch reported {value}")
    entry["layer_counts"] = {k: metrics[k][0] for k in spans.EXACT_COUNTS}
    print(f"layer counts {json.dumps(entry['layer_counts'], sort_keys=True)}")
    tracer.write(OUT / f"spans-{args.workload}-{wl.seed}.json", t0)

    in_json = {m["name"] for m in spec["per_layer"]}
    for name, (value, unit) in metrics.items():
        shown = "n/a (layer not exercised)" if value is None else f"{value!r} {unit}"
        print(f"layer {name} {shown}{'' if name in in_json else '  [report only]'}")
    largest = measured.largest_self()
    print(f"largest self time: {largest} ({measured.own(largest):.4f} s); expected "
          f"{wl.dominant}: {'holds' if largest == wl.dominant else 'DOES NOT HOLD'}")
    coverage = metrics["trace.coverage"][0]
    print(f"trace.coverage {coverage:.4f}: {'>= 0.9' if coverage >= 0.9 else 'BELOW 0.9'}")
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, spec)
    if not (SRC / "percolab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no percolab sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    thread_env = {k: os.environ.get(k) for k in THREAD_VARS}
    # the workloads are defined single-threaded: PERCOLAB_THREADS unset
    os.environ.pop("PERCOLAB_THREADS", None)
    OUT.mkdir(exist_ok=True)
    if args.role != "main":
        return run_child_role(args)
    # turn SIGTERM into an exception, so that subprocess.run kills and reaps
    # the child this run is waiting for before exiting
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return main_role(args, spec, thread_env)


if __name__ == "__main__":
    sys.exit(main())
