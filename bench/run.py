"""Benchmark of qcorr: one workload per run, in a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run times `setup_s` in fresh child processes, then executes the
workload's seeded operations for S seconds with BLAS pinned to one thread,
checks every output outside the timed region, and prints the metrics named
in BENCHMARK.json: the end-to-end ones with --trace 0, the per-layer ones
with --trace 1.  The last line of stdout is the JSON result.  A traced run
times every operation twice, untraced then traced, and reports the
difference as the tracing overhead; its spans go to .bench_out/.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5  # after one discarded warm-up start
PROBE_TIMEOUT_S = 60


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_probe(workload, seed):
    """A function that times one fresh process importing qcorr and parsing the first call's config."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *workload.setup_args(seed)]

    def probe():
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        return float(proc.stdout.strip().splitlines()[-1])

    return probe


def retime_tail(workload, done):
    """Per-point latencies in ms; the calls above the run's p95 are timed once more and keep
    the lower of their two timings.

    Short bursts of machine noise otherwise set the p99 (re-timed, those calls
    read at the median); a call that is slow by itself is slow both times.
    """
    per_point = [1e3 * t / _points(op) for op, t, _ in done]
    cut = np.percentile(per_point, 95)
    for i, (op, _, _) in enumerate(done):
        if per_point[i] > cut:
            t0 = time.perf_counter()
            try:
                workload.run(op)
            except Exception:  # already counted by the timed call
                continue
            per_point[i] = min(per_point[i], 1e3 * (time.perf_counter() - t0) / _points(op))
    return per_point


def run_ops(workload, ops, seconds=None, cycle=1, tracer=None, first_index=0):
    """Execute ops: all of them, or whole cycles of `cycle` ops for about `seconds`.

    After each cycle the run stops unless one more cycle of the average length
    so far still fits in `seconds`; at least one cycle runs.  Returns the
    records (op, seconds inside the call, recorded output or None if it
    raised) and the wall time of the loop.
    """
    clock = time.perf_counter
    done = []
    start = clock()
    for index, op in enumerate(ops, first_index):
        t0 = clock()
        try:
            result = workload.run(op) if tracer is None else tracer.run_op(index, workload.run, op)
        except Exception as exc:  # counted as a failed operation
            print(f"op {index} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            result = None
        elapsed = clock() - t0
        done.append((op, elapsed, None if result is None else workload.record(op, result)))
        cycles, rest = divmod(index - first_index + 1, cycle)
        if seconds is not None and rest == 0 and (clock() - start) * (cycles + 1) / cycles > seconds:
            break
    return done, clock() - start


def _points(op):
    return getattr(op, "points", 1)


def measure(workload, seed, seconds):
    """Whole cycles of untraced calls for `seconds`, with set-up probes before and after them."""
    # probes on both sides, so a slow spell of the machine does not hit all of them
    probe = setup_probe(workload, seed)
    probe()  # warm-up: bytecode caches
    setup = [probe() for _ in range(SETUP_REPEATS // 2)]
    # whole cycles, so every run of a workload sees the same mix of states
    done, _ = run_ops(workload, workload.ops(seed), seconds, workload.cycle)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += [probe() for _ in range(SETUP_REPEATS - len(setup))]
    p50, p99 = np.percentile(retime_tail(workload, done), [50, 99]).tolist()
    metrics = {
        "setup_s": statistics.median(setup),
        "points_per_s": sum(_points(op) for op, _, _ in done) / sum(t for _, t, _ in done),
        "point_ms_p50": p50,
        "point_ms_p99": p99,
        "peak_rss_mb": peak_rss_mb,
    }
    return done, metrics


def trace(workload, seed, seconds, package):
    """Each call twice, untraced and traced, in whole cycles for about `seconds` in all.

    Both timings of a call fall in the same spell of machine speed, and every
    other call runs traced first, so the difference of the sums is the tracing
    overhead rather than drift or warm caches.  Returns the traced records, the
    tracer, the traced and untraced wall times, and whether the two timings of
    every call produced identical outputs.
    """
    tracer = Tracer()
    traced, wall, untraced_wall, same = [], 0.0, 0.0, True
    start = time.perf_counter()
    for index, op in enumerate(workload.ops(seed)):
        for with_spans in (index % 2 == 1, index % 2 == 0):
            if with_spans:
                tracer.install(package)
                try:
                    [(_, elapsed, record)], _ = run_ops(workload, [op], tracer=tracer, first_index=index)
                finally:
                    tracer.uninstall()
                wall += elapsed
                traced.append((op, elapsed, record))
            else:
                [(_, elapsed, plain)], _ = run_ops(workload, [op])
                untraced_wall += elapsed
        same = same and record == plain
        cycles, rest = divmod(index + 1, workload.cycle)
        if rest == 0 and (time.perf_counter() - start) * (cycles + 1) / cycles > seconds:
            break
    return traced, tracer, wall, untraced_wall, same


def distinct(workload, done):
    """The distinct operations of a run in first-call order, their first outputs, and the
    indices of those whose repeated calls did not reproduce the first output exactly.

    The checks and the attempted and failed counts cover each distinct
    operation once, so they depend on the seed and not on how many cycles fit
    in the run.
    """
    first, unstable = {}, set()
    for op, _, record in done:
        key = workload.key(op)
        if key not in first:
            first[key] = (len(first), op, record)
        elif record != first[key][2]:
            unstable.add(first[key][0])
    ops = [op for _, op, _ in first.values()]
    records = [record for _, _, record in first.values()]
    return ops, records, sorted(unstable)


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "qcorr" / "__init__.py").is_file():
        print(f"bench: no qcorr sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be > 0", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import qcorr
    import qcorr.cli
    from workloads import WORKLOADS

    if not Path(qcorr.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: imported qcorr from {qcorr.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](qcorr, tmp)
        if args.trace:
            done, tracer, wall, untraced_wall, intact = trace(workload, args.seed, args.seconds, qcorr)
        else:
            done, metrics = measure(workload, args.seed, args.seconds)
            intact = True
        ops, records, unstable = distinct(workload, done)
        failed, readable, gap = workload.check(ops, records, np.random.default_rng([args.seed, 1]))
        intact = intact and readable
        for k in unstable:
            failed[k] = _points(ops[k])
        points = sum(_points(op) for op in ops)
        n_failed = sum(failed)
        if args.trace:
            traced_points = sum(_points(op) for op, _, _ in done)
            metrics = tracer.summary(traced_points, traced_points if workload.writes_csv else 0, wall, untraced_wall)
            metrics["correlations.discord_gap_max"] = gap
            trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
            tracer.write(trace_file)
            print(f"spans: {len(tracer.spans)} written to {trace_file}")
        else:
            metrics["pass_share"] = 1.0 - n_failed / points
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise KeyError(f"BENCHMARK.json names metrics this run does not compute: {missing}")

        print(f"workload {args.workload} seed {args.seed}: {len(done)} calls of {len(ops)} distinct "
              f"operations, {points} points, {n_failed} failed, "
              f"outputs {'checked' if intact else 'NOT checkable'}")
        absent = [m["name"] for m in wanted if metrics[m["name"]] is None]
        if absent:
            # the JSON result needs a number for every listed metric, so these read 0 there
            print("absent (never called): " + ", ".join(absent))
        for m in wanted:
            value = metrics[m["name"]]
            print(f"  {m['name']:<48} {'absent' if value is None else f'{value:.6g}'} {m['unit']}")
        result = {
            "correct": bool(intact),
            "attempted": points,
            "failed": n_failed,
            "metrics": {
                m["name"]: {"value": 0.0 if metrics[m["name"]] is None else metrics[m["name"]], "unit": m["unit"]}
                for m in wanted
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
