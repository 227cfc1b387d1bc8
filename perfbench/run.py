"""k5minus benchmark: extraction and generation workloads, timed end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload sparse4 --seed 1 --seconds 30 --trace 0

One process, one closed-loop client: each operation starts when the previous
one has returned.  The engine runs from `src/` with the pure-Python finder
(K5MINUS_BACKEND=py) and the default SearchBudget.  Inputs come from the seed
alone (see workloads.py); every output is checked independently after the
timed region (see checks.py).  The timed runs interleave a fixed calibration
unit with the operations and report times at reference host speed (see
speed.py); the raw wall-clock figures are in the summary record.

--trace 0 runs whole rounds of operations until --seconds have passed (and at
least the workload's fingerprint prefix is done; the last round may run past
the deadline) and reports the end-to-end metrics.  --trace 1 runs the
fingerprint prefix three times: once to warm up, once untraced and once with
spans on every layer boundary (see tracing.py), and reports per-layer
metrics.

Earlier stdout lines are JSON records (stamp, summary, fingerprint,
failures); the last line is the result object.  Records and spans are also
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ENGINE_MODULES = (
    "graphs", "connectivity", "patterns", "finder", "wheel", "bridges", "_work",
    "case_c", "case_d", "case_e", "extractor", "generator",
)
SETUP_REPEATS = 5
# The fingerprinted prefix: rounds every run completes, whatever --seconds.
PREFIX_ROUNDS = {"sparse4": 10, "ladder": 2, "gen4": 3}

END_TO_END = {
    "graphs_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "answered_share": "ratio",
    "guided_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# -- set-up ------------------------------------------------------------------


def load_api():
    """Import the engine afresh, so every set-up repeat pays for the import."""
    for name in [m for m in sys.modules if m == "k5minus" or m.startswith("k5minus.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    api = argparse.Namespace()
    for name in ENGINE_MODULES:
        setattr(api, name, importlib.import_module("k5minus." + name))
    return api


def setup(workload: str, seed: int):
    """Set up SETUP_REPEATS times.  Returns the last set-up, each raw time,
    and each time at reference speed, scaled by the median of three calibration
    units before and three after it."""
    speed.unit()
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        units = [speed.measure()[1] for _ in range(3)]
        t0 = perf_counter()
        api = load_api()
        rounds = workloads.make_rounds(api, workload, seed)
        times.append(perf_counter() - t0)
        units += [speed.measure()[1] for _ in range(3)]
        scaled.append(times[-1] * speed.REF_UNIT_NS / statistics.median(units))
    return api, rounds, times, scaled


# -- measurement ---------------------------------------------------------------


def run_ops(api, workload, rounds, n_rounds, deadline, tracer=None, cal=None):
    """Run whole rounds, round-robin over the block, until n_rounds are done
    and, if a deadline is given, it has passed.  Only whole rounds run, so
    every run holds the workload's sizes in the same proportions.  A
    calibrator, if given, runs its unit between operations.  Returns
    (ops, per-op (start, end) times in ns)."""
    op_fn = workloads.OPS[workload]
    ops: list[checks.Op] = []
    marks: list[tuple[int, int]] = []
    r = 0
    while r < n_rounds or (deadline is not None and perf_counter() < deadline):
        for item in rounds[r % len(rounds)]:
            if tracer is not None:
                tracer.op = len(ops)
            if cal is not None:
                cal.tick()
            error = None
            result = None
            t0 = perf_counter_ns()
            try:
                result = op_fn(api, item.line)
            except Exception:  # a crashing input is a failed operation, not the end of the run
                error = traceback.format_exc()
            t1 = perf_counter_ns()
            ops.append(checks.Op(len(ops), item, result, error, t1 - t0))
            marks.append((t0, t1))
        r += 1
    if cal is not None:
        cal.finish()
    return ops, marks


def window_rates(latencies_ns, width: int | None) -> list[float]:
    """Operations per second of busy time in each full window of `width`
    consecutive ops; a width of None makes the whole run one window."""
    width = width or len(latencies_ns)
    return [
        width * 1e9 / sum(latencies_ns[i:i + width])
        for i in range(0, len(latencies_ns) - width + 1, width)
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- provenance ----------------------------------------------------------------


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "k5minus").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            if (git / ref).is_file():
                return (git / ref).read_text().strip()
            packed = (git / "packed-refs").read_text() if (git / "packed-refs").is_file() else ""
            for line in packed.splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unavailable"
        return head
    except OSError:
        return "unavailable (not a git checkout)"


def stamp(api, workload, seed, digest) -> dict:
    backend = api.finder.backend_for(api.graphs.Graph(5, [(0, 1)]))
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "compiled_available": api.finder.compiled_available(),
        "backend": backend,
        "pure_python": backend == "py",
        "nproc": os.cpu_count(),
        "commit": commit(),
        "code_sha256": digest,
        "client": "one closed-loop client, no threads",
        "budget_node_limit": api.finder.SearchBudget().node_limit,
    }


def check_fingerprint(workload, seed, digest, fp) -> str | None:
    """Compare with the stored fingerprint of the same code and seed."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "fingerprints.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{workload} seed={seed} code={digest}"
    if key in store and store[key] != fp:
        return f"fingerprint differs from an earlier run of the same code and seed: {store[key]}"
    store[key] = fp
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


# -- main ------------------------------------------------------------------------


def quantile_ms(latencies_ns, q: int) -> float:
    return statistics.quantiles([x / 1e6 for x in latencies_ns], n=100)[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "k5minus" / "__init__.py").is_file():
        print(f"error: engine sources not found at {SRC / 'k5minus'}", file=sys.stderr)
        return 2

    os.environ["K5MINUS_BACKEND"] = "py"
    sys.path.insert(0, str(SRC))
    wl = args.workload

    api, rounds, setup_times, setup_scaled = setup(wl, args.seed)
    digest = code_digest()
    errors: list[str] = []
    prefix = PREFIX_ROUNDS[wl]

    if args.trace == 0:
        cal = speed.Calibrator()
        start = perf_counter()
        ops, marks = run_ops(api, wl, rounds, prefix, start + args.seconds, cal=cal)
        wall = perf_counter() - start
        rss = peak_rss_mb()
        prefix_ops = ops[: sum(len(rounds[r % len(rounds)]) for r in range(prefix))]
    else:
        # a first untimed pass warms the interpreter, so that the untraced and
        # traced passes that follow differ only by the tracing
        warm_ops, _ = run_ops(api, wl, rounds, prefix, None)
        start = perf_counter()
        prefix_ops, _ = run_ops(api, wl, rounds, prefix, None)
        wall = perf_counter() - start
        tracer = tracing.Tracer(api)
        tracer.install()
        try:
            start = perf_counter()
            ops, marks = run_ops(api, wl, rounds, prefix, None, tracer)
            traced_wall = perf_counter() - start
        finally:
            tracer.remove()
        rss = peak_rss_mb()
        reference = checks.fingerprint(prefix_ops, wl)
        if checks.fingerprint(warm_ops, wl) != reference:
            errors.append("two untraced passes over the same inputs gave different outputs")
        if checks.fingerprint(ops, wl) != reference:
            errors.append("traced pass gave different outputs than the untraced pass")

    fails = checks.failures(ops, wl)
    fp = checks.fingerprint(prefix_ops, wl)
    mismatch = check_fingerprint(wl, args.seed, digest, fp)
    if mismatch:
        errors.append(mismatch)
    errors.extend(f"op {f['op']} ({f['input']}): {f['detail']}" for f in fails if f["kind"] == "check")

    attempted = len(ops)
    # `failed` counts operations that crashed or whose output failed the
    # check.  A GaveUp is the engine's declared answer when the SearchBudget
    # runs out: it is kept in the inputs and counted in answered_share.
    failed = sum(1 for f in fails if f["kind"] != "gave_up")
    gave_up = len(fails) - failed
    fallbacks = [
        op.index for op in ops
        if wl != "gen4" and op.error is None and api.extractor.used_fallback(op.result.trace)
    ]
    latencies = [op.latency_ns for op in ops]
    p90 = quantile_ms(latencies, 90)
    window = workloads.RATE_WINDOW[wl]
    rates = window_rates(latencies, window)
    summary = {
        "mode": "traced" if args.trace else "untraced",
        "attempted": attempted,
        "rounds_in_block": len(rounds),
        "latency_samples": attempted,
        "samples_beyond_p90": sum(1 for x in latencies if x / 1e6 > p90),
        "timed_wall_s": wall,
        "mean_rate_per_s": attempted / wall,
        "rate_windows": len(rates),
        "failed_share": len(fails) / attempted,
        "wrong_or_crashed": failed,
        "gave_up": gave_up,
        "fallback_share": len(fallbacks) / attempted,
        "fallback_ops": fallbacks,
        "fallback_reason": "unavailable: the trace records only ('fallback', 'search')",
        "setup_s_each": setup_times,
    }

    if args.trace == 0:
        # each latency at reference speed, scaled by the speed around its start
        scaled = [lat * cal.factor(t0) for lat, (t0, _) in zip(latencies, marks)]
        units_ms = cal.unit_ms()
        summary["raw_wall_clock"] = {
            "graphs_per_s": statistics.median(rates),
            "latency_ms.p50": quantile_ms(latencies, 50),
            "latency_ms.p90": p90,
            "setup_s": statistics.median(setup_times),
        }
        summary["calibration_unit_ms"] = {
            "count": len(units_ms),
            "median": statistics.median(units_ms),
            "min": min(units_ms),
            "max": max(units_ms),
            "reference": speed.REF_UNIT_NS / 1e6,
        }
        metrics = {
            "graphs_per_s": statistics.median(window_rates(scaled, window)),
            "latency_ms.p50": quantile_ms(scaled, 50),
            "latency_ms.p90": quantile_ms(scaled, 90),
            "answered_share": 1.0 - len(fails) / attempted,
            "guided_share": 1.0 - len(fallbacks) / attempted,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": rss,
        }
        units = END_TO_END
    else:
        metrics, additivity = tracer.layer_metrics()
        if additivity["self_sum_ns"] != additivity["extract_wall_ns"]:
            errors.append(f"per-layer self times do not add up to the extract wall: {additivity}")
        metrics.update(tracing.outcome_metrics(
            [op.result for op in ops if wl != "gen4" and op.error is None]))
        metrics["trace.overhead_s"] = traced_wall - wall
        metrics["failed_share"] = summary["failed_share"]
        metrics["fallback_share"] = summary["fallback_share"]
        summary["traced_wall_s"] = traced_wall
        units = tracing.per_layer_units()
        if set(metrics) != set(units):
            raise RuntimeError(f"per-layer metric names drifted: {sorted(set(metrics) ^ set(units))}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{wl}-seed{args.seed}.jsonl")

    record = {
        "stamp": stamp(api, wl, args.seed, digest),
        "summary": summary,
        "fingerprint": fp,
        "failures": fails,
        "errors": errors,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{wl}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for key in ("stamp", "summary", "fingerprint", "failures"):
        print(json.dumps({key: record[key]}))
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
