#!/usr/bin/env python3
"""mcft benchmark: one closed-loop client running one workload.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One process, one thread; each operation waits for the previous one, and
BLAS/OpenMP pools are pinned to one thread.  Operations run in whole
passes over the workload's inputs until ``--seconds`` have been measured.
Times are reported scaled to a reference machine speed (``speed.py``);
the raw figures are printed alongside.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (half the time untraced, half traced, for the tracing overhead),
each as the last stdout line in JSON.  Known defects count as failed
operations with a reason code; ``correct`` is false only if some
operation failed in a way that is not a known defect.  Exits 2 if the
program cannot be found and 3 if an output check cannot run.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

import gen
import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("corpus", "parametric", "string-mesh")
SPEED_KERNEL = {"corpus": "python", "parametric": "python", "string-mesh": "numpy"}
SETUP_REPEATS = 7
WORK_DIR = ".bench_work"
# Seconds to import mcft, raw and scaled by the Python kernel run in the
# same interpreter right after it; then where mcft came from.
IMPORT_PROBE = """
import time
t0 = time.perf_counter()
import mcft
t1 = time.perf_counter()
import speed
meter = speed.Speedometer("python")
_now, factor = meter.scale(meter.read())
print(repr(t1 - t0), repr((t1 - t0) * factor), mcft.__file__)
"""
# verb -> argv after --json, on the shipped model (the ROADMAP baseline table)
BASELINE_VERBS = {
    "derive": ["derive", "{model}"],
    "derive_hamiltonian": ["derive", "--hamiltonian", "{model}"],
    "check_symmetry": ["check-symmetry", "{model}", "Y"],
    "current": ["current", "{model}", "Y"],
    "sopde": ["sopde", "{model}"],
    "verify_law_main": ["verify-law", "{model}", "Y", "main"],
    "simulate_main": ["simulate", "{model}", "main"],
    "simulate_standing": ["simulate", "{model}", "standing"],
}
BASELINE_REPEATS = 3
MIN_SAMPLES = 100  # p90 then has at least ten samples beyond it
MIN_PASSES = 11  # or: at least eleven samples of each operation
CALIBRATE_EVERY_S = 0.03  # operation time between two speed readings


class BenchError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# set-up


def program_root() -> str:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mcft", "__init__.py")):
        raise BenchError(f"no program sources at {os.path.join(root, 'src', 'mcft')}", 2)
    return root


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    return env


def time_import(root: str) -> tuple:
    """(raw, scaled) seconds to import mcft in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=root,
        env=child_env(root),
        capture_output=True,
        text=True,
        timeout=120,
    )
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 3:
        raise BenchError(f"importing mcft failed: {proc.stderr.strip()[-400:]}", 2)
    if not os.path.abspath(words[2]).startswith(os.path.join(root, "src")):
        raise BenchError(f"mcft imported from {words[2]}, not from this checkout", 2)
    return float(words[0]), float(words[1])


def generate(workload: str, seed: int, work: str):
    """Generate the inputs and write each model text to ``work``."""
    models = gen.GENERATORS[workload](seed)
    paths = {}
    for m in models:
        paths[m.name] = os.path.join(work, f"{m.name}.mcft")
        with open(paths[m.name], "w", encoding="utf-8") as fh:
            fh.write(m.text)
    return models, paths, gen.inputs_hash(models)


def setup(root: str, workload: str, seed: int) -> dict:
    work = os.path.join(root, WORK_DIR, workload)
    os.makedirs(work, exist_ok=True)
    time_import(root)  # warm: byte-compiles the sources once per checkout
    speedometer = speed.Speedometer("python")
    raw, scaled, hashes = [], [], set()
    for _ in range(SETUP_REPEATS):
        import_s, import_scaled = time_import(root)
        before = speedometer.read()
        t0 = time.perf_counter()
        models, paths, digest = generate(workload, seed, work)
        gen_s = time.perf_counter() - t0
        _now, factor = speedometer.scale(before)
        raw.append((import_s, gen_s))
        scaled.append(import_scaled + gen_s * factor)
        hashes.add(digest)
    if len(hashes) != 1:
        raise BenchError("the same seed generated different inputs", 3)
    sys.path.insert(0, os.path.join(root, "src"))
    import mcft  # noqa: F401  (the program, imported once for the timed loop)

    return {
        "models": models,
        "paths": paths,
        "inputs_sha256": hashes.pop(),
        "setup_s": statistics.median(scaled),
        "raw_setup_s": statistics.median(i + g for i, g in raw),
        "import_s": statistics.median(i for i, _g in raw),
        "work": os.path.join(root, WORK_DIR),
    }


# ---------------------------------------------------------------------------
# the closed loop


class Run:
    """Latencies and outcomes of the operations of one phase."""

    def __init__(self):
        self.scaled = {}  # op index -> latencies scaled to the reference speed
        self.raw = {}  # op index -> raw latencies
        self.pass_rates = []  # scaled
        self.raw_pass_rates = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # (label, reason)
        self.reasons = {}  # reason -> count
        self.verdicts = 0
        self.uncertain = 0
        self.passes = 0
        self.numeric_ops = set()  # indices of operations that entered the numeric layer

    def merge(self, other: "Run"):
        """Add ``other``'s counts and failures (not its latencies)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.verdicts += other.verdicts
        self.uncertain += other.uncertain
        self.unexpected += other.unexpected
        for k, v in other.reasons.items():
            self.reasons[k] = self.reasons.get(k, 0) + v


def run_op(op, state: dict):
    t0 = time.perf_counter()
    try:
        result = op.call(state)
        error = None
    except workloads.Upstream:
        result, error = None, "upstream"
    except Exception as exc:  # the program raised: a failed operation
        result, error = None, f"raised-{type(exc).__name__}"
    return time.perf_counter() - t0, result, error


def judge(op, result, error, state: dict):
    if error is not None:
        return workloads.Outcome(False, error)
    try:
        return op.check(result, state)
    except workloads.CheckError as exc:
        raise BenchError(f"check of {op.label!r} cannot run: {exc}", 3) from exc
    except (KeyError, IndexError, TypeError, ValueError):  # output not shaped as the check expects
        return workloads.Outcome(False, "bad-output")


def run_passes(ops, seconds: float, run: Run, speedometer, tracer=None, fill: bool = False):
    """Whole passes over ``ops`` for at least ``seconds``.  With ``fill``,
    also until the run holds 100 samples or more than ten passes, so that
    the high percentile always rests on ten samples."""
    deadline = time.perf_counter() + seconds
    while (
        run.passes == 0
        or time.perf_counter() < deadline
        or (fill and run.passes * len(ops) < MIN_SAMPLES and run.passes < MIN_PASSES)
    ):
        states: dict = {}
        pending = []  # raw latencies since the last speed reading
        speed = speedometer.read()
        busy, scaled, count = 0.0, 0.0, 0
        for i, op in enumerate(ops):
            state = states.setdefault(op.group, {})
            if tracer is not None:
                tracer.begin_op(i, op.label)
            dt, result, error = run_op(op, state)
            if tracer is not None:
                tracer.end_op()
                if "numeric" in tracer.op_touched:
                    run.numeric_ops.add(i)
            outcome = judge(op, result, error, state)
            busy += dt
            count += 1
            run.raw.setdefault(i, []).append(dt)
            pending.append((i, dt))
            if sum(d for _, d in pending) >= CALIBRATE_EVERY_S or i == len(ops) - 1:
                speed, factor = speedometer.scale(speed)
                for j, d in pending:
                    run.scaled.setdefault(j, []).append(d * factor)
                    scaled += d * factor
                pending = []
            run.attempted += 1
            run.verdicts += outcome.verdicts
            run.uncertain += outcome.uncertain
            if not outcome.ok:
                run.failed += 1
                run.reasons[outcome.reason] = run.reasons.get(outcome.reason, 0) + 1
                if outcome.reason != op.known_defect:
                    run.unexpected.append((op.label, outcome.reason))
        run.raw_pass_rates.append(count / busy)
        run.pass_rates.append(count / scaled)
        run.passes += 1


def high_level(n: int) -> float:
    """The highest percentile, up to p90, with at least ten of ``n``
    samples beyond it."""
    return max(0.5, min(0.9, (n - 10) / n))


def high_percentile(values: list) -> float:
    """Nearest-rank value at ``high_level``."""
    xs = sorted(values)
    rank = max(1, math.floor(high_level(len(xs)) * len(xs)))
    return xs[rank - 1]


# ---------------------------------------------------------------------------
# metrics


def typical_latencies(per_op: dict) -> list:
    """The run's latency samples with each operation's samples replaced
    by their median.  Operations repeat the same work every pass, so the
    spread within one operation is the machine's noise."""
    out = []
    for samples in per_op.values():
        out += [statistics.median(samples)] * len(samples)
    return sorted(out)


def end_to_end(setup_s: float, per_op: dict) -> dict:
    latencies = typical_latencies(per_op)
    p_hi = high_percentile(latencies)
    pass_s = sum(statistics.median(v) for v in per_op.values())
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(per_op) / pass_s, "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1000.0 * p_hi, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def shares(run: Run) -> dict:
    return {
        "ops_failed_share": (run.failed / run.attempted, "ratio"),
        "uncertain_verdict_share": (run.uncertain / run.verdicts if run.verdicts else 0.0, "ratio"),
    }


def per_layer(tracer, traced: Run, untraced: Run, op_time: float, peak_mb: float, baseline: dict) -> dict:
    passes = traced.passes
    out = {}
    for layer, (_mod, fnames) in tracing.HOOKS.items():
        for fname in fnames:
            name = tracing.ALIASES.get(f"{layer}.{fname}", f"{layer}.{fname}")
            out[f"{name}.calls"] = (tracer.calls[name] / passes, "count")
            out[f"{name}.self_s"] = (tracer.self_s[name] / passes, "s")
    out["numeric.series.self_s"] = (
        (tracer.self_s["numeric.momentum_series"] + tracer.self_s["numeric.energy_series"]) / passes,
        "s",
    )
    c = tracer.counters
    div_calls = tracer.calls["expr.div_exact"]
    zero_calls = tracer.calls["expr.is_zero"]
    legendre_calls = tracer.calls["hamiltonian.legendre"]
    wave_s = tracer.total_s["numeric.integrate_damped_wave"]
    out["expr.div_exact.sum_atom_share"] = (c["div_exact.sum_atom"] / div_calls if div_calls else 0.0, "ratio")
    out["expr.is_zero.probed_share"] = (c["is_zero.probed"] / zero_calls if zero_calls else 0.0, "ratio")
    out["hamiltonian.H_terms"] = (c["legendre.H_terms"] / legendre_calls if legendre_calls else 0.0, "count")
    out["numeric.cell_updates_per_s"] = (c["cells"] / wave_s if wave_s else 0.0, "1/s")
    out["numeric.trajectory_mb"] = (c["trajectory_bytes_max"] / 2**20, "MB")
    out["numeric.traced_peak_mb"] = (peak_mb, "MB")
    layer_self = {}
    for name, s in tracer.self_s.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s
    for layer in tracing.HOOKS:
        out[f"share.{layer}"] = (layer_self.get(layer, 0.0) / op_time if op_time else 0.0, "ratio")
    out["share.other"] = (max(0.0, 1.0 - sum(layer_self.values()) / op_time) if op_time else 0.0, "ratio")
    traced_rate = statistics.median(traced.pass_rates)
    out["trace.overhead_ratio"] = (statistics.median(untraced.pass_rates) / traced_rate, "ratio")
    both = Run()
    both.merge(untraced)
    both.merge(traced)
    out.update(shares(both))
    out.update({f"baseline.{k}": (v, "ms") for k, v in baseline.items()})
    return out


def traced_peak_mb(ops, tracer_touched: set) -> float:
    """Largest tracemalloc peak over one run of each numeric operation."""
    peak = 0.0
    for i, op in enumerate(ops):
        if i not in tracer_touched:
            continue
        tracemalloc.start()
        try:
            run_op(op, {})
            peak = max(peak, tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    return peak


def run_baseline(ctx: dict) -> dict:
    """Median in-process time of each CLI verb on the shipped model, and
    of a bare ``import mcft`` (ms)."""
    out = {"import_ms": 1000.0 * ctx["import_s"]}
    for verb, argv in BASELINE_VERBS.items():
        args = ["--json"] + [a.format(model=workloads.SHIPPED_MODEL) for a in argv]
        times = []
        for _ in range(BASELINE_REPEATS):
            t0 = time.perf_counter()
            workloads.run_cli(args)
            times.append(time.perf_counter() - t0)
        out[f"{verb}_ms"] = 1000.0 * statistics.median(times)
    return out


# ---------------------------------------------------------------------------
# environment and output


def cache_sizes() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            if not idx.startswith("index"):
                continue
            with open(os.path.join(d, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(d, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(d, "size")) as fh:
                size = fh.read().strip()
            if kind in ("Unified", "Data"):
                out[f"L{level}"] = size
    except OSError:
        pass
    return out


def environment(ctx: dict, ops, args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": ctx["inputs_sha256"],
        "models": len(ctx["models"]),
        "ops_per_pass": len(ops),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def check_declared(root: str, metrics: dict, trace: int):
    """The metrics printed must be exactly those BENCHMARK.json declares."""
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"BENCHMARK.json unreadable: {exc}", 3) from exc
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: unit for k, (_v, unit) in metrics.items()}
    if declared != printed:
        diff = sorted(set(declared.items()) ^ set(printed.items()))
        raise BenchError(f"metrics differ from BENCHMARK.json: {diff}", 3)


def one_workload(args) -> int:
    root = program_root()
    ctx = setup(root, args.workload, args.seed)
    try:
        ops = workloads.build_ops(args.workload, ctx["models"], ctx["paths"], args.seed)
    except workloads.CheckError as exc:
        raise BenchError(f"checks cannot run: {exc}", 3) from exc
    speedometer = speed.Speedometer(SPEED_KERNEL[args.workload])
    env = environment(ctx, ops, args)
    total = Run()
    if not args.trace:
        run = Run()
        run_passes(ops, args.seconds, run, speedometer, fill=True)
        metrics = end_to_end(ctx["setup_s"], run.scaled)
        raw = end_to_end(ctx["raw_setup_s"], run.raw)
        human = dict(metrics, **shares(run))
        human.update({f"raw.{k}": v for k, v in raw.items() if k != "peak_rss_mb"})
        samples = run.passes * len(ops)
        env["high_percentile"] = {"percentile": high_level(samples), "samples": samples}
        total.merge(run)
    else:
        untraced, traced = Run(), Run()
        run_passes(ops, args.seconds / 2, untraced, speedometer)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run_passes(ops, args.seconds / 2, traced, speedometer, tracer)
        finally:
            tracer.uninstall()
        op_time = sum(map(sum, traced.raw.values()))
        peak = traced_peak_mb(ops, traced.numeric_ops)
        baseline = run_baseline(ctx)
        metrics = per_layer(tracer, traced, untraced, op_time, peak, baseline)
        human = metrics
        total.merge(untraced)
        total.merge(traced)
        env["traced_passes"] = traced.passes
        env["missing_hooks"] = tracer.missing
        spans_path = os.path.join(ctx["work"], f"spans-{args.workload}-{args.seed}.json")
        tracer.write_spans(spans_path)
        env["spans_file"] = os.path.relpath(spans_path, root)
        run = traced
    check_declared(root, metrics, args.trace)
    env["passes"] = run.passes
    env["failures"] = {r: n for r, n in sorted(total.reasons.items())}
    env["known_defects"] = {k: v for k, v in workloads.KNOWN_DEFECTS.items() if k in total.reasons}
    env["unexpected_failures"] = sorted(set(total.unexpected))[:20]
    for name, (value, unit) in human.items():
        print(f"{args.workload:12s} {name:40s} {value:14.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not total.unexpected,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(ctx["work"], f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        detail = {
            "pass_rates": run.pass_rates,
            "raw_pass_rates": run.raw_pass_rates,
            "op_median_ms": {ops[i].label: 1000.0 * statistics.median(v) for i, v in run.raw.items()},
        }
        json.dump({"env": env, "result": result, "detail": detail}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def all_workloads(args) -> int:
    """Each workload in its own process (peak RSS is per process); the
    final line merges their metrics as <workload>.<metric>."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 3
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        return all_workloads(args) if args.workload == "all" else one_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
