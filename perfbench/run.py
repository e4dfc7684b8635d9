#!/usr/bin/env python3
"""Seeded, closed-loop benchmark of perfstruct, end to end and per layer.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

One process drives one client: each operation starts when the previous one
returns.  A run repeats rounds of the workload's seeded op list until
``--seconds`` have passed, checking every output (untimed) against
``checks``.  ``--trace 0`` reports the end-to-end metrics, with every time
scaled to a calm machine by the reference times measured around it
(``calibrate``); ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics, each per round of the op list, in unscaled
time.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 1 when any output failed its
check and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: the workloads BENCHMARK.json lists; ``all`` runs these
WORKLOADS = ("exact-verify", "spectral", "census", "cli-cold")
#: set-ups per run: this process, then probes in fresh child processes, half
#: before and half after the timed window so one slow spell cannot cover all
SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB"}

#: functions whose calls and self time are reported, by layer
SELF_TIMED = {
    "matrix": ("matmul_exact", "matmul_complex", "exact", "to_complex", "eig",
               "eigenvalues", "is_diagonalizable", "rank", "inverse", "cluster_values",
               "multiset_discrepancy", "multiset_leq", "kron", "poly_eval"),
    "graphs": ("make_family", "is_regular", "is_connected", "numeric_spectrum",
               "closed_form_spectrum"),
    "products": ("build_product", "product_spectrum", "product_structures",
                 "product_eigenvector"),
    "structures": ("verify", "compose", "transform_polynomial", "parameters_from_structure",
                   "canonical_form", "structure_space_basis", "spectrum_inclusion_check"),
    "contraction": ("contract_named", "verify_contraction_theorem"),
    "colorings": ("verify_coloring", "product_coloring", "verify_fractional",
                  "Coloring.from_colors", "census"),
    "files": ("parse_graph_text", "parse_coloring_text", "parse_vector_text", "dump_graph"),
}
CLI_SUBCOMMANDS = ("spectrum", "verify", "product", "contract", "census")


def per_layer_catalogue() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, funcs in SELF_TIMED.items():
        for fn in funcs:
            out += [(f"{layer}.{fn}.calls", "count", "lower"),
                    (f"{layer}.{fn}.self_s", "s", "lower")]
    out += [("matrix.matmul_exact.scalar_ops", "count", "lower"),
            ("matrix.to_complex.entries", "count", "lower"),
            ("matrix.eig.residual_max", "1", "lower"),
            ("colorings.verify_coloring.accept_ratio", "ratio", "higher"),
            ("colorings.census.nodes", "count", "lower"),
            ("colorings.census.nodes_per_s", "1/s", "higher"),
            ("colorings.census.yield", "ratio", "higher"),
            ("cli.interpreter_ms", "ms", "lower"),
            ("cli.import_ms", "ms", "lower")]
    out += [(f"cli.{sub}.wall_ms", "ms", "lower") for sub in CLI_SUBCOMMANDS]
    out.append(("trace.overhead_ratio", "ratio", "higher"))
    return out


# -- one run ----------------------------------------------------------

def prepare_environment() -> dict:
    """One BLAS thread, never more than the cores this process may use, and
    this process and its children pinned to one core: child ops and the
    references that scale them then run where the op would, and the process
    does not migrate mid-op.  Returns the cores allowed and the one used."""
    cores = os.sched_getaffinity(0)
    pinned = max(cores)
    os.sched_setaffinity(0, {pinned})
    threads = str(min(1, len(cores)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))
    return {"nproc": len(cores), "pinned_core": pinned}


def environment_record(cores: dict) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", **cores,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "python_optimize": sys.flags.optimize, "worker_processes": 1}


def set_up(args, workdir: Path):
    """Imports, seeded input generation and warm-up: the first op of each kind,
    which makes the first LAPACK call where the workload makes one."""
    import perfstruct
    import workloads

    if Path(perfstruct.__file__).resolve().parent != ROOT / "src" / "perfstruct":
        raise RuntimeError(f"imported perfstruct from {perfstruct.__file__}, not this checkout")
    wl = workloads.build(args.workload, args.seed, args.tiny, str(ROOT), str(workdir))
    warm = [run_op(op, None) for op in wl.warm]
    return wl, warm


def timed_set_up(args, workdir: Path):
    """set_up, and its (unscaled, scaled) time, scaled by the machine's speed
    just after it."""
    start = perf_counter()
    wl, warm = set_up(args, workdir)
    elapsed = perf_counter() - start
    import calibrate

    return wl, warm, (elapsed, calibrate.scaled_setup(elapsed))


def run_op(op, tracer):
    """(ok, seconds, error) for one timed call and its untimed check."""
    with tracer.span(f"op.{op.kind}") if tracer else contextlib.nullcontext():
        start = perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            out, err = None, exc
        elapsed = perf_counter() - start
    if err is None:
        try:
            if not op.check(out):
                err = AssertionError(f"{op.kind}: output failed its check")
        except Exception as exc:
            err = exc
    return err is None, elapsed, err


def probe_setup(args) -> tuple[float, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    unscaled, scaled = proc.stdout.split()[-2:]
    return float(unscaled), float(scaled)


def measure(wl, seconds: float, trace: bool):
    """Rounds of the op list until ``seconds`` pass; traced rounds alternate.

    Between untraced ops the reference computation is timed (untimed for the
    op), and each untraced op's time is scaled by the references around it.
    """
    from calibrate import WINDOW, SpeedLog
    from tracing import Tracer

    tracer = Tracer() if trace else None
    speed = SpeedLog(wl.reference)
    speed.probe(WINDOW)
    ended, outcomes = [], []
    rates = {False: [], True: []}
    extras: dict[str, list] = {}
    start = perf_counter()
    rnd = 0
    while perf_counter() - start < seconds or rnd < (2 if trace else 1):
        traced = trace and rnd % 2 == 1
        busy = 0.0
        if traced:
            tracer.install()
        try:
            for op in wl.ops:
                ok, elapsed, err = run_op(op, tracer if traced else None)
                busy += elapsed
                outcomes.append((ok, err))
                if not traced:
                    ended.append((elapsed, perf_counter()))
                    speed.after_op(elapsed)
            if traced and wl.traced_extras:
                for key, value in wl.traced_extras(tracer).items():
                    extras.setdefault(key, []).append(value)
        finally:
            if traced:
                tracer.uninstall()
        rates[traced].append((len(wl.ops), busy))
        rnd += 1
    speed.probe(WINDOW)
    scaled = [elapsed * speed.scale(end) for elapsed, end in ended]
    return scaled, outcomes, rates, tracer, extras, statistics.median(speed.took)


def per_layer(tracer, rounds: int, rates, extras) -> dict:
    selfs = tracer.self_times()
    c = tracer.counters
    out = {}
    for layer, funcs in SELF_TIMED.items():
        for fn in funcs:
            calls, self_s = selfs.get(f"{layer}.{fn}", (0, 0.0))
            out[f"{layer}.{fn}.calls"] = calls / rounds
            out[f"{layer}.{fn}.self_s"] = self_s / rounds
    verifies = selfs.get("colorings.verify_coloring", (0, 0.0))[0]
    census_self = selfs.get("colorings.census", (0, 0.0))[1]
    nodes = c["colorings.census.nodes"]
    out.update({
        "matrix.matmul_exact.scalar_ops": c["matrix.matmul_exact.scalar_ops"] / rounds,
        "matrix.to_complex.entries": c["matrix.to_complex.entries"] / rounds,
        "matrix.eig.residual_max": c["matrix.eig.residual_max"],
        "colorings.verify_coloring.accept_ratio":
            c["colorings.verify_coloring.accepted"] / verifies if verifies else 0.0,
        "colorings.census.nodes": nodes / rounds,
        "colorings.census.nodes_per_s": nodes / census_self if census_self else 0.0,
        "colorings.census.yield": c["colorings.census.results"] / nodes if nodes else 0.0,
    })
    for key in ("cli.interpreter_ms", "cli.import_ms"):
        out[key] = statistics.median(extras[key]) if key in extras else 0.0
    walls: dict[str, list] = {}
    for name, start, end, _ in tracer.spans:
        if name.startswith("op.cli-"):
            walls.setdefault(name[len("op.cli-"):], []).append((end - start) * 1e3)
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.wall_ms"] = statistics.median(walls[sub]) if sub in walls else 0.0
    out["trace.overhead_ratio"] = throughput(rates[True]) / throughput(rates[False])
    return out


def percentile(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def throughput(rounds) -> float:
    """Ops completed per second of timed wall clock, over (ops, seconds) rounds."""
    return sum(n for n, _ in rounds) / sum(t for _, t in rounds)


def run_one(args) -> int:
    cores = prepare_environment()
    workdir = HERE / f"_work-{os.getpid()}"
    wl = None
    try:
        wl, warm, setup_main = timed_set_up(args, workdir)
        if args.setup_only:
            print(*map(repr, setup_main))
            return 0
        probes = SETUP_REPEATS - 1
        setups = [setup_main] + [probe_setup(args) for _ in range(probes // 2)]
        latencies, outcomes, rates, tracer, extras, reference_s = measure(
            wl, args.seconds, args.trace)
        setups += [probe_setup(args) for _ in range(probes - probes // 2)]
        outcomes = warm + [(ok, 0.0, err) for ok, err in outcomes]
        peak_rss = wl.peak_rss_mb()
    finally:
        if wl is not None:
            wl.cleanup()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outcomes)
    errors = [err for ok, _, err in outcomes if not ok]
    for err in errors[:5]:
        print(f"FAILED: {type(err).__name__}: {err}", file=sys.stderr)

    units = dict(END_TO_END)
    counts = {}
    if args.trace:
        rounds = len(rates[True])
        metrics = per_layer(tracer, rounds, rates, extras)
        units = {name: unit for name, unit, _ in per_layer_catalogue()}
        counts = {name: f"{rounds} traced rounds; counts and times per round"
                  for name in metrics}
        spans_dir = HERE / "_out"
        spans_dir.mkdir(exist_ok=True)
        tracer.dump(spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        n = len(latencies)
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "ops_per_s": n / sum(latencies),
            "op_p50_ms": percentile(latencies, 50) * 1e3,
            "op_p90_ms": percentile(latencies, 90) * 1e3,
            "peak_rss_mb": peak_rss,
        }
        counts = {"setup_s": f"median of {len(setups)} set-ups, scaled",
                  "ops_per_s": f"{n} ops in {n // len(wl.ops)} rounds, scaled",
                  "op_p50_ms": f"n={n}",
                  "op_p90_ms": f"n={n}, {n - int(0.9 * n)} beyond",
                  "peak_rss_mb": "largest child" if args.workload == "cli-cold" else "this process"}

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "ops_per_round": len(wl.ops), "op_digest": wl.digest(),
              "fail_ratio": len(errors) / attempted, "environment": environment_record(cores),
              "round_ops_per_s": [round(n / t, 3) for n, t in rates[False]],
              "reference_ms": reference_s * 1e3,
              "setup_s_unscaled": [unscaled for unscaled, _ in setups]}
    print(json.dumps({"report": report}, sort_keys=True))
    print(f"fail_ratio {len(errors) / attempted:.6g} ratio ({len(errors)}/{attempted})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]} ({counts[name]})")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if errors else 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one summary line last."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []), cwd=ROOT,
                              capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        code = max(code, proc.returncode)
        if not lines or proc.returncode not in (0, 1):
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs (smoke test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "perfstruct" / "__init__.py").is_file():
        print(f"error: no perfstruct sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if sys.flags.optimize:
        print("error: run without -O; the library's assert cross-checks are timed work",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
