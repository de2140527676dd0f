"""ddoscast benchmark: one workload, end to end or traced per layer.

    python3 bench/run.py --workload export-etl --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. ``--trace 0`` runs the workload's CLI
commands in fresh processes, as a user runs them, and reports the
end-to-end metrics; ``--trace 1`` re-drives the same commands in-process
with a span around every layer call and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Working files go to
``.bench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import ROOT, SRC, WORKLOADS, Check, Facts, cli_env

SETUP_REPEATS = 3


def environment() -> dict:
    """Versions and BLAS threading as observed; the benchmark sets none of it."""
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["numpy_blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    env.update(_openblas_runtime())
    return env


def _openblas_runtime() -> dict:
    """Ask the OpenBLAS library numpy loaded for its config and thread count."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.argtypes, threads.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            return {"openblas_library": os.path.basename(path),
                    "openblas_config": config().decode(),
                    "openblas_threads": threads()}
    return {"openblas_threads": None}


def _median(values):
    return statistics.median(values) if values else None


def measure(workload, seconds: float) -> tuple[dict, dict]:
    """Set up several times, then run operations until ``seconds`` are used."""
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        records = workload.setup()
        setups.append(time.perf_counter() - started)
    workload.facts = Facts.of(records)
    del records

    ops = []
    started = time.perf_counter()
    while True:
        commands = workload.run_op()
        bad = [c for c in commands if c.code != 0]
        if bad:
            check = Check(errors=[f"{bad[0].name} exited {bad[0].code}; see {workload.log}"])
        else:
            check = workload.check()
        ops.append((commands, check))
        elapsed = time.perf_counter() - started
        if elapsed + _median([sum(c.wall_s for c in cmds) for cmds, _ in ops]) > seconds:
            break

    good = [(cmds, chk) for cmds, chk in ops if not chk.errors] or ops
    op_walls = [sum(c.wall_s for c in cmds) for cmds, _ in good]
    per_command: dict[str, list[float]] = {}
    reported: dict[str, list[float]] = {}
    for cmds, chk in good:
        for c in cmds:
            per_command.setdefault(c.name, []).append(c.wall_s)
        for name, value in chk.report.items():
            reported.setdefault(name, []).append(value)
    metrics = {
        "op_s": (_median(op_walls), "s", len(op_walls)),
        "peak_rss_mb": (_median([max(c.rss_mb for c in cmds) for cmds, _ in good]), "MB",
                        len(good)),
        "model_mse_ratio": (_median([chk.quality for _, chk in good]), "ratio", len(good)),
        "setup_s": (_median(setups), "s", len(setups)),
    }
    detail = {
        "ops": [{"commands": [vars(c) for c in cmds], "errors": chk.errors, "quality": chk.quality}
                for cmds, chk in ops],
        "setup_samples": setups,
        "commands": {f"{name}_s": (_median(v), "s", len(v)) for name, v in per_command.items()}
        | {name: (_median(v), "sigma2", len(v)) for name, v in reported.items()},
    }
    return metrics, detail


def _fmt(value) -> str:
    return "unmeasured" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds, so the command it is waiting on is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "ddoscast" / "cli.py").is_file():
        print(f"error: no ddoscast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed)

    # Compile bytecode and warm the file cache before anything is timed.
    warm = subprocess.run([sys.executable, "-c", "import ddoscast.cli"], env=cli_env())
    if warm.returncode != 0:
        print("error: cannot import ddoscast.cli", file=sys.stderr)
        return 2

    env = environment()
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"why: {workload.why}")
    print("env: " + json.dumps(env, sort_keys=True))

    try:
        if args.trace:
            workload.facts = Facts.of(workload.setup())
            import tracing

            traced = tracing.run_traced(workload)
            errors = traced["errors"]
            metrics = {k: (v, unit, 1) for k, (v, unit) in traced["metrics"].items()}
            detail = {k: traced[k] for k in ("per_command", "probed", "unmeasured",
                                              "startup_samples")}
            attempted = 1
            failed = 1 if errors else 0
        else:
            metrics, detail = measure(workload, args.seconds)
            errors = [e for op in detail["ops"] for e in op["errors"]]
            attempted = len(detail["ops"])
            failed = sum(1 for op in detail["ops"] if op["errors"])
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<30} {_fmt(value):>12} {unit:<8} n={n}")
    if args.trace:
        for command, c in detail["per_command"].items():
            print(f"  cli.overhead_s.{command:<15} {c['overhead_s']:>12.6g} s        "
                  f"(in-process main {c['main_s']:.4g} s, traced re-drive {c['redrive_s']:.4g} s)")
        print(f"probed off the operation's path: {', '.join(detail['probed']) or 'none'}")
        for line in detail["unmeasured"]:
            print(f"unmeasured: {line}")
    else:
        print("per command (median wall in a fresh process) and model quality:")
        for name, (value, unit, n) in detail["commands"].items():
            print(f"  {name:<30} {_fmt(value):>12} {unit:<8} n={n}")
    for error in errors:
        print(f"check failed: {error}")
    print(f"checks: {attempted} attempted, {failed} failed")
    (work / "result.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env,
         "metrics": metrics, "detail": detail, "errors": errors}, indent=2, default=str))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                    if value is not None and math.isfinite(value)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
