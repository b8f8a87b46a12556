"""Benchmark of the fpp verifier, timed per module.

    python3 perfbench/run.py --workload exhaustive-n8 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py              # every workload, each in its own process
    python3 perfbench/run.py --smoke      # every workload once, at small sizes

One workload runs in one process: it times the set-up in fresh
interpreters, builds its inputs from the seed, then runs passes over its
jobs (closed loop, one job at a time, serial sweep) for the given seconds,
checking every verdict.  With ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics instead.  The last line of
standard output is one JSON object; the exit code is 0 only if every
verdict was right.  See README.md in this directory for the workloads and
metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, so that a job uses one core and dense timings do not
# depend on what else the machine runs.  Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9

WORKLOADS = ("exhaustive-n8", "labelings-n3-dense", "reject-n7")

END_TO_END = {
    "wall_s": "s",
    "states_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "perms.validate_s": "s",
    "perms.validate_words_per_s": "1/s",
    "perms.enumerate_s": "s",
    "algorithms.build_s": "s",
    "algorithms.sweep_s": "s",
    "algorithms.sweep_states_per_s": "1/s",
    "circuit.execute_s": "s",
    "circuit.bit_assign_s": "s",
    "algorithms.sweep_self_s": "s",
    "algorithms.solve_s": "s",
    "algorithms.solve_ys_per_s": "1/s",
    "densesim.promise_s": "s",
    "densesim.run_dense_s": "s",
    "densesim.runs_per_s": "1/s",
    "algorithms.reject_witness_frac": "frac",
    "algorithms.pool2_speedup": "ratio",
    "circuit.gates": "count",
    "circuit.queries": "count",
    "algorithms.states": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "frac",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="Benchmark of the fpp verifier.")
    p.add_argument("--workload", choices=WORKLOADS, default=None,
                   help="run one workload in this process (default: all, one process each)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0,
                   help="measuring time; passes are started only while they fit")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one pass per mode at small sizes (n=5, 2 labelings)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_fpp():
    sys.path.insert(0, str(SRC))
    import fpp

    if not Path(fpp.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"fpp imported from {fpp.__file__}, not from {SRC}")
    return fpp


def _probe(args: argparse.Namespace) -> int:
    """Time importing fpp and building the inputs, in this fresh interpreter."""
    t0 = time.perf_counter()
    _import_fpp()
    from spans import NullTracer
    from workloads import setup

    setup(args.workload, args.seed, args.smoke, NullTracer())
    print(time.perf_counter() - t0)
    return 0


def _child_args(args: argparse.Namespace, workload: str) -> list[str]:
    out = ["--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return out + (["--smoke"] if args.smoke else [])


def _setup_times(args: argparse.Namespace) -> list[float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", *_child_args(args, args.workload)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def _facts() -> dict[str, object]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=30)
        commit = proc.stdout.strip() or commit
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "fpp").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_fpp_lines": src_lines,
    }


def _setup_total(tracer, name: str) -> float:
    return sum(s.seconds for s in getattr(tracer, "spans", ()) if s.name == name)


def _measure(args: argparse.Namespace, inputs):
    """Passes until the next would overrun ``--seconds`` (at least one).

    Returns the untraced passes, each with its speed factor (pass times
    exclude the speed samples), and the traced passes with their tracers.
    """
    from spans import NullTracer, Tracer, instrument
    from speed import SpeedProbe
    from workloads import run_pass

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        gc.collect()
        with SpeedProbe(inputs.speed_kernel) as speed:
            res = run_pass(inputs, NullTracer())
        res.wall -= speed.overhead
        untraced.append((res, speed.factor()))
        if args.trace:
            tracer = Tracer()
            gc.collect()
            with instrument(tracer):
                traced.append((run_pass(inputs, tracer), tracer))
        round_s = time.perf_counter() - t_round
        if args.smoke or time.perf_counter() - start + round_s > args.seconds:
            return untraced, traced


def _layer_metrics(args, untraced, traced, setup_tracer) -> tuple[dict, bool]:
    """Per-layer metrics of the traced passes, and whether the 2-process
    sweep agreed with the serial one."""
    from spans import layer_metrics
    from workloads import pool2_speedup

    speedup, same = pool2_speedup(5 if args.smoke else 8)
    per_pass = [layer_metrics(tracer.spans, res.wall) for res, tracer in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    results = [res for res, _ in untraced + traced]
    rejected = sum(r.rejected for r in results)
    first = untraced[0][0]
    metrics.update({
        "perms.enumerate_s": _setup_total(setup_tracer, "perms.enumerate"),
        "algorithms.build_s": _setup_total(setup_tracer, "algorithms.build"),
        "algorithms.reject_witness_frac":
            sum(r.witnessed for r in results) / rejected if rejected else 0.0,
        "algorithms.pool2_speedup": speedup,
        "circuit.gates": first.gates,
        "circuit.queries": first.queries,
        "trace.overhead_s": statistics.median(res.wall for res, _ in traced)
        - statistics.median(res.wall for res, _ in untraced),
    })
    return {name: metrics[name] for name in PER_LAYER}, same


def _write_spans(path: Path, setup_tracer, traced) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        labeled = [("setup", setup_tracer)] + [(f"pass{i}", t) for i, (_, t) in enumerate(traced)]
        for label, tracer in labeled:
            for s in tracer.spans:
                fh.write(json.dumps({"trace": label, **s.to_json()}) + "\n")


def _run_one(args: argparse.Namespace) -> int:
    setup_times = _setup_times(args)
    _import_fpp()
    from spans import NullTracer, Tracer
    from workloads import setup

    setup_tracer = Tracer() if args.trace else NullTracer()
    inputs = setup(args.workload, args.seed, args.smoke, setup_tracer)
    untraced, traced = _measure(args, inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    results = [res for res, _ in untraced + traced]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    errors = [e for r in results for e in r.errors]
    wall = statistics.median(res.wall for res, _ in untraced)
    if args.trace:
        metrics, same = _layer_metrics(args, untraced, traced, setup_tracer)
        attempted += 1
        if not same:
            failed += 1
            errors.append("pool2: the 2-process sweep differs from the serial one")
        units = PER_LAYER
    else:
        rescaled_wall = statistics.median(res.wall * factor for res, factor in untraced)
        metrics = {
            "wall_s": rescaled_wall,
            "states_per_s": untraced[0][0].states / rescaled_wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "facts": _facts(), "notes": inputs.notes,
        "jobs_per_pass": len(inputs.jobs),
        "untraced_pass_walls_s": [res.wall for res, _ in untraced],
        "untraced_pass_speed_factors": [factor for _, factor in untraced],
        "traced_pass_walls_s": [res.wall for res, _ in traced],
        "setup_probes_s": setup_times,
        "measured_wall_s": wall,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "errors": errors,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        _write_spans(OUT / f"{stem}-spans.jsonl", setup_tracer, traced)

    for key, value in report["facts"].items():
        print(f"fact {key}: {value}")
    for note in inputs.notes:
        print(note)
    print(f"passes: untraced {len(untraced)}, traced {len(traced)}, "
          f"{len(inputs.jobs)} jobs each")
    print(f"{args.workload} measured wall_s {wall:.6g} s (before rescaling to the reference speed)")
    for error in errors:
        print(f"error: {error}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(f"{args.workload} failed_frac {failed / attempted:.6g} frac")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if failed == 0 else 1


def _missing(metrics: dict, expected: dict[str, str]) -> list[str]:
    """Names whose metric is absent, has the wrong unit, or is not a number."""
    return [
        name for name, unit in expected.items()
        if not isinstance(metrics.get(name, {}).get("value"), (int, float))
        or metrics[name].get("unit") != unit
    ]


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process; a table of every metric."""
    status = 0
    modes = (0, 1) if args.smoke else (args.trace,)
    for workload in WORKLOADS:
        for trace in modes:
            child = argparse.Namespace(**{**vars(args), "trace": trace})
            cmd = [sys.executable, str(HERE / "run.py"), *_child_args(child, workload)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines() or [""]
            try:
                result = json.loads(lines[-1])
            except ValueError:
                result = {}
            print("\n".join(l for l in lines[:-1] if l.startswith((workload, "error"))))
            bad = _missing(result.get("metrics", {}), PER_LAYER if trace else END_TO_END)
            if proc.returncode != 0 or not result.get("correct") or bad:
                status = 1
                print(f"{workload} trace={trace}: FAILED (exit {proc.returncode}, "
                      f"missing or wrong metrics: {bad or 'none'})")
    print("RESULT:", "PASS" if status == 0 else "FAIL")
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "fpp" / "__init__.py").is_file():
        print(f"error: no fpp sources at {SRC / 'fpp'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return _probe(args)
    if args.workload is None:
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
