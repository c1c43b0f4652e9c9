"""Benchmark for `htp infer` and the denoiser forward pass.

Run from the repository root:

    python3 bench/run.py --workload smoke_infer --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with nothing instrumented.
`--trace 1` runs a few operations untraced, then the same operations with
span-recording wrappers bound in place of the public names the calling
modules import, and reports per-layer and per-stage numbers against the
analytic MACs model and a float64 GEMM roofline probe. Without `--workload`
every workload runs, untraced and traced, each in its own process.
`--write-reference` regenerates the committed reference outputs.

Every table line names a metric with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The full result is also written to bench/out/BENCH_*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if current.isdigit() and 0 < int(current) < threads:
            threads = int(current)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def environment(threads: int, seed: int) -> dict:
    import numpy
    import scipy
    import workloads as W

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "workload_seed": seed,
        "reference_seed": W.REFERENCE_SEED,
    }


def fmt(value) -> str:
    if value is None:
        return "not observed"
    if isinstance(value, float) and value != int(value):
        return f"{value:.6g}"
    return str(value)


def run_workload(name: str, seed: int, seconds: float, trace: bool, threads: int) -> int:
    import measure as M
    import workloads as W

    wl = W.WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"work-{name}-") as tmp:
        bench = M.Bench(wl, seed, Path(tmp), W.load_reference(wl))
        if trace:
            values, extra = M.measure_traced(bench)
            declared = M.PER_LAYER
        else:
            values, extra = M.measure_end_to_end(bench, seconds)
            declared = M.END_TO_END
    ledger = bench.ledger
    values["failed_ratio"] = len(ledger.failures) / ledger.attempted
    units = dict(M.END_TO_END + M.PER_LAYER)
    notes = extra.get("notes", {})

    print(f"# {name}  seed={seed}  trace={int(trace)}  attempted={ledger.attempted}  failed={len(ledger.failures)}")
    for key, value in values.items():
        print(f"{key:<40} {fmt(value):>14} {units.get(key, '')}  {notes.get(key, '')}".rstrip())
    if trace:
        print(f"# stages (roofline {fmt(values['roofline.gemm_gmacs'])} GMAC/s)")
        for stage, entry in extra["stages"].items():
            print(f"denoiser.stage.{stage:<24} {fmt(entry['s']):>14} s  {entry['gmacs']:.4f} GMAC  "
                  f"roofline_frac {fmt(entry['roofline_frac'])}")
        for item in extra["not_observed"]:
            print(f"# not observed: {item}")
    for failure in ledger.failures:
        print(f"# FAILED {failure}")

    # An unobserved metric is left out of the result line, never written as 0.
    missing = [k for k, _ in declared if values.get(k) is None]
    for key in missing:
        print(f"# not observed metric: {key}")
    # A traced run's correctness is that of its outputs: a renamed layer
    # drops its metrics but does not make the program's outputs wrong.
    correct = not ledger.failures and (trace or not missing)
    result = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "environment": environment(threads, seed), "correct": correct,
        "attempted": ledger.attempted, "failed": len(ledger.failures), "failures": ledger.failures,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in values.items()},
        "not_observed_metrics": missing, **extra,
    }
    (OUT_DIR / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    line = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in declared if values.get(k) is not None},
    }
    print(json.dumps(line))
    return 0


def write_references(names: list[str]) -> int:
    import measure as M
    import workloads as W

    OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        wl = W.WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"ref-{name}-") as tmp:
            bench = M.Bench(wl, W.REFERENCE_SEED, Path(tmp), None)
            bench.infer(0)
            bench.setup(0)
            bench.forward(0)
        if bench.ledger.failures:
            print("\n".join(bench.ledger.failures), file=sys.stderr)
            return 1
        arrays = {}
        for kind in ("infer", "forward"):
            pose, retained = bench.first_outputs[(kind, W.REFERENCE_SEED)]
            arrays.update({f"{kind}_pose": pose, f"{kind}_retained": retained})
        path = W.save_reference(wl, arrays)
        print(f"reference for {name} -> {path.relative_to(ROOT)}")
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    import workloads as W

    status = 0
    for name in W.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
            print(proc.stdout, end="", flush=True)
            try:
                correct = json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
            except (IndexError, ValueError, KeyError):
                correct = False
            if proc.returncode != 0 or not correct:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="paper_default, smoke_infer, long_sparse or all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed for the inputs")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true", help="regenerate reference/<workload>.npz")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "htp" / "__init__.py").is_file():
        print(f"bench: no htp sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    threads = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import htp
    import workloads as W

    if Path(htp.__file__).resolve().parent != ROOT / "src" / "htp":
        print(f"bench: imported htp from {htp.__file__}, not from this checkout", file=sys.stderr)
        return 2
    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in W.WORKLOADS for n in names):
        print(f"bench: unknown workload {args.workload!r}; choose from {list(W.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_references(names)
    missing = [n for n in names if not W.reference_path(W.WORKLOADS[n]).is_file()]
    if missing:
        print(f"bench: no committed reference outputs for {missing}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), threads)


if __name__ == "__main__":
    sys.exit(main())
