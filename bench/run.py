"""rlwean benchmark: one command, four workloads, correctness-checked ops.

    python3 bench/run.py --workload ppo-grid-qprior --seed 0 --seconds 22 --trace 0

Run from the root of a source checkout; rlwean is imported from `src/`.
Each workload is a closed loop in this one process: an op (one `rlwean`
command, called in-process through `rlwean.cli.main`) starts when the
previous one has finished and has been checked.

Both modes start with one checked, untimed warm-up op. --trace 0 then runs
ops until --seconds have passed and reports the end-to-end metrics.
--trace 1 runs a fixed number of ops twice each, once untraced and once
with span wrappers installed, and reports the per-layer metrics; the fixed
count makes its counters repeat exactly for a given seed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it records provenance.
"""

import time

T0 = time.perf_counter()  # set-up time starts here, before rlwean is imported

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACES = ROOT / ".bench-traces"
SETUP_PROBES = 8  # extra set-ups in child processes; setup_s is the median
# End-to-end metrics. throughput is work units per second: env steps for
# the PPO and DQN workloads, full verify passes for oracle-verify.
UNITS = {"throughput": "1/s", "setup_s": "s", "peak_rss_mb": "MiB",
         "ok_rate": "ratio"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import rlwean from this checkout's src/, never from elsewhere."""
    package = SRC / "rlwean"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no rlwean sources at {package}")
    sys.path.insert(0, str(SRC))
    import rlwean
    if Path(rlwean.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported rlwean from {rlwean.__file__}")


def setup(workload_name: str, seed: int):
    """Everything before the first op: imports, inputs, priors."""
    import_program()
    import workloads
    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload_name!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[workload_name]
    goldens = workloads.load_goldens()
    workload.prepare(goldens)
    seeds = workloads.program_seeds(workload_name, seed)
    return workload, goldens["digests"].get(workload_name, {}), seeds


@dataclass
class Op:
    """Outcome of one op: timing, output digest, or why it failed."""

    seed: int
    wall: float
    cpu: float
    digest: str | None = None
    error: str | None = None


def run_op(workload, seed: int, out_root: Path, golden: dict) -> Op:
    """Run one command, check its output, and remove what it wrote."""
    import rlwean.cli
    out_dir = Path(tempfile.mkdtemp(dir=out_root))
    argv = workload.argv(seed, out_dir)
    stdout, stderr = io.StringIO(), io.StringIO()
    code, raised = None, None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            code = rlwean.cli.main(argv)
        except Exception:
            raised = traceback.format_exc()
        t1, c1 = time.perf_counter(), time.process_time()
    op = Op(seed, t1 - t0, c1 - c0)
    try:
        if raised:
            op.error = raised
        elif code != 0:
            op.error = f"exit code {code}: {stderr.getvalue().strip()}"
        else:
            op.digest = workload.check(seed, out_dir, stdout.getvalue())
            expected = golden.get(str(seed))
            if expected is not None and op.digest != expected:
                op.error = f"digest {op.digest} != golden {expected}"
    except Exception as exc:  # any error while checking fails the op
        op.error = f"check failed: {exc!r}"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if op.error:
        print(f"op seed={seed} failed: {op.error}", file=sys.stderr)
    return op


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(args) -> float:
    """Set up again in a fresh process and return its set-up seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def timed_run(args, workload, golden, seeds, out_root, setup_s):
    """Closed loop for --seconds; end-to-end metrics."""
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < args.seconds:
        ops.append(run_op(workload, next(seeds), out_root, golden))
    rss = peak_rss_mb()
    setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
    rates = [workload.work_per_op / op.wall for op in ops if not op.error]
    metrics = {
        "throughput": statistics.median(rates) if rates else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    return ops, metrics


def traced_run(args, workload, golden, seeds, out_root):
    """Fixed number of op pairs, one untraced and one traced op on the same
    seed; per-layer metrics from the traced ops. The side that runs first
    alternates, so a drift in machine speed cancels in the overhead share."""
    import spans
    tracer = spans.Tracer()
    ops, plain, traced = [], [], []
    for i in range(workload.traced_ops):
        seed = next(seeds)
        if i % 2:
            with tracer.installed():
                b = run_op(workload, seed, out_root, golden)
        a = run_op(workload, seed, out_root, golden)
        if not i % 2:
            with tracer.installed():
                b = run_op(workload, seed, out_root, golden)
        if not (a.error or b.error) and a.digest != b.digest:
            b.error = f"traced digest {b.digest} != untraced {a.digest}"
        ops += [a, b]
        plain.append(a)
        traced.append(b)
    TRACES.mkdir(exist_ok=True)
    tracer.save(TRACES / f"{args.workload}-seed{args.seed}.npz")
    plain_wall = sum(op.wall for op in plain)
    metrics = spans.layer_metrics(
        tracer,
        cpu_per_wall=sum(op.cpu for op in plain) / plain_wall,
        overhead_share=sum(op.wall for op in traced) / plain_wall - 1.0)
    return ops, metrics


def provenance(workload) -> dict:
    import numpy as np
    src = hashlib.sha256()
    for path in sorted((SRC / "rlwean").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            git_rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)),
                     "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {
        "git_rev": git_rev,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "work_unit": workload.unit,
        "work_per_op": workload.work_per_op,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workload, golden, seeds = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    with tempfile.TemporaryDirectory(prefix=".bench-out-", dir=ROOT) as tmp:
        # The first op of a process runs its GEMMs about twice as slowly
        # (BLAS thread pool and allocator warm-up); it is checked, not timed.
        warmup = run_op(workload, next(seeds), Path(tmp), golden)
        if args.trace:
            ops, metrics = traced_run(args, workload, golden, seeds, Path(tmp))
        else:
            ops, metrics = timed_run(args, workload, golden, seeds, Path(tmp),
                                     setup_s)
    ops.insert(0, warmup)
    failed = sum(1 for op in ops if op.error)
    print(json.dumps({"provenance": provenance(workload),
                      "op_seconds": [op.wall for op in ops]}))
    if not args.trace:
        metrics["ok_rate"] = (len(ops) - failed) / len(ops)
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
