"""End-to-end benchmark of the user-facing profiling paths.

    python3 perfbench/run.py --workload cold-profile --seed 1 --seconds 25 --trace 0

Builds the package (with the optional C core) from this checkout's
sources into ``.bench_build/``, then runs one workload in a child
process group so that every process it starts is stopped at the end.
Prints a readable report, a ``{"detail": ...}`` line (host record, sample
counts, tail percentiles, simulated statistics), and as the last line the
result: ``{"correct", "attempted", "failed", "metrics"}`` — end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

from workloads import LAYERS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

#: one run, set-up included, must end well inside 180 s
RUN_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "hit_p50_s": "s",
    "hit_tail_s": "s",
}

PER_LAYER = {
    "apps.resumes": "count",
    "apps.ops_per_s": "1/s",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.accel_loops": "count",
    "sim.resume_s": "s",
    "checkpoint.record_s": "s",
    "checkpoint.hit_ratio": "ratio",
    "snapshot.bytes": "B",
    "snapshot.encode_s": "s",
    "snapshot.decode_s": "s",
    "profiler.hook_s": "s",
    "analysis.build_s": "s",
    "wire.bytes_per_run": "B",
    "wire.encode_s": "s",
    "wire.decode_s": "s",
    "parallel.dispatch_s": "s",
    "parallel.retries": "ratio",
    "journal.append_s": "s",
    "journal.appends": "count",
    "service.admit_s": "s",
    "service.queue_wait_s": "s",
    "service.store_get_s": "s",
    "service.store_put_s": "s",
    "service.hit_ratio": "ratio",
    "service.shed": "ratio",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead": "ratio",
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.calls"] = "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work-dir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ------------------------------------------------------------------ build


#: bump when ensure_build changes what it leaves in the build directory
BUILD_RECIPE = "2: setup.py build, then compileall"


def source_digest() -> str:
    """Hash of everything the build reads, to rebuild only on change."""
    h = hashlib.sha256(BUILD_RECIPE.encode())
    paths = [os.path.join(ROOT, "setup.py"), os.path.join(ROOT, "pyproject.toml")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames[:] = sorted(d for d in dirnames
                             if d != "__pycache__" and not d.endswith(".egg-info"))
        paths += [os.path.join(dirpath, f) for f in sorted(filenames)
                  if f.endswith((".py", ".c", ".h"))]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def ensure_build() -> str:
    """Build the package and its C core into ``.bench_build/lib``."""
    lib = os.path.join(BUILD, "lib")
    stamp = os.path.join(BUILD, "stamp")
    digest = source_digest()
    if os.path.exists(stamp):
        with open(stamp) as fh:
            if fh.read() == digest:
                return lib
    for sub in ("lib", "tmp", "egg"):
        shutil.rmtree(os.path.join(BUILD, sub), ignore_errors=True)
    os.makedirs(os.path.join(BUILD, "egg"))
    # egg_info is pointed into the build directory: by default the build
    # rewrites the metadata under src/
    subprocess.run(
        [sys.executable, "setup.py", "-q",
         "egg_info", "--egg-base", os.path.join(BUILD, "egg"),
         "build", "--build-base", os.path.join(BUILD, "tmp"), "--build-lib", lib],
        cwd=ROOT, check=True, stdout=sys.stderr,
    )
    # bytecode is compiled once here, as a package install does; the runs
    # (PYTHONDONTWRITEBYTECODE) would otherwise compile the sources in
    # every fresh interpreter that set-up times
    subprocess.run([sys.executable, "-m", "compileall", "-q", lib],
                   check=True, stdout=sys.stderr)
    with open(stamp, "w") as fh:
        fh.write(digest)
    return lib


# ------------------------------------------------------------------ outer


def _stop_group(pgid: int) -> None:
    """SIGKILL what is left of the run's process group and wait until it
    is gone (orphans are reaped by init, so poll for the group)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def outer(args) -> int:
    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no repro sources under src/ in this checkout", file=sys.stderr)
        return 2
    lib = ensure_build()
    work_dir = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    env = dict(os.environ, PYTHONPATH=lib, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--inner",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    # a terminated benchmark still stops its run group (in the finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s; stopped", file=sys.stderr)
        code = 1
    finally:
        _stop_group(proc.pid)
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


# ------------------------------------------------------------------ inner


def report(result) -> None:
    host = result["host"]
    print(f"workload {result['workload']}  seed {result['seed']}  " + "  ".join(
        f"{k}={v}" for k, v in host.items()))
    s = result["samples"]
    counts = {
        "setup_s": f"median of {s['setup_s']} set-ups",
        "op_p50_s": f"n={s['op']}",
        "op_tail_s": f"p{s['op_tail_pct']}, n={s['op']}",
        "ops_per_s": f"n={s['op']}",
        "peak_rss_mb": "caller, pool workers, daemon",
        "hit_p50_s": f"n={s['hit']}",
        "hit_tail_s": f"p{s['hit_tail_pct']}, n={s['hit']}",
    }
    for name, value in result["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<14} {shown:>12} {END_TO_END[name]:<4} ({counts[name]})")
    for name, value in result["layers"].items():
        print(f"  {name:<28} {value:>14.6g} {PER_LAYER[name]}")
    print(f"  ops attempted {result['attempted']}  failed {result['failed']} "
          f"{result['failures'] or ''}  hits: {result['hit']}")


def inner(args) -> int:
    from workloads import Sizing, run_workload

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          Sizing(), args.work_dir)
    report(result)
    detail = {k: v for k, v in result.items() if k not in ("metrics", "layers")}
    print(json.dumps({"detail": detail}, sort_keys=True))
    values = result["layers"] if args.trace else result["metrics"]
    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(n for n in units if values.get(n) is None)
    if missing:
        print(f"perfbench: too few samples for {', '.join(missing)}; "
              f"a longer --seconds is needed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    return inner(args) if args.inner else outer(args)


if __name__ == "__main__":
    sys.exit(main())
