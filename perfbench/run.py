"""Benchmark of cmixer training, pre-training and scoring throughput.

One workload per process:

    python3 perfbench/run.py --workload fit-tiny --seed 1 --seconds 30 --trace 0

prints failed checks on stderr, a ``record`` line (environment, unit
times and determinism digest), and as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from spans around calls into the package's modules.

``--workload all`` runs every workload in a fresh process, one at a
time, and prints a table of every metric with its unit.

Run it from the root of a checkout: the package is imported from
``src/`` beside this directory, and nothing else is used.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1  # steadier than 2 on a shared 2-core machine; see README.md
SETUP_MIN_REPEATS = 5
SETUP_SECONDS = 1.0  # set up again until this much time has passed
END_TO_END = {
    "img_per_s": "img/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "frac",
}


def _pin_blas_threads() -> None:
    """Fix the BLAS pool size; must run before numpy is imported."""
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def _import_package():
    """Import ``cmixer`` from this checkout's ``src/``; exit with an error if it is absent."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import cmixer
        import cmixer.engine  # noqa: F401  (the workloads use the submodules as attributes)
        import cmixer.estimator  # noqa: F401
        import cmixer.metrics  # noqa: F401
        import cmixer.train  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import cmixer from {src}: {exc}")
    if Path(cmixer.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: cmixer imported from {cmixer.__file__}, not from {src}")
    return cmixer


def _fresh_import():
    """Drop every ``cmixer`` module and import the package again, so its module-level work reruns."""
    for name in [m for m in sys.modules if m == "cmixer" or m.startswith("cmixer.")]:
        del sys.modules[name]
    return _import_package()


def _blas_threads_in_use():
    """The thread count OpenBLAS reports, or None if it cannot be asked."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    mem_available = None
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    mem_available = int(line.split()[1]) // 1024
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads_in_use(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "mem_available_mb": mem_available,
    }


def _run_unit(workload, tracer):
    """One unit of work; returns (Output or None, wall seconds, traceback text)."""
    t0 = perf_counter()
    try:
        if tracer is None:
            out = workload.run()
        else:
            with tracer.installed(), tracer.span("bench.unit"):
                out = workload.run()
    except Exception:  # an operation that raises is a failed operation
        return None, perf_counter() - t0, traceback.format_exc()
    return out, perf_counter() - t0, ""


class Tally:
    """Attempted and failed operations, their problems, and the first good unit."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first = None  # Checked of the first good unit

    def add(self, checked, label: str) -> None:
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.problems += [f"{label}: {p}" for p in checked.problems]

    def unit(self, out, error: str, label: str) -> bool:
        """Count one unit; True when all its operations passed."""
        from workloads import Checked

        ops = self.workload.ops
        if out is None:
            checked = Checked(ops, ops, [f"raised\n{error}"], "", float("nan"))
        else:
            try:
                checked = self.workload.check(out)
            except Exception as exc:  # a check that cannot run fails the unit
                checked = Checked(ops, ops, [f"check raised {exc!r}"], "", float("nan"))
            if self.first is None and not checked.failed:
                self.first = checked
            elif self.first is not None and checked.digest != self.first.digest:
                checked.problems.append("outputs differ from the first unit's")
                checked.failed = checked.attempted
        self.add(checked, label)
        return checked.failed == 0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from spans import Tracer, per_layer_units
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        # Set-up is the package import plus the workload's inputs and model,
        # repeated so that setup_s is a median; the last import is the one used.
        setups = []
        setup_deadline = perf_counter() + SETUP_SECONDS
        while len(setups) < SETUP_MIN_REPEATS or perf_counter() < setup_deadline:
            t0 = perf_counter()
            cm = _fresh_import()
            workload = cls(cm, seed, Path(tmp))
            workload.setup()
            setups.append(perf_counter() - t0)
        tally = Tally(workload)
        prepared = workload.prepare()
        if prepared is not None:
            tally.add(prepared, "reference pass")
        warmups = []
        for i in range(workload.warmup_units):
            out, wall, error = _run_unit(workload, None)
            tally.unit(out, error, f"warm-up unit {i}")
            warmups.append(wall)
            del out

        # Traced runs alternate untraced and traced units, so each traced
        # unit has an untraced neighbour to measure the overhead against.
        tracer = Tracer(cm) if trace else None
        timed, walls = [], {False: [], True: []}
        deadline = perf_counter() + seconds
        while True:
            traced = trace and len(walls[False]) > len(walls[True])
            out, wall, error = _run_unit(workload, tracer if traced else None)
            ok = tally.unit(out, error, f"unit {len(walls[False]) + len(walls[True])}")
            walls[traced].append(wall)
            if ok and not traced:
                timed.append((out.images, out.seconds))
            del out  # a unit's outputs must not outlive it, or peak RSS grows per unit
            if perf_counter() >= deadline and (not trace or walls[True]):
                break

    for p in tally.problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    first = tally.first
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "setup_s_samples": [round(sec, 4) for sec in setups],
        "warmup_unit_wall_s": [round(sec, 4) for sec in warmups],
        "unit_wall_s": [round(sec, 4) for sec in walls[False]],
        "traced_unit_wall_s": [round(sec, 4) for sec in walls[True]],
        "env": environment(),
        "determinism": {
            "value_name": first.value_name if first else None,
            "value": first.value if first else None,
            "sha256": first.digest if first else None,
        },
    }
    print(json.dumps({"record": record}))

    if trace:
        metrics = tracer.summary(len(walls[True]))
        extra = statistics.median(t - u for u, t in zip(walls[False], walls[True]))
        metrics["trace.overhead_ms"] = extra * 1e3
        metrics["trace.overhead_frac"] = extra / statistics.median(walls[False])
        units = per_layer_units()
    else:
        metrics = {
            "img_per_s": statistics.median(n / sec for n, sec in timed) if timed else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "setup_s": statistics.median(setups),
            "ok_frac": 1.0 - tally.failed / max(tally.attempted, 1),
        }
        units = END_TO_END
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one at a time, then one table."""
    from workloads import WORKLOADS

    rows, combined, correct, attempted, failed = [], {}, True, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"{name}: {line}")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
            combined[f"{name}/{metric}"] = m
    width = max(len(r[1]) for r in rows)
    for name, metric, value, unit in rows:
        print(f"{name:16s} {metric:{width}s} {value:14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="fit-tiny, pretrain-ref, score-breast or all")
    parser.add_argument("--seed", type=int, default=0, help="taken modulo 2**32")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_blas_threads()
    _import_package()  # exits with an error when the package is not there
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_workload(args.workload, args.seed % 2**32, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
