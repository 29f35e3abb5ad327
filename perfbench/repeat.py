"""Repeat benchmark runs over seeds, and compare two sets of runs.

    python3 perfbench/repeat.py --workload fit-tiny --seeds 1-10 --out a.jsonl
    python3 perfbench/repeat.py --summary a.jsonl
    python3 perfbench/repeat.py --compare a.jsonl b.jsonl

Each run is a fresh, untraced ``run.py`` process that measures for the
``run_seconds`` of ``BENCHMARK.json``; its record and result are
appended to ``--out`` as one JSON line. ``--summary`` prints, per
workload and end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median next to the metric's bound in ``BENCHMARK.json``.
``--compare`` checks that the second set's median is not worse than the
first's by more than the bound, and that runs with the same workload
and seed have the same determinism digest. It exits 1 if either fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def _load(path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bounds() -> dict[str, dict]:
    return {m["name"]: m for m in _spec()["end_to_end"]}


def _by_metric(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def repeat(workload: str, seeds: list[int], out: Path) -> int:
    seconds = str(_spec()["run_seconds"])
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", seconds, "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
        with open(out, "a") as f:
            f.write(json.dumps({"workload": workload, "seed": seed, "record": record,
                                "result": result}) + "\n")
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"{workload} seed {seed}: correct={result['correct']} {shown}", flush=True)
    return 0


def summary(path) -> int:
    bounds = _bounds()
    for (workload, name), values in sorted(_by_metric(_load(path)).items()):
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name, {}).get("bound")
        print(f"{workload:16s} {name:14s} n={len(values):2d} median {med:12.6g} "
              f"spread {spread:.4f} bound {bound}")
    return 0


def compare(first, second) -> int:
    bounds = _bounds()
    a_runs, b_runs = _load(first), _load(second)
    a, b = _by_metric(a_runs), _by_metric(b_runs)
    ok = True
    for key in sorted(a.keys() & b.keys()):
        workload, name = key
        spec = bounds.get(name)
        if spec is None:
            continue
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
        good = worse <= spec["bound"]
        ok &= good
        print(f"{workload:16s} {name:14s} {ma:12.6g} -> {mb:12.6g} worse by {worse:+.4f} "
              f"(bound {spec['bound']}) {'ok' if good else 'WORSE'}")
    records = {}
    for run in a_runs + b_runs:
        det = run["record"]["determinism"]
        records.setdefault((run["workload"], run["seed"]), []).append((det["value"], det["sha256"]))
    pairs = differ = 0
    for (workload, seed), seen in sorted(records.items()):
        pairs += len(seen) > 1
        if len(set(seen)) > 1:
            differ += 1
            print(f"{workload} seed {seed}: determinism records differ: {sorted(set(seen))}")
    print(f"determinism: {pairs} (workload, seed) pairs ran more than once, {differ} differ")
    return 0 if ok and not differ else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--summary")
    parser.add_argument("--compare", nargs=2)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.summary:
        return summary(args.summary)
    if not (args.workload and args.out):
        parser.error("--workload and --out are needed to run")
    return repeat(args.workload, _seeds(args.seeds), args.out)


if __name__ == "__main__":
    sys.exit(main())
