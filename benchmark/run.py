"""Benchmark of the diracbvp spectral pipeline.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark process makes the
workload's inputs from the seed, computes the exact reference, and launches
fresh workload processes (benchmark/worker.py) that import diracbvp from the
checkout's ``src``.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json (wall_s, setup_s, peak_rss_mb); with --trace 1 its per-layer
metrics, from traced rounds.  Every round's outputs are checked against the
reference.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Timings are in nominal
seconds (see calibrate.py); raw timings stay in benchmark/runs/.../result.json.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 4                 # set-up is sampled this many times plus once in the run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(run_dir: Path, args, timeout: float) -> float:
    """Run one workload process; returns its launch time on time.monotonic()."""
    launched = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), str(run_dir), *args],
                          env=worker_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return launched


def setup_seconds(run_dir: Path, args, timeout: float) -> float:
    """Nominal set-up time of one fresh workload process."""
    launched = launch(run_dir, args, timeout)
    name = "probe.json" if args[0] == "probe" else "worker.json"
    doc = json.loads((run_dir / name).read_text())
    return (doc["ready"] - launched - doc["sampled"]) * doc["scale"]


def layer_metrics(rounds) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    first = traced[0]["layers"]
    for other in traced[1:]:
        moved = [k for k, v in first.items()
                 if not k.endswith("_s") and other["layers"][k] != v]
        if moved:
            print(f"counts differ between traced rounds: {moved}", file=sys.stderr)
    out = {}
    for key, value in first.items():
        if key.endswith("_s"):
            value = statistics.median(r["layers"][key] * r["scale"] for r in traced)
        out[key] = value
    out["process.cpu_s"] = statistics.median(r["cpu"] * r["scale"] for r in plain)
    out["trace.overhead_s"] = (statistics.median(r["wall"] * r["scale"] for r in traced)
                               - statistics.median(r["wall"] * r["scale"] for r in plain))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "diracbvp" / "__init__.py").is_file():
        print(f"no diracbvp source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = HERE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    inp = inputs.make(args.workload, args.seed)
    ref = checks.prepare(inp)
    (run_dir / "input.json").write_text(json.dumps(inp))
    (run_dir / "config.json").write_text(json.dumps(inp["config"]))

    setups = []
    if not args.trace:
        setups = [setup_seconds(run_dir, ["probe"], 60) for _ in range(SETUP_PROBES)]
    setups.append(setup_seconds(run_dir, ["run", repr(args.seconds), str(args.trace)], 170))
    result = json.loads((run_dir / "worker.json").read_text())
    rounds = result["rounds"]

    problems = []
    for k, rnd in enumerate(rounds):
        out_dir = run_dir / f"round-{k}"
        problems += [f"round {k}: {p}" for p in checks.check(inp, ref, out_dir)]
        shutil.rmtree(out_dir)
    for p in problems[:20]:
        print(p, file=sys.stderr)

    if args.trace:
        values = layer_metrics(rounds)
    else:
        values = {"wall_s": statistics.median(r["wall"] * r["scale"] for r in rounds),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    summary = {"correct": not problems,
               "attempted": sum(r["attempted"] for r in rounds),
               "failed": sum(r["failed"] for r in rounds),
               "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(
        {**summary, "rounds": [{k: v for k, v in r.items() if k != "layers"} for r in rounds],
         "setup_samples": setups}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
