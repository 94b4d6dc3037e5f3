"""Workload process: set-up, then timed rounds of one workload.

    python3 worker.py RUN_DIR probe
    python3 worker.py RUN_DIR run SECONDS TRACE

Set-up is the import of diracbvp and the building of the package objects
from RUN_DIR/input.json.  Its end is written as a time.monotonic() reading,
a system-wide clock, so the launching process can time set-up from launch.
``probe`` stops there.  ``run`` then runs whole rounds until SECONDS have
passed (at least two rounds).  Every round does the same operations on the
same inputs and starts from an empty grid cache, as a fresh command-line
process would.  Set-up and every round run under a calibrate.SpeedSampler.
With TRACE = 1 untraced and traced rounds alternate.  Each round's outputs go to
RUN_DIR/round-K for the benchmark process to check; timings go to
RUN_DIR/worker.json.
"""
from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calibrate
import inputs
import tracing

MIN_ROUNDS = 2


class Round:
    """Runs the operations of one round, counting those that raise."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.outputs = {}

    def attempt(self, name, fn):
        self.attempted += 1
        try:
            result = fn()
        except Exception:                   # a failed operation is counted, not fatal
            self.failed += 1
            print(f"operation {name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        self.outputs[name] = result
        return result


# ---------------------------------------------------------------------------
# set-up: package objects built from the inputs
# ---------------------------------------------------------------------------

def setup(inp: dict, run_dir: Path) -> dict:
    from diracbvp import model
    state = {"config": model.config_from_dict(inp["config"]),
             "config_path": str(run_dir / "config.json")}
    workload = inp["workload"]
    if workload == "expansion":
        from diracbvp import eigensolver
        full = eigensolver.SpectralDataSet.from_dict(
            {"fingerprint": "reference", "data": inp["spectrum"]})
        state["data"] = full
        state["subsets"] = {
            n: eigensolver.SpectralDataSet(full.fingerprint,
                                           tuple(d for d in full if abs(d.n) <= n))
            for n in inp["ladder"]}
        state["elements"] = [(*inputs.element_functions(spec), spec["f3"], spec["f4"])
                             for spec in inp["elements"]]
    elif workload == "inverse":
        from diracbvp import eigensolver, inverse
        config = state["config"]
        state["problem"] = inverse.InverseProblem(
            target=eigensolver.SpectralDataSet.from_dict(
                {"fingerprint": "reference", "data": inp["target"]}),
            basis=inverse.PotentialBasis(inp["basis"]["kind"], inp["basis"]["m"]),
            boundary=config.boundary, weight=config.weight,
            grid_points=config.grid_points)
    return state


# ---------------------------------------------------------------------------
# rounds: the timed calls into diracbvp
# ---------------------------------------------------------------------------

def _cli(rnd: Round, argv):
    from diracbvp import cli
    code = rnd.attempt(argv[0], lambda: cli.main(argv + ["--out", str(rnd.out_dir)]))
    if code not in (None, 0):
        rnd.failed += 1
        print(f"diracbvp {argv[0]} exited with {code}", file=sys.stderr)


def round_spectrum(inp, state, rnd: Round):
    _cli(rnd, ["eigs", "--config", state["config_path"],
               "--n-min", str(inp["n_min"]), "--n-max", str(inp["n_max"])])


def round_weyl_map(inp, state, rnd: Round):
    _cli(rnd, ["weyl", "--config", state["config_path"],
               "--re-min", repr(inp["re_min"]), "--re-max", repr(inp["re_max"]),
               "--re-steps", str(inp["re_steps"]),
               "--im-min", repr(inp["im_min"]), "--im-max", repr(inp["im_max"]),
               "--im-steps", str(inp["im_steps"]), "--n-terms", str(inp["n_terms"])])


def round_expansion(inp, state, rnd: Round):
    from diracbvp import eigensolver, expansion
    config = state["config"]
    for i, (f1, f2, f3, f4) in enumerate(state["elements"]):
        f = rnd.attempt(f"element{i}", lambda: expansion.element_from_functions(
            config, f1, f2, f3, f4))
        for n in inp["ladder"]:
            data = state["subsets"][n]
            rnd.attempt(f"coefficients{i}_{n}", lambda: expansion.coefficients(config, data, f))
            rnd.attempt(f"parseval{i}_{n}", lambda: expansion.parseval_defect(config, data, f))
            rnd.attempt(f"expand{i}_{n}", lambda: expansion.expand(config, data, f))
        for j, (re, im) in enumerate(inp["resolvent_lams"]):
            rnd.attempt(f"resolvent{i}_{j}",
                        lambda: expansion.resolvent_apply(config, complex(re, im), f))
    rnd.attempt("orthogonality", lambda: eigensolver.orthogonality_check(config, state["data"]))


def round_inverse(inp, state, rnd: Round):
    from diracbvp import inverse
    rnd.attempt("reconstruct", lambda: inverse.reconstruct(
        state["problem"], inp["init"], max_evals=inp["max_evals"]))


def save_outputs(workload: str, rnd: Round):
    """Write the library workloads' results where the benchmark process reads them."""
    out = rnd.outputs
    if workload == "expansion":
        arrays = {}
        for name, value in out.items():
            if name.startswith("element"):
                arrays[name + ".xs"] = value.xs
            elif name.startswith("expand"):
                arrays[name + ".f"] = np.stack([value.f1, value.f2])
                arrays[name + ".ends"] = np.array([value.f3, value.f4])
            elif name.startswith("resolvent"):
                arrays[name + ".xs"] = value.xs
                arrays[name + ".ys"] = value.ys
            else:
                arrays[name] = np.asarray(value)
        np.savez(rnd.out_dir / "outputs.npz", **arrays)
    elif workload == "inverse" and "reconstruct" in out:
        res = out["reconstruct"]
        (rnd.out_dir / "reconstruction.json").write_text(json.dumps(
            {"parameters": list(res.parameters), "misfit": res.misfit,
             "iterations": res.iterations, "trace": list(res.trace)}))


ROUNDS = {"spectrum": round_spectrum, "weyl_map": round_weyl_map,
          "expansion": round_expansion, "inverse": round_inverse}


def run_round(inp, state, out_dir: Path, traced: bool) -> dict:
    from diracbvp import integrator
    out_dir.mkdir(parents=True)
    rnd = Round(out_dir)
    cache = getattr(integrator.build_grid, "cache_info", None)
    if cache is not None:
        integrator.build_grid.cache_clear()
    gc.collect()
    with calibrate.SpeedSampler() as sampler:
        tracer = tracing.Tracer(sampler.clock) if traced else None
        if tracer is not None:
            tracer.install()
        c0 = time.process_time()
        t0 = sampler.clock()
        try:
            ROUNDS[inp["workload"]](inp, state, rnd)
        finally:
            wall = sampler.clock() - t0
            cpu = time.process_time() - c0
            if tracer is not None:
                tracer.uninstall()
    rec = {"wall": wall, "cpu": cpu - sampler.total, "scale": sampler.scale(),
           "samples": len(sampler.samples), "traced": traced,
           "attempted": rnd.attempted, "failed": rnd.failed,
           "bytes_written": sum(p.stat().st_size for p in out_dir.iterdir())}
    if traced:
        rec["layers"] = tracing.round_metrics(tracer.spans)
        if cache is not None:
            rec["layers"]["integrator.grid_builds"] = cache().misses
        rec["layers"]["cli.bytes_written"] = rec["bytes_written"]
        with open(out_dir.parent / f"spans-{out_dir.name}.json", "w") as fh:
            json.dump(tracer.spans, fh)
    save_outputs(inp["workload"], rnd)
    return rec


def main(argv) -> int:
    run_dir = Path(argv[1])
    mode = argv[2]
    with calibrate.SpeedSampler() as sampler:
        inp = json.loads((run_dir / "input.json").read_text())
        import diracbvp
        src = Path(__file__).resolve().parent.parent / "src"
        if Path(diracbvp.__file__).resolve().parent != src / "diracbvp":
            print(f"diracbvp imported from {diracbvp.__file__}, not from {src}",
                  file=sys.stderr)
            return 3
        state = setup(inp, run_dir)
        ready = time.monotonic()
    setup_doc = {"ready": ready, "sampled": sampler.total, "scale": sampler.scale()}
    if mode == "probe":
        (run_dir / "probe.json").write_text(json.dumps(setup_doc))
        return 0

    seconds = float(argv[3])
    trace = argv[4] == "1"
    rounds = []
    begin = time.monotonic()
    while True:
        t_round = time.monotonic()
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(inp, state, run_dir / f"round-{len(rounds)}", traced))
        now = time.monotonic()
        if len(rounds) >= MIN_ROUNDS + trace and now - begin + now - t_round > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (run_dir / "worker.json").write_text(json.dumps(
        {**setup_doc, "rounds": rounds, "peak_rss_mb": peak_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
