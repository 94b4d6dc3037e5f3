"""Command-line front end: eigs, weyl, expand, resolvent, invert, selfcheck.

Every command writes a manifest echoing its exact inputs before any data
file.  Data files carry no timestamps and use shortest-round-trip float
text, so identical inputs produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, charfn, eigensolver, expansion, integrator, inverse, weyl
from .errors import ConfigError, DiracBVPError, DomainError, MissingRootError
from .model import (PI, BoundaryParams, PotentialSpec, ProblemConfig, Weight,
                    config_to_dict, load_config)

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARTIAL = 2
EXIT_SELFCHECK = 3
EXIT_USAGE = 64

#: exit code by error type: the first row an error is an instance of wins
_EXIT_CODES = {OSError: EXIT_IO, json.JSONDecodeError: EXIT_IO, ConfigError: EXIT_IO,
               DomainError: EXIT_IO, DiracBVPError: EXIT_PARTIAL}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _count(minimum: int):
    """argparse ``type=`` of an integer flag that must be at least ``minimum``."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected a count >= {minimum}, got {value}")
        return value
    return count


def _fmt(v) -> str:
    return repr(float(v))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: Path, command: str, config_paths, params: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "manifest.json", {
        "command": command,
        "config_paths": [str(p) for p in config_paths],
        "out_dir": str(out_dir),
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "parameters": params,
    })


# ---------------------------------------------------------------------------
# eigs
# ---------------------------------------------------------------------------

def _eigs_rows(data: eigensolver.SpectralDataSet):
    for d in data:
        seed = d.lambda_n - d.seed_gap
        yield [d.n, _fmt(d.lambda_n), _fmt(d.alpha_n), _fmt(d.beta_n),
               _fmt(d.delta_dot_n), _fmt(seed), _fmt(d.seed_gap)]


def cmd_eigs(args) -> int:
    config = load_config(args.config)
    if args.n_min > args.n_max:
        print("eigs: --n-min must not exceed --n-max", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    _write_manifest(out, "eigs", [args.config],
                    {"n_min": args.n_min, "n_max": args.n_max,
                     "config": config_to_dict(config)})
    try:
        data = eigensolver.find_eigenvalues(config, args.n_min, args.n_max)
        code = EXIT_OK
    except MissingRootError as exc:
        print(f"eigs: {exc}", file=sys.stderr)
        data = exc.partial
        code = EXIT_PARTIAL
        if data is None:
            return code
    header = ["n", "lambda", "alpha", "beta", "delta_dot", "seed", "seed_gap"]
    _write_csv(out / "eigs.csv", header, _eigs_rows(data))
    data.save(out / "spectral_data.json")
    return code


# ---------------------------------------------------------------------------
# weyl
# ---------------------------------------------------------------------------

def _weyl_rows(config, lams, data):
    lams = np.asarray(lams, dtype=complex)
    ms = weyl._direct_many(config, lams)[0]
    series = weyl.weyl_series(config, lams, data)
    for lam, m, m_series in zip(lams, ms, series):
        yield [_fmt(lam.real), _fmt(lam.imag), _fmt(m.real), _fmt(m.imag),
               _fmt(abs(m - m_series))]


def cmd_weyl(args) -> int:
    config = load_config(args.config)
    if args.margin <= 0.0:
        print("weyl: --margin must be positive (pole safety)", file=sys.stderr)
        return EXIT_USAGE
    res = np.linspace(args.re_min, args.re_max, args.re_steps)
    ims = np.linspace(args.im_min, args.im_max, args.im_steps)
    if np.min(np.abs(ims)) < args.margin:
        print("weyl: grid touches the real axis inside the margin", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    _write_manifest(out, "weyl", [args.config], {
        "re_min": args.re_min, "re_max": args.re_max, "re_steps": args.re_steps,
        "im_min": args.im_min, "im_max": args.im_max, "im_steps": args.im_steps,
        "margin": args.margin, "n_terms": args.n_terms,
        "series_order": "symmetric, outermost indices first",
        "config": config_to_dict(config)})
    data = eigensolver.find_eigenvalues(config, -args.n_terms, args.n_terms)
    lams = [complex(r, i) for i in ims for r in res]
    _write_csv(out / "weyl.csv",
               ["re_lambda", "im_lambda", "re_m", "im_m", "series_defect"],
               _weyl_rows(config, lams, data))
    return EXIT_OK


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def cmd_expand(args) -> int:
    config = load_config(args.config)
    out = Path(args.out)
    _write_manifest(out, "expand", [args.config],
                    {"n_max": args.n_max, "config": config_to_dict(config)})
    data = eigensolver.find_eigenvalues(config, -args.n_max, args.n_max)
    f = expansion.element_from_functions(config, np.sin, lambda x: 0.0 * x)
    partial = expansion.expand(config, data, f)
    defect = expansion.parseval_defect(config, data, f)
    err = float(max(np.max(np.abs(f.f1 - partial.f1)),
                    np.max(np.abs(f.f2 - partial.f2))))
    rows = ([_fmt(x), _fmt(a.real), _fmt(b.real), _fmt(c.real), _fmt(d.real)]
            for x, a, b, c, d in zip(f.xs, f.f1, f.f2, partial.f1, partial.f2))
    _write_csv(out / "expand.csv", ["x", "f1", "f2", "s1", "s2"], rows)
    _write_json(out / "expand_summary.json",
                {"N": args.n_max, "parseval_defect": defect,
                 "max_pointwise_error": err})
    return EXIT_OK


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------

def cmd_resolvent(args) -> int:
    config = load_config(args.config)
    lam = complex(args.re_lambda, args.im_lambda)
    out = Path(args.out)
    _write_manifest(out, "resolvent", [args.config],
                    {"lambda": [args.re_lambda, args.im_lambda],
                     "config": config_to_dict(config)})
    f = expansion.element_from_functions(config, lambda x: 1.0 + 0.0 * x,
                                         lambda x: 0.0 * x)
    traj = expansion.resolvent_apply(config, lam, f)
    ode_res, bc_res = expansion.resolvent_residual(config, lam, f, traj)
    traj.to_csv(out / "resolvent.csv")
    _write_json(out / "resolvent_summary.json",
                {"lambda": [lam.real, lam.imag],
                 "ode_residual": ode_res, "bc_residual": bc_res})
    return EXIT_OK


# ---------------------------------------------------------------------------
# invert
# ---------------------------------------------------------------------------

def cmd_invert(args) -> int:
    config = load_config(args.config)
    data = eigensolver.SpectralDataSet.load(args.data)
    with open(args.inverse_config, "r", encoding="utf-8") as fh:
        ic = json.load(fh)
    try:
        basis = inverse.PotentialBasis(kind=ic["basis"]["kind"], m=int(ic["basis"]["m"]))
        init = [float(v) for v in ic["init"]]
        budget = int(ic.get("budget", 2000))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed inverse configuration: {exc}") from exc
    out = Path(args.out)
    _write_manifest(out, "invert", [args.config, args.data, args.inverse_config],
                    {"basis": ic["basis"], "init": init, "budget": budget,
                     "config": config_to_dict(config)})
    problem = inverse.InverseProblem(target=data, basis=basis,
                                     boundary=config.boundary,
                                     weight=config.weight,
                                     grid_points=config.grid_points)
    result = inverse.reconstruct(problem, init, max_evals=budget)
    _write_json(out / "reconstruction.json",
                {"parameters": list(result.parameters), "misfit": result.misfit,
                 "iterations": result.iterations, "converged": result.converged})
    _write_csv(out / "trace.csv", ["iteration", "misfit"],
               ([i, _fmt(v)] for i, v in enumerate(result.trace)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def _builtin_config(alpha: float, grid_points: int = 1024) -> ProblemConfig:
    return ProblemConfig(
        boundary=BoundaryParams(0.0, -1.0, 1.0, 0.0, 0.0, -1.0, 1.0, 0.0),
        weight=Weight(alpha=alpha, a=PI / 2.0),
        potential=PotentialSpec.zero(),
        grid_points=grid_points)


def _selfcheck_rows(inject_failure: bool):
    r0 = _builtin_config(1.0)
    r1 = _builtin_config(2.0)
    rows = []

    def add(name, cfg_label, value, threshold):
        rows.append((name, cfg_label, value, threshold, value <= threshold))

    for label, cfg in (("R0", r0), ("R1", r1)):
        ev = charfn.delta(cfg, 3.0 + 0.5j)
        add("wronskian_constancy", label, ev.wronskian_spread, 1e-8)
        rel = max(abs(ev.delta_via_u1 - ev.delta), abs(ev.delta_via_u2 - ev.delta))
        add("delta_three_way", label, rel / (1.0 + abs(ev.delta)), 1e-6)

    lam = 1.0
    traj = integrator.phi(r0, lam)
    exact = np.stack([lam * np.cos(lam * traj.xs) + np.sin(lam * traj.xs),
                      lam * np.sin(lam * traj.xs) - np.cos(lam * traj.xs)], axis=1)
    add("oracle_agreement", "R0", float(np.max(np.abs(traj.ys - exact))), 1e-8)

    for label, cfg in (("R0", r0), ("R1", r1)):
        data = eigensolver.find_eigenvalues(cfg, -2, 2)
        worst = max(abs(d.alpha_n * d.beta_n - d.delta_dot_n) / abs(d.delta_dot_n)
                    for d in data)
        add("alpha_beta_identity", label, worst, 1e-4)
        if label == "R0":
            add("residue_at_ground", label,
                weyl.residue_check(cfg, data.by_index(0)), 1e-3)

    data6 = eigensolver.find_eigenvalues(r0, -6, 6)
    f = expansion.element_from_functions(r0, np.sin, lambda x: 0.0 * x)
    small = eigensolver.SpectralDataSet(
        fingerprint=data6.fingerprint,
        data=tuple(d for d in data6 if abs(d.n) <= 2))
    d_small = expansion.parseval_defect(r0, small, f)
    d_big = expansion.parseval_defect(r0, data6, f)
    add("parseval_monotone", "R0", d_big / max(d_small, 1e-300), 1.0 + 1e-12)

    m_direct = weyl.weyl_direct(r0, 1j)
    gap_small = abs(weyl.weyl_series(r0, 1j, small) - m_direct)
    gap_big = abs(weyl.weyl_series(r0, 1j, data6) - m_direct)
    add("weyl_two_way", "R0", gap_big / max(gap_small, 1e-300), 1.0)

    if inject_failure:
        add("injected_failure", "R0", 1.0, 0.0)
    return rows


def cmd_selfcheck(args) -> int:
    out = Path(args.out)
    _write_manifest(out, "selfcheck", [],
                    {"inject_failure": bool(args.inject_failure)})
    rows = _selfcheck_rows(bool(args.inject_failure))
    _write_csv(out / "selfcheck.csv",
               ["check", "config", "value", "threshold", "status"],
               ([name, label, _fmt(value), _fmt(threshold),
                 "pass" if ok else "fail"]
                for name, label, value, threshold, ok in rows))
    all_ok = all(ok for *_, ok in rows)
    for name, label, value, threshold, ok in rows:
        print(f"{'PASS' if ok else 'FAIL'}  {name:24s} {label:3s} "
              f"value={value:.3e} threshold={threshold:.3e}")
    return EXIT_OK if all_ok else EXIT_SELFCHECK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="diracbvp",
                     description="Spectral toolkit for a weighted two-component "
                                 "boundary value problem on [0, pi]")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigs", help="compute eigenvalues and norming constants")
    p.add_argument("--config", required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eigs)

    p = sub.add_parser("weyl", help="sample the Weyl function on a complex grid")
    p.add_argument("--config", required=True)
    p.add_argument("--re-min", type=float, default=0.0)
    p.add_argument("--re-max", type=float, default=0.0)
    p.add_argument("--re-steps", type=_count(1), default=1)
    p.add_argument("--im-min", type=float, default=1.0)
    p.add_argument("--im-max", type=float, default=1.0)
    p.add_argument("--im-steps", type=_count(1), default=1)
    p.add_argument("--margin", type=float, default=0.1)
    p.add_argument("--n-terms", type=_count(0), default=15)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("expand", help="eigenfunction expansion of a test element")
    p.add_argument("--config", required=True)
    p.add_argument("--n-max", type=_count(0), default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("resolvent", help="apply the resolvent to a test element")
    p.add_argument("--config", required=True)
    p.add_argument("--re-lambda", type=float, default=0.0)
    p.add_argument("--im-lambda", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_resolvent)

    p = sub.add_parser("invert", help="reconstruct a potential from spectral data")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--inverse-config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("selfcheck", help="run the built-in invariant suite")
    p.add_argument("--out", required=True)
    p.add_argument("--inject-failure", action="store_true",
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"diracbvp: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
