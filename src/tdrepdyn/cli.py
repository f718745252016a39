"""Command-line harness: generate MDPs, integrate trajectories, run experiments.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 generation failure,
4 numerical failure (integration breakdown or failed invariant checks).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import experiments as exp
from . import invariants as inv
from . import mdp as mdp_mod
from . import metrics as met

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_GENERATION = 3
EXIT_NUMERIC = 4

EXPERIMENTS = ("fig1", "fig2", "fig3", "invariants")

# Integrator fields a run takes when neither the -c document nor a flag sets
# them, per command (simulate, or the experiment's name). Horizons are
# calibrated so each figure's curves are converged at the endpoint.
INTEGRATOR_DEFAULTS = {
    "simulate": {"t_end": 100.0, "log_points": 201, "rtol": 1e-8, "atol": 1e-10},
    "fig1": {"t_end": 30.0, "log_points": 121, "rtol": 1e-8, "atol": 1e-10},
    "fig2": {"t_end": 100.0, "log_points": 101, "rtol": 1e-8, "atol": 1e-10},
    "fig3": {"t_end": 100.0, "log_points": 101, "rtol": 1e-8, "atol": 1e-10},
    "invariants": {"t_end": 300.0, "log_points": 151, "rtol": 1e-10, "atol": 1e-12},
}
# Flags that each set one top-level config key, by argparse dest. They default
# to None, so a flag whose value is not None was typed and overlays the -c document.
_FLAG_KEYS = {
    "n": "n_states", "k": "k", "gamma": "gamma", "alpha": "alpha", "seed": "seed",
    "trials": "n_trials", "jobs": "jobs", "outdir": "outdir",
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the documented taxonomy wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _formatter(prog: str) -> argparse.HelpFormatter:
    # fixed width keeps --help output stable for the golden-file tests
    return argparse.HelpFormatter(prog, max_help_position=28, width=96)


def default_out_root() -> Path:
    return Path(os.environ.get("TDREPDYN_OUT", "."))


def build_parser() -> _Parser:
    parser = _Parser(
        prog="tdrepdyn",
        description="Continuous-time TD representation dynamics: generators, "
        "trajectory simulation, and figure experiments.",
        formatter_class=_formatter,
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    parser.subcommands = {}

    gen = sub.add_parser(
        "gen-mdp",
        help="sample a Markov reward process and write it as JSON",
        formatter_class=_formatter,
        allow_abbrev=False,
    )
    gen.add_argument("--n", type=int, default=30, help="number of states (default: 30)")
    gen.add_argument("--h", type=int, default=1, help="number of reward columns (default: 1)")
    gen.add_argument("--gamma", type=float, default=0.9, help="discount factor in [0, 1) (default: 0.9)")
    gen.add_argument("--alpha", type=float, default=0.95,
                     help="permutation mixing weight in [0, 1] (default: 0.95)")
    gen.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    gen.add_argument("--symmetric", action="store_true",
                     help="use the symmetric generator instead of the mixed one")
    gen.add_argument("-o", "--out", type=Path, default=None,
                     help="output path (default: <TDREPDYN_OUT>/mdp.json)")
    gen.add_argument("-v", "--verbose", action="count", default=0, help="increase log level")
    gen.set_defaults(func=cmd_gen_mdp)
    parser.subcommands["gen-mdp"] = gen

    sim = sub.add_parser(
        "simulate",
        help="integrate one trajectory and write the metric log as CSV",
        formatter_class=_formatter,
        allow_abbrev=False,
    )
    sim.add_argument("--mdp", type=Path, default=None,
                     help="load the MDP from this JSON file instead of generating one")
    sim.add_argument("--n", type=int, help="number of states if generating (default: 30)")
    sim.add_argument("--k", type=int, help="representation width (default: 2)")
    sim.add_argument("--h", type=int, help="number of reward columns (default: 1)")
    sim.add_argument("--gamma", type=float, help="discount factor in [0, 1) (default: 0.9)")
    sim.add_argument("--alpha", type=float, help="permutation mixing weight (default: 0.95)")
    sim.add_argument("--seed", type=int, help="seed for the MDP and the init (default: 0)")
    sim.add_argument("--symmetric", action="store_true", help="symmetric generator")
    sim.add_argument("--dynamics", default="two-time-scale",
                     choices=["linear-td", "end-to-end", "two-time-scale"],
                     help="which drift field to integrate (default: two-time-scale)")
    sim.add_argument("--eta-w", type=float, default=1.0, help="weight learning rate (default: 1)")
    sim.add_argument("--eta-phi", type=float, default=None,
                     help="representation learning rate (default: 1, or 0 for linear-td)")
    sim.add_argument("--t-end", type=float, default=None, help="integration horizon (default: 100)")
    sim.add_argument("--rtol", type=float, default=None, help="solver relative tolerance (default: 1e-8)")
    sim.add_argument("--atol", type=float, default=None, help="solver absolute tolerance (default: 1e-10)")
    sim.add_argument("--log-points", type=int, default=None, help="metric samples on [0, t_end] (default: 201)")
    sim.add_argument("--store-states", action="store_true",
                     help="also write (phi, w) snapshots next to the CSV")
    sim.add_argument("-c", "--config", type=Path, default=None,
                     help="JSON config supplying defaults (flags win)")
    sim.add_argument("-o", "--out", type=Path, default=None,
                     help="output CSV path (default: <TDREPDYN_OUT>/trajectory.csv)")
    sim.add_argument("-v", "--verbose", action="count", default=0, help="increase log level")
    sim.set_defaults(func=cmd_simulate)
    parser.subcommands["simulate"] = sim

    run = sub.add_parser(
        "experiment",
        help="run a figure reproduction or the invariant suite",
        formatter_class=_formatter,
        allow_abbrev=False,
    )
    run.add_argument("name", choices=EXPERIMENTS, help="experiment to run")
    run.add_argument("--n", type=int, help="number of states (default: 30)")
    run.add_argument("--k", type=int, help="representation width (default: 2)")
    run.add_argument("--h", type=int, nargs="+", metavar="H",
                     help="reward-count sweep for fig3 (default: 1 2 4 8)")
    run.add_argument("--gamma", type=float, help="discount factor (default: 0.9)")
    run.add_argument("--alpha", type=float, help="permutation mixing weight (default: 0.95)")
    run.add_argument("--seed", type=int, help="master seed, trial i uses seed+i (default: 0)")
    run.add_argument("--trials", type=int, help="number of sampled MDPs (default: 100)")
    run.add_argument("--eta-phi", type=float, default=None,
                     help="two-time-scale rate for fig2/fig3 (default 1)")
    run.add_argument("--t-end", type=float, default=None,
                     help="integration horizon (default: per experiment)")
    run.add_argument("--rtol", type=float, default=None,
                     help="solver relative tolerance (default: per experiment)")
    run.add_argument("--atol", type=float, default=None,
                     help="solver absolute tolerance (default: per experiment)")
    run.add_argument("--log-points", type=int, default=None,
                     help="metric samples (default: per experiment)")
    run.add_argument("--jobs", type=int, help="concurrent trial workers (default: 1)")
    run.add_argument("-c", "--config", type=Path, default=None,
                     help="JSON config supplying defaults (flags win)")
    run.add_argument("-o", "--out", dest="outdir", metavar="OUT", type=Path,
                     help="output directory root (default: TDREPDYN_OUT or .)")
    run.add_argument("-v", "--verbose", action="count", default=0, help="increase log level")
    run.set_defaults(func=cmd_experiment)
    parser.subcommands["experiment"] = run

    return parser


def _setup_logging(verbosity: int) -> None:
    level = logging.WARNING if verbosity == 0 else logging.INFO if verbosity == 1 else logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def cmd_gen_mdp(parser: _Parser, args: argparse.Namespace) -> int:
    sub = parser.subcommands["gen-mdp"]
    if not 0 <= args.alpha <= 1:
        sub.error(f"--alpha must be in [0, 1], got {args.alpha}")
    if not 0 <= args.gamma < 1:
        sub.error(f"--gamma must be in [0, 1), got {args.gamma}")
    if args.n < 1:
        sub.error(f"--n must be >= 1, got {args.n}")
    if args.h < 1:
        sub.error(f"--h must be >= 1, got {args.h}")
    if args.seed < 0:
        sub.error(f"--seed must be >= 0, got {args.seed}")
    out = args.out if args.out is not None else default_out_root() / "mdp.json"
    try:
        mrp = mdp_mod.make_mdp(args.symmetric, args.h, n=args.n, gamma=args.gamma,
                               alpha=args.alpha, seed=args.seed)
    except mdp_mod.ConvergenceError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    generator = "symmetric" if args.symmetric else "mixed"
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        mdp_mod.save_mdp(mrp, out, seed=args.seed, generator=generator)
    except OSError as exc:
        print(f"cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    A = mrp.A
    lam_min = float(np.linalg.eigvalsh(0.5 * (A + A.T))[0])
    print(f"wrote {out}")
    print(f"reversibility residual: {mdp_mod.reversibility_residual(mrp):.6e}")
    print(f"key matrix min eigenvalue: {lam_min:.6e}")
    return EXIT_OK


def _load_json(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliIOError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise _CliIOError(f"{path} does not hold a JSON object")
    return doc


class _CliIOError(RuntimeError):
    pass


def _run_config(sub: argparse.ArgumentParser, args: argparse.Namespace,
                command: str, **overlay) -> exp.ExperimentConfig:
    """The run's config: the -c document under the flags the user typed and ``overlay``.

    Integrator fields that none of them set come from ``command``'s row of
    INTEGRATOR_DEFAULTS. An unreadable document or an unknown key raises
    _CliIOError; a value out of range is a usage error.
    """
    doc = _load_json(args.config) if args.config is not None else {}
    typed = {dest: value for dest, value in vars(args).items() if value is not None}
    doc.update({key: typed[dest] for dest, key in _FLAG_KEYS.items() if dest in typed})
    if "h" in typed:
        doc["h_values"] = [int(h) for h in np.atleast_1d(args.h)]
    doc.update(overlay)
    doc.setdefault("outdir", str(default_out_root()))
    defaults = INTEGRATOR_DEFAULTS[command]
    section = doc.get("integrator", {})
    if isinstance(section, dict):  # config_from_json reports any other shape
        doc["integrator"] = {**defaults, **section,
                             **{name: typed[name] for name in defaults if name in typed}}
    try:
        return exp.config_from_json(doc)
    except exp.UnknownConfigKeyError as exc:
        raise _CliIOError(f"{args.config}: {exc}") from exc
    except (ValueError, TypeError) as exc:
        sub.error(str(exc))


def cmd_simulate(parser: _Parser, args: argparse.Namespace) -> int:
    sub = parser.subcommands["simulate"]
    kind = args.dynamics.replace("-", "_")
    eta_phi = args.eta_phi
    if eta_phi is None:
        eta_phi = 0.0 if kind == dyn.LINEAR_TD else 1.0
    try:
        spec = dyn.DynamicsSpec(kind, eta_w=args.eta_w, eta_phi=eta_phi)
    except ValueError as exc:
        sub.error(str(exc))

    overlay = {}
    if args.mdp is not None:
        try:
            mrp = mdp_mod.load_mdp(args.mdp)
        except (OSError, ValueError, TypeError) as exc:
            print(f"cannot load MDP from {args.mdp}: {exc}", file=sys.stderr)
            return EXIT_IO
        overlay["n_states"] = mrp.n  # k is checked against the loaded chain
    try:
        config = _run_config(sub, args, "simulate", **overlay)
    except _CliIOError as exc:
        print(exc, file=sys.stderr)
        return EXIT_IO
    if args.mdp is None:
        try:
            mrp = mdp_mod.make_mdp(args.symmetric, config.h_values[0], n=config.n_states,
                                   gamma=config.gamma, alpha=config.alpha, seed=config.seed)
        except mdp_mod.ConvergenceError as exc:
            print(f"generation failed: {exc}", file=sys.stderr)
            return EXIT_GENERATION

    phi0 = exp.initial_representation(config.seed, mrp.n, config.k)
    try:
        log = dyn.integrate(
            mrp, spec, phi0, config=config.integrator, store_states=args.store_states
        )
    except dyn.NUMERICAL_FAILURES as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    out = args.out if args.out is not None else default_out_root() / "trajectory.csv"
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        log.to_csv(out)
        if args.store_states:
            log.states_to_json(out.with_suffix(".states.json"))
    except OSError as exc:
        print(f"cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    E, fn = log.metrics["E"], log.metrics["f_norm"]
    print(f"wrote {out}")
    print(f"E: {E[0]:.6g} -> {E[-1]:.6g}")
    print(f"f_norm: {fn[0]:.6g} -> {fn[-1]:.6g}")
    print(f"cov_drift final: {log.metrics['cov_drift'][-1]:.6g}")
    return EXIT_OK


def cmd_experiment(parser: _Parser, args: argparse.Namespace) -> int:
    sub = parser.subcommands["experiment"]
    if args.eta_phi is not None and args.name not in ("fig2", "fig3"):
        sub.error("--eta-phi only applies to fig2 and fig3")
    overlay = {}
    if args.eta_phi is not None:
        overlay["dynamics"] = [{"kind": dyn.TWO_TIME_SCALE, "eta_w": 0.0, "eta_phi": args.eta_phi}]
    try:
        config = _run_config(sub, args, args.name, **overlay)
    except _CliIOError as exc:
        print(exc, file=sys.stderr)
        return EXIT_IO

    if args.name == "invariants":
        reports = inv.run_invariant_suite(config)
        print(met.reports_to_csv(reports), end="")
        failed = [r for r in reports if not r.passed]
        if failed:
            print(f"{len(failed)} of {len(reports)} invariant checks failed", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"all {len(reports)} invariant checks passed")
        return EXIT_OK

    try:
        exp._curves(args.name, config)  # curve labels must be distinct
    except ValueError as exc:
        sub.error(str(exc))
    try:
        series = exp.run_experiment(args.name, config)
    except RuntimeError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    outdir = Path(config.outdir) / args.name
    print(f"wrote {outdir}")
    for name in sorted(series):
        agg = series[name]
        note = f" ({len(agg.failures)} failed trials)" if agg.failures else ""
        print(f"{name}: median {agg.median[0]:.6g} -> {agg.median[-1]:.6g}{note}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _setup_logging(args.verbose)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
