"""Command-line harness: generate MDPs, integrate trajectories, run experiments.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 generation failure,
4 numerical failure (integration breakdown or failed invariant checks).

An error in configuring a run leaves through the command's parser, which
raises SystemExit: a usage error (1) by ``error``, and a -c document that
cannot be read or holds an unknown key, or an --mdp file that cannot be
loaded (2), by ``exit``. An error in running the command leaves through
``main``, which looks the exception's type up in ``_RUN_FAILURES``, prints
what failed and returns that row's code; any other exception, such as a bug
or a broken process pool, propagates. Failed invariant checks are a result,
not an exception: the command returns 4.
"""

from __future__ import annotations

import argparse
import dataclasses
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

FIGURES = ("fig1", "fig2", "fig3")
EXPERIMENTS = (*FIGURES, "invariants")

# Integrator fields a run takes when neither the -c document nor a flag sets
# them, per command (simulate, or the experiment's name), where they differ
# from IntegratorConfig's defaults. Horizons are calibrated so each figure's
# curves are converged at the endpoint.
INTEGRATOR_DEFAULTS = {
    "simulate": {"t_end": 100.0},
    "fig1": {"t_end": 30.0, "log_points": 121},
    "fig2": {"t_end": 100.0, "log_points": 101},
    "fig3": {"t_end": 100.0, "log_points": 101},
    "invariants": {"t_end": 300.0, "log_points": 151, "rtol": 1e-10, "atol": 1e-12},
}
# Flags that each set one top-level config key, by argparse dest. They default
# to None, so a flag whose value is not None was typed and overlays the -c document.
_FLAG_KEYS = {
    "n": "n_states", "k": "k", "gamma": "gamma", "alpha": "alpha", "seed": "seed",
    "trials": "n_trials", "jobs": "jobs", "outdir": "outdir",
}
# Typed experiment flags by argparse dest, with the experiments that read them;
# any other experiment would ignore the flag, so typing it is a usage error.
# Keys of a -c document are not checked against this table.
_EXPERIMENT_FLAG_SCOPE = {
    "n": FIGURES, "k": FIGURES, "gamma": FIGURES, "trials": FIGURES, "seed": FIGURES,
    "jobs": FIGURES, "h": ("fig3",), "eta_phi": ("fig2", "fig3"),
}
# simulate flags that shape the generated chain, which --mdp replaces
_CHAIN_FLAGS = ("n", "h", "gamma", "alpha", "symmetric")
# A command's run failures by exception type: the exit code and what failed.
# main returns the code of the first row that matches. An except clause takes
# only a flat tuple of types, so each numerical failure is a row of its own.
_RUN_FAILURES = (
    (mdp_mod.ConvergenceError, EXIT_GENERATION, "generation failed"),
    *((error, EXIT_NUMERIC, "integration failed") for error in dyn.NUMERICAL_FAILURES),
    (exp.TooManyFailedTrials, EXIT_NUMERIC, "experiment failed"),
    (OSError, EXIT_IO, "cannot write outputs"),
)


class _Parser(argparse.ArgumentParser):
    """Every parser's policy: a fixed help layout, no abbreviated flags, usage errors exit 1.

    ``add_subparsers`` builds each subcommand's parser from this class too.
    argparse exits with 2 on bad usage; the documented taxonomy wants 1.
    """

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_formatter, allow_abbrev=False, **kwargs)

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
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    gen = sub.add_parser("gen-mdp", help="sample a Markov reward process and write it as JSON")
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
    gen.set_defaults(func=cmd_gen_mdp, command_parser=gen)

    sim = sub.add_parser("simulate", help="integrate one trajectory and write the metric log as CSV")
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
    sim.add_argument("--eta-w", type=float, default=None, help="weight learning rate (default: 1)")
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
    sim.set_defaults(func=cmd_simulate, command_parser=sim)

    run = sub.add_parser("experiment", help="run a figure reproduction or the invariant suite")
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
    run.set_defaults(func=cmd_experiment, command_parser=run)

    return parser


def _setup_logging(verbosity: int) -> None:
    level = logging.WARNING if verbosity == 0 else logging.INFO if verbosity == 1 else logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def cmd_gen_mdp(args: argparse.Namespace) -> int:
    try:
        mdp_mod.check_chain_args(args.n, args.h, args.gamma, args.alpha, args.seed)
    except ValueError as exc:
        args.command_parser.error(str(exc))
    out = args.out if args.out is not None else default_out_root() / "mdp.json"
    mrp = mdp_mod.make_mdp(args.symmetric, args.h, n=args.n, gamma=args.gamma,
                           alpha=args.alpha, seed=args.seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    mdp_mod.save_mdp(mrp, out, seed=args.seed, generator="symmetric" if args.symmetric else "mixed")
    A = mrp.A
    lam_min = float(np.linalg.eigvalsh(0.5 * (A + A.T))[0])
    print(f"wrote {out}")
    print(f"reversibility residual: {mdp_mod.reversibility_residual(mrp):.6e}")
    print(f"key matrix min eigenvalue: {lam_min:.6e}")
    return EXIT_OK


def _reject_typed(args: argparse.Namespace, dests, reason: str) -> None:
    """Exit with a usage error if the user typed any flag in ``dests``."""
    sub = args.command_parser
    for dest in dests:
        if getattr(args, dest) != sub.get_default(dest):
            sub.error(f"--{dest.replace('_', '-')} {reason}")


def _load_json(sub: _Parser, path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        sub.exit(EXIT_IO, f"cannot read {path}: {exc}\n")
    if not isinstance(doc, dict):
        sub.exit(EXIT_IO, f"{path} does not hold a JSON object\n")
    return doc


def _run_config(args: argparse.Namespace, command: str, **overlay) -> exp.ExperimentConfig:
    """The run's config: the -c document under the flags the user typed and ``overlay``.

    Integrator fields that none of them set come from ``command``'s row of
    INTEGRATOR_DEFAULTS, then from IntegratorConfig. An unreadable document
    or an unknown key exits 2; a value out of range is a usage error.
    """
    sub = args.command_parser
    doc = _load_json(sub, args.config) if args.config is not None else {}
    typed = {dest: value for dest, value in vars(args).items() if value is not None}
    doc.update({key: typed[dest] for dest, key in _FLAG_KEYS.items() if dest in typed})
    if "h" in typed:
        doc["h_values"] = [int(h) for h in np.atleast_1d(args.h)]
    doc.update(overlay)
    if doc.get("outdir") is None:  # a manifest's block writes an absent outdir as null
        doc["outdir"] = str(default_out_root())
    section = doc.get("integrator", {})
    if isinstance(section, dict):  # config_from_json reports any other shape
        fields = [f.name for f in dataclasses.fields(dyn.IntegratorConfig)]
        doc["integrator"] = {**INTEGRATOR_DEFAULTS[command], **section,
                             **{name: typed[name] for name in fields if name in typed}}
    try:
        return exp.config_from_json(doc)
    except exp.UnknownConfigKeyError as exc:
        sub.exit(EXIT_IO, f"{args.config}: {exc}\n")
    except (ValueError, TypeError) as exc:
        sub.error(str(exc))


def cmd_simulate(args: argparse.Namespace) -> int:
    sub = args.command_parser
    if args.mdp is not None:
        _reject_typed(args, _CHAIN_FLAGS, "does not apply with --mdp")
    kind = args.dynamics.replace("-", "_")
    if kind == dyn.TWO_TIME_SCALE:  # its weights sit at the fixed point, whatever eta_w
        _reject_typed(args, ("eta_w",), "does not apply to two-time-scale dynamics")
    eta_w = 1.0 if args.eta_w is None else args.eta_w
    eta_phi = args.eta_phi
    if eta_phi is None:
        eta_phi = 0.0 if kind == dyn.LINEAR_TD else 1.0
    try:
        spec = dyn.DynamicsSpec(kind, eta_w=eta_w, eta_phi=eta_phi)
    except ValueError as exc:
        sub.error(str(exc))

    overlay = {}
    if args.mdp is not None:
        try:
            mrp = mdp_mod.load_mdp(args.mdp)
        except (OSError, ValueError, TypeError) as exc:
            sub.exit(EXIT_IO, f"cannot load MDP from {args.mdp}: {exc}\n")
        overlay["n_states"] = mrp.n  # k is checked against the loaded chain
    config = _run_config(args, "simulate", **overlay)
    out = args.out if args.out is not None else default_out_root() / "trajectory.csv"
    out.parent.mkdir(parents=True, exist_ok=True)  # before any work, so an unwritable -o fails fast
    if args.mdp is None:
        mrp = mdp_mod.make_mdp(args.symmetric, config.h_values[0], n=config.n_states,
                               gamma=config.gamma, alpha=config.alpha, seed=config.seed)

    phi0 = exp.initial_representation(config.seed, mrp.n, config.k)
    log = dyn.integrate(mrp, spec, phi0, config=config.integrator, store_states=args.store_states)
    log.to_csv(out)
    if args.store_states:
        log.states_to_json(out.with_suffix(".states.json"))
    E, fn = log.metrics["E"], log.metrics["f_norm"]
    print(f"wrote {out}")
    print(f"E: {E[0]:.6g} -> {E[-1]:.6g}")
    print(f"f_norm: {fn[0]:.6g} -> {fn[-1]:.6g}")
    print(f"cov_drift final: {log.metrics['cov_drift'][-1]:.6g}")
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    for dest, names in _EXPERIMENT_FLAG_SCOPE.items():
        if args.name not in names:
            _reject_typed(args, (dest,), f"only applies to {', '.join(names)}")
    overlay = {}
    if args.eta_phi is not None:
        overlay["dynamics"] = [{"kind": dyn.TWO_TIME_SCALE, "eta_w": 0.0, "eta_phi": args.eta_phi}]
    config = _run_config(args, args.name, **overlay)

    if args.name == "invariants":
        reports = inv.run_invariant_suite(config)
        print(met.reports_to_csv(reports), end="")
        failed = [r for r in reports if not r.passed]
        if failed:
            print(f"{len(failed)} of {len(reports)} invariant checks failed", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"all {len(reports)} invariant checks passed")
        return EXIT_OK

    series = exp.run_experiment(args.name, config)
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
    try:
        return args.func(args)
    except tuple(row[0] for row in _RUN_FAILURES) as exc:
        code, what = next(row[1:] for row in _RUN_FAILURES if isinstance(exc, row[0]))
        print(f"{what}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
