import contextlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tdrepdyn import cli
from tdrepdyn import experiments as exp
from tdrepdyn import invariants as inv
from tdrepdyn import mdp
from tdrepdyn.metrics import MetricReport

DATA = Path(__file__).parent / "data"


def run_cli(argv):
    """Invoke main() in process, folding argparse's SystemExit into a code."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)


# --------------------------------------------------------------------- help


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["--help"], "help_main.txt"),
        (["gen-mdp", "--help"], "help_gen_mdp.txt"),
        (["simulate", "--help"], "help_simulate.txt"),
        (["experiment", "--help"], "help_experiment.txt"),
    ],
)
def test_help_matches_golden(argv, golden, capsys):
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


def test_no_command_is_a_usage_error(capsys):
    assert run_cli([]) == 1
    assert "error" in capsys.readouterr().err


# ------------------------------------------------------------------ gen-mdp


def test_gen_mdp_writes_loadable_json(tmp_path, capsys):
    out = tmp_path / "m.json"
    code = run_cli(["gen-mdp", "--n", "7", "--h", "2", "--seed", "4", "-o", str(out)])
    assert code == 0
    mrp = mdp.load_mdp(out)
    assert (mrp.n, mrp.R.shape[1], mrp.gamma) == (7, 2, 0.9)
    np.testing.assert_allclose(mrp.P.sum(axis=1), 1.0, atol=1e-12)
    lines = capsys.readouterr().out
    assert f"wrote {out}" in lines
    assert "reversibility residual" in lines


def test_gen_mdp_symmetric_is_reversible(tmp_path, capsys):
    out = tmp_path / "sym.json"
    assert run_cli(["gen-mdp", "--symmetric", "--n", "6", "--seed", "1", "-o", str(out)]) == 0
    mrp = mdp.load_mdp(out)
    assert mdp.reversibility_residual(mrp) < 1e-10
    lam_line = [l for l in capsys.readouterr().out.splitlines() if "min eigenvalue" in l]
    assert float(lam_line[0].split(":")[1]) > 0


def test_gen_mdp_honors_out_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TDREPDYN_OUT", str(tmp_path))
    assert run_cli(["gen-mdp", "--n", "4"]) == 0
    assert (tmp_path / "mdp.json").exists()


def test_gen_mdp_repeat_runs_are_identical(tmp_path):
    # module entry point, twice with the same seed
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        proc = subprocess.run(
            [sys.executable, "-m", "tdrepdyn.cli",
             "gen-mdp", "--n", "9", "--seed", "13", "-o", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("argv,golden", [
    (["--n", "9", "--h", "3", "--seed", "5"], "mixed_n9_h3_seed5.json"),
    (["--symmetric", "--n", "9", "--h", "2", "--seed", "6"], "symmetric_n9_h2_seed6.json"),
])
def test_gen_mdp_matches_golden(argv, golden, tmp_path):
    # tests/data/golden/gen_mdp pins each generator's stream order and arithmetic
    out = tmp_path / golden
    assert run_cli(["gen-mdp", *argv, "-o", str(out)]) == 0
    assert out.read_bytes() == (DATA / "golden" / "gen_mdp" / golden).read_bytes()


def test_chain_defaults_agree():
    # make_mdp, ExperimentConfig (whose h_values[0] simulate draws) and gen-mdp each spell them out
    params = inspect.signature(mdp.make_mdp).parameters
    made = {name: params[name].default for name in ("n", "h", "gamma", "alpha", "seed")}
    config = exp.ExperimentConfig()
    assert made == {"n": config.n_states, "h": config.h_values[0], "gamma": config.gamma,
                    "alpha": config.alpha, "seed": config.seed}
    args = cli.build_parser().parse_args(["gen-mdp"])
    assert made == {name: getattr(args, name) for name in made}


def test_gen_mdp_generation_failure_exits_3(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise mdp.ConvergenceError("Sinkhorn normalization", 10, 0.5)

    monkeypatch.setattr(mdp, "_sample_doubly_stochastic", boom)
    assert run_cli(["gen-mdp", "-o", str(tmp_path / "m.json")]) == 3
    assert "did not converge" in capsys.readouterr().err


# --------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-mdp", "--bogus"],
        ["gen-mdp", "--alpha", "1.5"],
        ["gen-mdp", "--gamma", "1.0"],
        ["gen-mdp", "--n", "0"],
        ["gen-mdp", "--n", "5", "--h", "0"],
        ["gen-mdp", "--h", "-1"],
        ["simulate", "--t-end", "0"],
        ["simulate", "--n", "5", "--k", "9", "--t-end", "1"],
        ["simulate", "--dynamics", "linear-td", "--eta-phi", "0.5"],
        ["experiment", "fig9"],
        ["experiment", "fig1", "--eta-phi", "2"],
        ["experiment", "invariants", "--rtol", "-1"],
        ["simulate", "--dynamics", "end-to-end", "--eta-w", "nan", "--t-end", "1"],
        ["simulate", "--dynamics", "end-to-end", "--eta-phi", "inf", "--t-end", "1"],
        ["simulate", "--t-end", "inf"],
        ["simulate", "--rtol", "inf"],
        ["simulate", "--atol", "nan"],
        # a negative seed died in np.random.SeedSequence with a ValueError traceback
        ["gen-mdp", "--seed", "-1", "--n", "6"],
        ["simulate", "--seed", "-1", "--n", "6", "--t-end", "1"],
        ["experiment", "fig1", "--seed", "-1", "--trials", "1"],
    ],
)
def test_usage_errors_exit_1(argv, capsys, tmp_path):
    assert run_cli(argv) == 1
    assert "error" in capsys.readouterr().err


# allow_abbrev=False on every parser: each of these would bind the flag it prefixes
@pytest.mark.parametrize("argv", [["gen-mdp", "--sym"], ["simulate", "--t", "1"],
                                  ["experiment", "fig1", "--tri", "1"]])
def test_abbreviated_flags_exit_1(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TDREPDYN_OUT", str(tmp_path))
    monkeypatch.setattr(exp, "_map_trials", _no_trials)
    assert run_cli(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


# gen-mdp's range errors are the generator's own, naming the argument
@pytest.mark.parametrize("flags,message", [
    (["--h", "-1"], "h must be >= 1, got -1"), (["--alpha", "2"], "alpha must be in [0, 1], got 2.0"),
    (["--gamma", "1"], "gamma must be in [0, 1), got 1.0"), (["--n", "0"], "n must be >= 1, got 0"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
])
def test_gen_mdp_range_errors_name_the_argument(flags, message, tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run_cli(["gen-mdp", *flags, "-o", str(out)]) == 1
    assert f"tdrepdyn gen-mdp: error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


# each of these ran and exited 0, the flag silently ignored
@pytest.mark.parametrize("name,flag", [
    *[("invariants", flag) for flag in ("--n", "--k", "--gamma", "--trials", "--seed", "--jobs", "--h")],
    ("fig1", "--h"), ("fig2", "--h"),
])
def test_flags_an_experiment_ignores_exit_1(name, flag, capsys, monkeypatch):
    monkeypatch.setattr(inv, "run_invariant_suite", _no_trials)
    monkeypatch.setattr(exp, "run_experiment", _no_trials)
    value = "0.5" if flag == "--gamma" else "3"
    assert run_cli(["experiment", name, flag, value]) == 1
    assert f"{flag} only applies to" in capsys.readouterr().err


# each of these wrote the same CSV as the run without the flag
@pytest.mark.parametrize("flags", [["--n", "5"], ["--h", "5"], ["--gamma", "0"],
                                   ["--alpha", "0.2"], ["--symmetric"]])
def test_chain_flags_with_an_mdp_file_exit_1(flags, tmp_path, capsys):
    path = tmp_path / "m.json"
    assert run_cli(["gen-mdp", "--n", "5", "--seed", "2", "-o", str(path)]) == 0
    out = tmp_path / "traj.csv"
    assert run_cli(["simulate", "--mdp", str(path), "--t-end", "1", "--log-points", "3",
                    *flags, "-o", str(out)]) == 1
    assert f"{flags[0]} does not apply with --mdp" in capsys.readouterr().err
    assert not out.exists()


# the two-time-scale field pins w to the fixed point, so this wrote the same CSV as without the flag
def test_eta_w_with_two_time_scale_dynamics_exits_1(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert run_cli(["simulate", "--n", "6", "--k", "2", "--t-end", "1", "--log-points", "5",
                    "--eta-w", "7", "-o", str(out)]) == 1
    assert "--eta-w does not apply to two-time-scale dynamics" in capsys.readouterr().err
    assert not out.exists()


def test_config_keys_an_experiment_ignores_stay_accepted(tmp_path, monkeypatch):
    # the flag scope binds typed flags only; a manifest's config block feeds any run
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_states": 7, "k": 3, "seed": 3, "jobs": 2, "h_values": [4]}))
    monkeypatch.setattr(inv, "run_invariant_suite", lambda config: [])
    assert run_cli(["experiment", "invariants", "-c", str(config), "-o", str(tmp_path)]) == 0
    path = tmp_path / "m.json"
    assert run_cli(["gen-mdp", "--n", "5", "--seed", "2", "-o", str(path)]) == 0
    assert run_cli(["simulate", "--mdp", str(path), "-c", str(config), "--t-end", "1",
                    "--log-points", "3", "--k", "2", "-o", str(tmp_path / "t.csv")]) == 0


@pytest.mark.parametrize(
    "doc",
    [
        {"dynamics": [{"kind": "end_to_end", "eta_w": float("nan")}]},
        {"integrator": {"t_end": float("inf")}},
    ],
)
def test_non_finite_config_values_exit_1(doc, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))  # json writes NaN and Infinity, and reads them back
    assert run_cli(["experiment", "fig1", "-c", str(config), "--trials", "1"]) == 1
    assert "finite" in capsys.readouterr().err


def test_io_errors_exit_2(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("work started before the output directory was made")

    # experiments ran every trial or check and found -o unwritable only then
    monkeypatch.setattr(exp, "_run_one", never)
    for check in [attr for attr in vars(inv) if attr.startswith("_check_")]:
        monkeypatch.setattr(inv, check, never)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert run_cli(["gen-mdp", "-o", str(blocker / "m.json")]) == 2

    assert run_cli(["simulate", "--mdp", str(tmp_path / "missing.json")]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run_cli(["simulate", "-c", str(bad), "--t-end", "1"]) == 2

    strange = tmp_path / "strange.json"
    strange.write_text(json.dumps({"n_states": 5, "surprise": 1}))
    assert run_cli(["simulate", "-c", str(strange), "--t-end", "1"]) == 2
    assert "unknown config keys" in capsys.readouterr().err

    # no output directory can be made under a file
    for argv in (["fig1", "--trials", "20"], ["invariants", "--t-end", "20"]):
        assert run_cli(["experiment", *argv, "-o", str(blocker)]) == 2
        assert "cannot write outputs" in capsys.readouterr().err


def test_simulate_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps([{"n_states": 5}]))
    assert run_cli(["simulate", "-c", str(config), "--t-end", "1"]) == 2
    assert f"{config} does not hold a JSON object" in capsys.readouterr().err


def test_simulate_unwritable_out_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert run_cli(["simulate", "--n", "6", "--t-end", "1", "--log-points", "3",
                    "-o", str(blocker / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write outputs: ") and str(blocker) in err


def test_simulate_makes_its_output_directory_before_it_integrates(tmp_path, monkeypatch, capsys):
    # the trajectory was integrated first, then the write failed
    monkeypatch.setattr(cli.dyn, "integrate", _no_trials)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert run_cli(["simulate", "--t-end", "3000", "-o", str(blocker / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("cannot write outputs: ")


def test_non_finite_mdp_file_exits_2(tmp_path, capsys):
    path = tmp_path / "m.json"
    assert run_cli(["gen-mdp", "--n", "5", "--seed", "2", "-o", str(path)]) == 0
    for field in ("P", "R"):
        doc = json.loads(path.read_text())
        doc[field][0] = float("nan")
        bad = tmp_path / f"nan_{field}.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["simulate", "--mdp", str(bad), "--t-end", "1"]) == 2
        assert "cannot load MDP" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    # null counts and gamma died in int()/float() with a TypeError traceback
    {"gamma": None}, {"n": None}, {"h": None},
    # int() truncated a fractional h, int() and float() took 5.0 and "0.9", and the run went ahead
    {"h": 1.5}, {"n": 5.0}, {"gamma": "0.9"},
    # numpy read a numeric string as its number and a bool among floats as 1.0, and the run went ahead
    {"R": ["0.25", 0.0, 0.0, 0.0, 0.0]}, {"R": [True, 0.0, 0.0, 0.0, 0.0]},
    {"P": ["0.2"] + [0.2] * 24}, {"d": ["0.2"] + [0.2] * 4},
])
def test_ill_typed_mdp_file_exits_2(edit, tmp_path, capsys):
    path = tmp_path / "m.json"
    assert run_cli(["gen-mdp", "--n", "5", "--seed", "2", "-o", str(path)]) == 0
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    assert run_cli(["simulate", "--mdp", str(path), "--t-end", "1", "--log-points", "2"]) == 2
    assert "cannot load MDP" in capsys.readouterr().err


def test_mdp_file_that_is_not_an_object_exits_2(tmp_path, capsys):
    # a list of the field names died in doc["n"] with "list indices must be integers"
    path = tmp_path / "m.json"
    path.write_text(json.dumps(["n", "h", "gamma", "P", "R", "d"]))
    assert run_cli(["simulate", "--mdp", str(path), "--t-end", "1", "--log-points", "2"]) == 2
    assert "cannot load MDP" in capsys.readouterr().err


def test_mdp_file_without_states_exits_2(tmp_path, capsys):
    # such a file failed to load with numpy's message about a zero-size reduction
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 0, "h": 1, "gamma": 0.9, "P": [], "R": [], "d": []}))
    assert run_cli(["simulate", "--mdp", str(path), "--t-end", "1"]) == 2
    assert "P has no states: a process needs at least one" in capsys.readouterr().err


def test_mdp_file_without_reward_columns_exits_2(tmp_path, capsys):
    # such a file loaded, and simulate then died in a zero-size reduction
    path = tmp_path / "m.json"
    assert run_cli(["gen-mdp", "--n", "5", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["h"], doc["R"] = 0, []
    path.write_text(json.dumps(doc))
    assert run_cli(["simulate", "--mdp", str(path), "--t-end", "1"]) == 2
    assert "at least one reward column" in capsys.readouterr().err


# ------------------------------------------------------------------- config


@pytest.mark.parametrize("command", [["simulate"], ["experiment", "fig1"]])
@pytest.mark.parametrize("doc", [
    {"surprise": 1}, {"integrator": {"rtl": 1e-3}},
    # retired settings, which no run changed; a manifest written before they went holds both
    {"integrator": {"max_step": None}}, {"integrator": {"max_step": 1.0}},
    {"max_failure_fraction": 0.1}, {"max_failure_fraction": 0.1, "integrator": {"max_step": None}},
])
def test_unknown_config_keys_exit_2(command, doc, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    assert run_cli([*command, "-c", str(config), "-o", str(tmp_path / "out")]) == 2
    keys = sorted(set(doc) - {"integrator"}) + [f"integrator.{key}" for key in doc.get("integrator", {})]
    assert f"unknown config keys: {keys}" in capsys.readouterr().err


def _record_run(monkeypatch) -> dict:
    """Replace run_experiment with a stub that keeps the name and config it is given."""
    seen = {}

    def fake_run(name, config):
        seen["name"], seen["config"] = name, config
        return {}

    monkeypatch.setattr(exp, "run_experiment", fake_run)
    return seen


def test_every_config_key_is_set_by_an_experiment_flag(tmp_path, monkeypatch):
    # a key that no flag sets is a setting that no run changes. dynamics is set by
    # --eta-phi here, and fig1's curve list only by -c
    seen = _record_run(monkeypatch)
    assert run_cli(["experiment", "fig3", "--n", "7", "--k", "3", "--h", "3", "--gamma", "0.5",
                    "--alpha", "0.5", "--seed", "9", "--trials", "2", "--eta-phi", "2",
                    "--t-end", "5", "--rtol", "1e-6", "--atol", "1e-7", "--log-points", "9",
                    "--jobs", "2", "-o", str(tmp_path)]) == 0
    got, default = (exp.config_to_json(c) for c in (seen["config"], exp.ExperimentConfig()))
    assert [key for key in default if got[key] == default[key]] == []
    integrator = default["integrator"]
    assert [key for key in integrator if got["integrator"][key] == integrator[key]] == []


_KNOWN_KEYS = exp.config_to_json(exp.ExperimentConfig())
_ENTRY = {"kind": "two_time_scale", "eta_w": 0.0, "eta_phi": 1.0}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    command=st.sampled_from([("simulate",), ("experiment", "fig1"), ("experiment", "fig2"),
                             ("experiment", "fig3"), ("experiment", "invariants")]),
    level=st.sampled_from(("top", "integrator", "dynamics")),
    key=st.text(min_size=1, max_size=12),
    n_entries=st.integers(1, 3),
    at=st.integers(0, 2),
)
@example(command=("experiment", "fig3"), level="dynamics", key="eta_ph", n_entries=2, at=1)
def test_unknown_config_key_at_any_level_exits_2(command, level, key, n_entries, at):
    doc = {"n_states": 6, "n_trials": 1, "integrator": {"t_end": 1.0, "log_points": 3},
           "dynamics": [dict(_ENTRY) for _ in range(n_entries)]}
    if level == "top":
        assume(key not in _KNOWN_KEYS)
        doc[key] = 1
    elif level == "integrator":
        assume(key not in _KNOWN_KEYS["integrator"])
        doc["integrator"][key] = 1
    else:
        assume(key not in _ENTRY)
        doc["dynamics"][at % n_entries][key] = 1
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(doc))
        code = run_cli([*command, "-c", str(config), "-o", str(Path(tmp) / "out")])
    assert code == 2
    assert "unknown config keys" in err.getvalue()


TINY_FIG3 = ["experiment", "fig3", "--trials", "1", "--n", "6", "--h", "1",
             "--t-end", "1", "--log-points", "3"]


def test_unknown_dynamics_key_exits_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dynamics": [{"kind": "two_time_scale", "eta_ph": 3.0}]}))
    assert run_cli([*TINY_FIG3, "-c", str(config), "-o", str(tmp_path / "out")]) == 2
    assert "dynamics[0].eta_ph" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [{"eta_phi": 3.0}, "two_time_scale"])
def test_malformed_dynamics_entry_exits_1(entry, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dynamics": [entry]}))
    assert run_cli([*TINY_FIG3, "-c", str(config), "-o", str(tmp_path / "out")]) == 1
    assert "dynamics[0]" in capsys.readouterr().err


def _no_trials(*args, **kwargs):
    raise AssertionError("a trial ran")


@pytest.mark.parametrize("command", [["simulate", "--n", "6", "--t-end", "1"],
                                     ["experiment", "fig1", "--trials", "1", "--t-end", "1"]])
@pytest.mark.parametrize("field,doc", [
    # {"outdir": 5} ran every fig1 trial and then died in Path(5); simulate accepted it
    ("outdir", {"outdir": 5}),
    # the others exited 1 with Python's "'<' not supported ..." that names no field
    ("rtol", {"integrator": {"rtol": "1e-8"}}),
    ("gamma", {"gamma": None}),
    ("alpha", {"alpha": "0.5"}),
    ("h_values", {"h_values": 5}),
    ("eta_w", {"dynamics": [{"kind": "end_to_end", "eta_w": "1"}]}),
    # a non-list dynamics or non-object integrator gave Python's message, or read a
    # dict's keys as entries ("dynamics[0] ... got 'kind'")
    ("dynamics", {"dynamics": 5}),
    ("dynamics", {"dynamics": {"kind": "end_to_end"}}),
    ("integrator", {"integrator": 5}),
    ("integrator", {"integrator": [1]}),
])
def test_ill_typed_config_values_exit_1_naming_the_field(command, field, doc, tmp_path,
                                                         monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(exp, "_map_trials", _no_trials)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    assert run_cli([*command, "-c", str(config)]) == 1
    assert f"error: {field} must be" in capsys.readouterr().err


def test_duplicate_fig1_curves_are_a_usage_error(tmp_path, monkeypatch, capsys):
    # this died in run_fig1 with an uncaught "dynamics variants are not distinct" ValueError
    monkeypatch.setattr(exp, "_map_trials", _no_trials)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dynamics": [{"kind": "end_to_end"}, {"kind": "end_to_end"}]}))
    assert run_cli(["experiment", "fig1", "--trials", "1", "--t-end", "1", "-c", str(config),
                    "-o", str(tmp_path / "out")]) == 1
    assert "not distinct" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_repeated_fig3_h_values_are_a_usage_error(source, tmp_path, monkeypatch, capsys):
    # this ran, wrote a single h2 curve and recorded h_values [2, 2] in the manifest
    monkeypatch.setattr(exp, "_map_trials", _no_trials)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"h_values": [2, 2]}))
    h_args = ["--h", "2", "2"] if source == "flag" else ["-c", str(config)]
    assert run_cli(["experiment", "fig3", "--trials", "1", "--t-end", "1", *h_args,
                    "-o", str(tmp_path / "out")]) == 1
    assert "not distinct" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["simulate", "--t-end", "1e-323"],
    ["experiment", "fig1", "--trials", "1", "--t-end", "5e-324", "--log-points", "3"],
])
def test_log_times_that_repeat_are_a_usage_error(command, tmp_path, monkeypatch, capsys):
    # np.linspace(0, t_end, log_points) repeated times: the run integrated and then
    # died in TrajectoryLog with a ValueError traceback
    monkeypatch.setattr(exp, "_map_trials", _no_trials)
    monkeypatch.setattr(cli.dyn, "integrate", _no_trials)
    assert run_cli([*command, "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "t_end=" in err and "log_points" in err


@pytest.mark.parametrize("command", [["simulate"], ["experiment", "fig1"]])
@pytest.mark.parametrize("doc", [
    {"gamma": 1.5}, {"integrator": {"rtol": -1.0}}, {"k": 0},
    # non-integer counts died in numpy with a TypeError traceback, and h_values truncated
    {"integrator": {"log_points": 2.5}}, {"k": 2.5}, {"n_trials": 2.5}, {"h_values": [1.5]},
    {"seed": True}, {"seed": -1}, {"dynamics": []},
])
def test_out_of_range_config_values_exit_1(command, doc, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    assert run_cli([*command, "-c", str(config), "-o", str(tmp_path / "out")]) == 1
    assert "error" in capsys.readouterr().err


def test_simulate_accepts_experiment_manifest_config(tmp_path):
    assert run_cli([
        "experiment", "fig1", "--trials", "1", "--n", "6", "--seed", "3",
        "--t-end", "2", "--log-points", "3", "-o", str(tmp_path),
    ]) == 0
    manifest = json.loads((tmp_path / "fig1" / "manifest.json").read_text())
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(manifest["config"]))
    out = tmp_path / "traj.csv"
    assert run_cli(["simulate", "-c", str(config), "--store-states", "-o", str(out)]) == 0
    table = np.genfromtxt(out, delimiter=",", names=True)
    assert table["t"].tolist() == [0.0, 1.0, 2.0]  # t_end and log_points from the manifest
    doc = json.loads((tmp_path / "traj.states.json").read_text())
    assert np.asarray(doc["phi"]).shape == (3, 6, 2)  # n_states and k from the manifest


@pytest.mark.parametrize("figure", ["fig1", "fig2", "fig3"])
def test_a_golden_manifest_block_runs_again(figure, tmp_path, monkeypatch):
    # the block's "outdir": null reached Path(None) after every trial had run
    manifest = json.loads((DATA / "golden" / figure / "manifest.json").read_text())
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(manifest["config"]))
    monkeypatch.setenv("TDREPDYN_OUT", str(tmp_path / "out"))
    assert run_cli(["experiment", figure, "-c", str(config)]) == 0
    assert (tmp_path / "out" / figure / "manifest.json").exists()


def test_simulate_checks_k_against_loaded_mdp(tmp_path):
    # k=40 exceeds the default n_states=30 but fits the 50-state chain
    mdp_path = tmp_path / "m.json"
    assert run_cli(["gen-mdp", "--n", "50", "--seed", "1", "-o", str(mdp_path)]) == 0
    out = tmp_path / "traj.csv"
    code = run_cli([
        "simulate", "--mdp", str(mdp_path), "--k", "40", "--dynamics", "linear-td",
        "--t-end", "0.5", "--log-points", "2", "-o", str(out),
    ])
    assert code == 0
    assert out.exists()


# ----------------------------------------------------------------- simulate


def test_simulate_writes_metric_log(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run_cli([
        "simulate", "--symmetric", "--n", "8", "--k", "2", "--seed", "3",
        "--t-end", "5", "--log-points", "6", "-o", str(out),
    ])
    assert code == 0
    header, *rows = out.read_text().splitlines()
    assert header == "t,E,f,f_norm,cov_drift,grad_norm_w,grad_norm_phi,crit_residual"
    assert len(rows) == 6
    table = np.genfromtxt(out, delimiter=",", names=True)
    assert table["t"][-1] == 5.0
    assert table["cov_drift"][-1] < 1e-6  # two-time-scale preserves phi^T phi
    stdout = capsys.readouterr().out
    assert f"wrote {out}" in stdout
    assert "f_norm:" in stdout


def test_simulate_linear_td_freezes_features(tmp_path):
    out = tmp_path / "lin.csv"
    code = run_cli([
        "simulate", "--dynamics", "linear-td", "--n", "6", "--seed", "2",
        "--t-end", "5", "--log-points", "5", "-o", str(out),
    ])
    assert code == 0
    table = np.genfromtxt(out, delimiter=",", names=True)
    # default eta-phi for linear TD is 0, so the trace objective cannot move
    assert np.ptp(table["f"]) == 0.0
    assert np.all(np.diff(table["E"]) <= 1e-9)


def test_simulate_store_states_writes_sidecar(tmp_path):
    out = tmp_path / "traj.csv"
    code = run_cli([
        "simulate", "--symmetric", "--n", "5", "--k", "2", "--t-end", "1",
        "--log-points", "3", "--store-states", "-o", str(out),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "traj.states.json").read_text())
    assert len(doc["times"]) == 3
    assert np.asarray(doc["phi"]).shape == (3, 5, 2)
    assert np.asarray(doc["w"]).shape == (3, 2, 1)


def test_simulate_matches_golden(tmp_path):
    # tests/data/golden/simulate holds this run's CSV and states sidecar
    golden = DATA / "golden" / "simulate"
    out = tmp_path / "end_to_end.csv"
    assert run_cli([
        "simulate", "--dynamics", "end-to-end", "--n", "8", "--k", "2", "--h", "3",
        "--seed", "4", "--t-end", "10", "--log-points", "11", "--store-states", "-o", str(out),
    ]) == 0
    got, want = (np.genfromtxt(path, delimiter=",", names=True) for path in (out, golden / out.name))
    assert got.dtype.names == want.dtype.names
    assert want.dtype.names == ("t", "E", "f", "f_norm", "cov_drift", "grad_norm_w",
                                "grad_norm_phi", "crit_residual")
    for column in want.dtype.names:
        np.testing.assert_allclose(got[column], want[column], rtol=1e-12, atol=0, err_msg=column)
    sidecar = "end_to_end.states.json"
    assert (tmp_path / sidecar).read_bytes() == (golden / sidecar).read_bytes()


_RUN_WITHOUT_SCIPY = """
import sys

sys.modules["scipy"] = None  # any import of scipy or of a submodule now fails
from tdrepdyn import cli

out = sys.argv[1]
runs = [
    ["gen-mdp", "--n", "6", "--seed", "1", "-o", out + "/m.json"],
    ["simulate", "--mdp", out + "/m.json", "--t-end", "1", "--log-points", "3", "-o", out + "/t.csv"],
    ["experiment", "fig1", "--trials", "1", "--t-end", "1", "--log-points", "3", "-o", out],
    ["experiment", "invariants", "--t-end", "20", "-o", out],
]
print([cli.main(argv) for argv in runs])
"""


def test_commands_run_without_scipy(tmp_path):
    # numpy is the only run-time dependency; scipy belongs to the test extra
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _RUN_WITHOUT_SCIPY, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0]"


def test_simulate_config_file_supplies_defaults_and_flags_win(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "n_states": 5,
        "seed": 11,
        "integrator": {"t_end": 4.0, "log_points": 5},
    }))
    out = tmp_path / "traj.csv"
    code = run_cli([
        "simulate", "-c", str(config), "--n", "7", "--symmetric",
        "--store-states", "-o", str(out),
    ])
    assert code == 0
    table = np.genfromtxt(out, delimiter=",", names=True)
    assert table["t"].shape == (5,)  # log_points from the config file
    assert table["t"][-1] == 4.0  # t_end from the config file
    doc = json.loads((tmp_path / "traj.states.json").read_text())
    assert np.asarray(doc["phi"]).shape[1] == 7  # --n on the command line wins


def test_simulate_reads_mdp_file(tmp_path):
    mdp_path = tmp_path / "m.json"
    assert run_cli(["gen-mdp", "--n", "5", "--h", "2", "--seed", "8", "-o", str(mdp_path)]) == 0
    out = tmp_path / "traj.csv"
    code = run_cli([
        "simulate", "--mdp", str(mdp_path), "--k", "2", "--t-end", "1",
        "--log-points", "3", "--store-states", "-o", str(out),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "traj.states.json").read_text())
    assert np.asarray(doc["phi"]).shape == (3, 5, 2)  # n came from the file
    assert np.asarray(doc["w"]).shape == (3, 2, 2)  # h came from the file


def test_simulate_numerical_failure_exits_4(tmp_path, monkeypatch, capsys):
    from tdrepdyn import dynamics as dyn

    def boom(*args, **kwargs):
        raise dyn.IntegrationError("solver gave up at t=0.5")

    monkeypatch.setattr(dyn, "integrate", boom)
    code = run_cli(["simulate", "--n", "4", "--t-end", "1", "-o", str(tmp_path / "t.csv")])
    assert code == 4
    assert "integration failed" in capsys.readouterr().err


def test_simulate_generation_failure_exits_3(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise mdp.ConvergenceError("Sinkhorn normalization", 10, 0.5)

    monkeypatch.setattr(mdp, "_sample_doubly_stochastic", boom)
    out = tmp_path / "t.csv"
    assert run_cli(["simulate", "--n", "6", "--t-end", "1", "-o", str(out)]) == 3
    assert "generation failed: Sinkhorn normalization did not converge" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_spent_step_budget_exits_4(tmp_path, monkeypatch, capsys):
    # this overflowed in the initial-step estimate and, unfiltered, never ended
    from tdrepdyn import dynamics as dyn

    monkeypatch.setattr(dyn, "MAX_STEPS", 50)
    code = run_cli(["simulate", "--dynamics", "end-to-end", "--eta-w", "1e308", "--eta-phi", "1e308",
                    "--t-end", "1", "-o", str(tmp_path / "t.csv")])
    assert code == 4
    assert "integration failed: step budget of 50 steps spent" in capsys.readouterr().err


def test_simulate_value_function_failure_exits_4(tmp_path, capsys):
    # the process's guarded value-function solve misses its residual bound and
    # raises FixedPointResidualError, a LinAlgError, which once exited 1 with a traceback
    code = run_cli(["simulate", "--dynamics", "end-to-end", "--gamma", "0.999999999",
                    "--t-end", "0.1", "--log-points", "2", "-o", str(tmp_path / "t.csv")])
    assert code == 4
    assert "integration failed" in capsys.readouterr().err


def test_simulate_initial_representation_failure_exits_4(tmp_path, monkeypatch, capsys):
    # a LinAlgError raised before the integration began ended in a traceback
    def singular(*args):
        raise np.linalg.LinAlgError("singular initial draw")

    monkeypatch.setattr(exp, "initial_representation", singular)
    assert run_cli(["simulate", "--n", "6", "--t-end", "1", "-o", str(tmp_path / "t.csv")]) == 4
    assert capsys.readouterr().err == "integration failed: singular initial draw\n"


@pytest.mark.parametrize("row", cli._RUN_FAILURES, ids=lambda row: row[0].__name__)
def test_each_run_failure_exits_with_its_code(row, monkeypatch, capsys):
    error, code, what = row
    if error is mdp.ConvergenceError:
        failure = error("Sinkhorn normalization", 10, 0.5)
    else:
        failure = error("stub failure")

    def command(args):
        raise failure

    monkeypatch.setattr(cli, "cmd_gen_mdp", command)
    assert cli.main(["gen-mdp"]) == code
    assert capsys.readouterr().err == f"{what}: {failure}\n"


def test_other_exceptions_from_a_command_propagate(monkeypatch):
    def command(args):
        raise TypeError("a bug")

    monkeypatch.setattr(cli, "cmd_gen_mdp", command)
    with pytest.raises(TypeError, match="a bug"):
        cli.main(["gen-mdp"])


# --------------------------------------------------------------- experiment


def test_experiment_fig1_tiny_run(tmp_path, capsys):
    code = run_cli([
        "experiment", "fig1", "--trials", "2", "--n", "6", "--seed", "1",
        "--t-end", "2", "--log-points", "3", "-o", str(tmp_path),
    ])
    assert code == 0
    outdir = tmp_path / "fig1"
    names = sorted(p.name for p in outdir.iterdir())
    assert names == [
        "end_to_end_w10_phi1.csv",
        "end_to_end_w1_phi1.csv",
        "manifest.json",
        "two_time_scale_phi1.csv",
    ]
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"]["n_trials"] == 2
    assert manifest["config"]["integrator"]["t_end"] == 2.0
    stdout = capsys.readouterr().out
    assert f"wrote {outdir}" in stdout
    assert stdout.count("median") == 3


def test_verbose_logs_one_line_per_unit(tmp_path):
    # through the module entry point, so the real logging setup and pool workers run
    argv = ["experiment", "fig1", "--trials", "3", "--t-end", "2", "--log-points", "3", "--jobs", "2"]
    runs = {
        flags: subprocess.run([sys.executable, "-m", "tdrepdyn.cli", *argv, *flags,
                               "-o", str(tmp_path / str(len(flags)))], capture_output=True, text=True)
        for flags in ((), ("-v",))
    }
    assert [run.returncode for run in runs.values()] == [0, 0]
    assert runs[()].stderr == ""
    units = exp._units("fig1", exp.ExperimentConfig(n_trials=3, jobs=2))
    lines = runs[("-v",)].stderr.splitlines()
    assert len(lines) == len(units)
    for line, (labels, trials) in zip(lines, units):
        pattern = (rf"INFO tdrepdyn\.experiments: fig1 {','.join(labels)} "
                   rf"trials {trials[0]}-{trials[-1]}: \d+\.\d{{3}} s, max nfev [1-9]\d*")
        assert re.fullmatch(pattern, line), line


def test_experiment_attached_short_out_wins(tmp_path, monkeypatch):
    # "-oDIR" was not seen as typed, so the run wrote ./fig1 instead
    cwd, out = tmp_path / "cwd", tmp_path / "out"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.delenv("TDREPDYN_OUT", raising=False)
    assert run_cli(["experiment", "fig1", "--trials", "1", "--n", "6", "--t-end", "1",
                    "--log-points", "3", f"-o{out}"]) == 0
    assert (out / "fig1" / "manifest.json").exists()
    assert list(cwd.iterdir()) == []


def test_experiment_uses_per_experiment_defaults(tmp_path, monkeypatch):
    seen = _record_run(monkeypatch)
    assert run_cli(["experiment", "fig2", "-o", str(tmp_path)]) == 0
    assert seen["name"] == "fig2"
    integ = seen["config"].integrator
    assert (integ.t_end, integ.log_points) == (100.0, 101)
    assert (integ.rtol, integ.atol) == (1e-8, 1e-10)

    assert run_cli(["experiment", "fig2", "--t-end", "7", "-o", str(tmp_path)]) == 0
    assert seen["config"].integrator.t_end == 7.0


def test_experiment_eta_phi_rescales_two_time_scale(tmp_path, monkeypatch):
    seen = _record_run(monkeypatch)
    assert run_cli(["experiment", "fig3", "--eta-phi", "2.5", "-o", str(tmp_path)]) == 0
    (spec,) = seen["config"].dynamics
    assert (spec.kind, spec.eta_w, spec.eta_phi) == ("two_time_scale", 0.0, 2.5)


def test_experiment_abort_exits_4(tmp_path, monkeypatch, capsys):
    def boom(name, config):
        raise exp.TooManyFailedTrials("2 of 2 trials failed")

    monkeypatch.setattr(exp, "run_experiment", boom)
    assert run_cli(["experiment", "fig1", "-o", str(tmp_path)]) == 4
    assert "experiment failed" in capsys.readouterr().err


def test_broken_process_pool_propagates(tmp_path, monkeypatch):
    # a worker killed from outside, say by the OOM killer, is not a numerical
    # failure; it was reported as "experiment failed" with exit 4
    def broken(experiment, config):
        raise BrokenProcessPool("A process in the process pool was terminated abruptly")

    monkeypatch.setattr(exp, "_map_trials", broken)
    with pytest.raises(BrokenProcessPool, match="terminated abruptly"):
        cli.main(["experiment", "fig1", "--trials", "2", "-o", str(tmp_path)])


def test_typed_tolerances_reach_a_figure_run(tmp_path, monkeypatch):
    # fig1's INTEGRATOR_DEFAULTS row sets neither rtol nor atol
    seen = _record_run(monkeypatch)
    assert run_cli(["experiment", "fig1", "--rtol", "1e-6", "--atol", "1e-9", "-o", str(tmp_path)]) == 0
    integ = seen["config"].integrator
    assert (integ.rtol, integ.atol, integ.t_end, integ.log_points) == (1e-6, 1e-9, 30.0, 121)


def test_experiment_invariants_reports_and_exit_codes(tmp_path, monkeypatch, capsys):
    green = [
        MetricReport("mdp.example", 1e-12, 1e-6, True),
        MetricReport("dynamics.example", 2e-9, 1e-6, True),
    ]
    monkeypatch.setattr(inv, "run_invariant_suite", lambda config: green)
    assert run_cli(["experiment", "invariants", "-o", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("name,value,tolerance,pass\n")
    assert "all 2 invariant checks passed" in captured.out

    red = green + [MetricReport("metrics.example", 5.0, 1e-6, False)]
    monkeypatch.setattr(inv, "run_invariant_suite", lambda config: red)
    assert run_cli(["experiment", "invariants", "-o", str(tmp_path)]) == 4
    assert "1 of 3 invariant checks failed" in capsys.readouterr().err
