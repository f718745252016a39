import contextlib
import io
import json
import subprocess
import sys
import tempfile
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


def test_gen_mdp_generation_failure_exits_3(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise mdp.ConvergenceError("Sinkhorn normalization", 10, 0.5)

    monkeypatch.setattr(mdp, "sample_doubly_stochastic", boom)
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


def test_io_errors_exit_2(tmp_path, capsys):
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
@pytest.mark.parametrize("doc", [{"surprise": 1}, {"integrator": {"rtl": 1e-3}}])
def test_unknown_config_keys_exit_2(command, doc, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    assert run_cli([*command, "-c", str(config), "-o", str(tmp_path / "out")]) == 2
    assert "unknown config keys" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", [["simulate"], ["experiment", "fig1"]])
@pytest.mark.parametrize("doc", [
    {"gamma": 1.5}, {"integrator": {"rtol": -1.0}}, {"k": 0},
    # non-integer counts died in numpy with a TypeError traceback, and h_values truncated
    {"integrator": {"log_points": 2.5}}, {"k": 2.5}, {"n_trials": 2.5}, {"h_values": [1.5]},
    {"seed": True}, {"seed": -1},
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


def test_importing_the_cli_does_not_load_scipy():
    probe = "import sys, tdrepdyn.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


def test_simulate_value_function_failure_exits_4(tmp_path, capsys):
    # the process's value-function residual check raises a plain LinAlgError,
    # which exited 1 with a traceback
    code = run_cli(["simulate", "--dynamics", "end-to-end", "--gamma", "0.999999999",
                    "--t-end", "0.1", "--log-points", "2", "-o", str(tmp_path / "t.csv")])
    assert code == 4
    assert "integration failed" in capsys.readouterr().err


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
    seen = {}

    def fake_run(name, config):
        seen["name"], seen["config"] = name, config
        return {}

    monkeypatch.setattr(exp, "run_experiment", fake_run)
    assert run_cli(["experiment", "fig2", "-o", str(tmp_path)]) == 0
    assert seen["name"] == "fig2"
    integ = seen["config"].integrator
    assert (integ.t_end, integ.log_points) == (100.0, 101)
    assert (integ.rtol, integ.atol) == (1e-8, 1e-10)

    assert run_cli(["experiment", "fig2", "--t-end", "7", "-o", str(tmp_path)]) == 0
    assert seen["config"].integrator.t_end == 7.0


def test_experiment_eta_phi_rescales_two_time_scale(tmp_path, monkeypatch):
    seen = {}

    def fake_run(name, config):
        seen["config"] = config
        return {}

    monkeypatch.setattr(exp, "run_experiment", fake_run)
    assert run_cli(["experiment", "fig3", "--eta-phi", "2.5", "-o", str(tmp_path)]) == 0
    (spec,) = seen["config"].dynamics
    assert (spec.kind, spec.eta_w, spec.eta_phi) == ("two_time_scale", 0.0, 2.5)


def test_experiment_abort_exits_4(tmp_path, monkeypatch, capsys):
    def boom(name, config):
        raise RuntimeError("2 of 2 trials failed")

    monkeypatch.setattr(exp, "run_experiment", boom)
    assert run_cli(["experiment", "fig1", "-o", str(tmp_path)]) == 4
    assert "experiment failed" in capsys.readouterr().err


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
