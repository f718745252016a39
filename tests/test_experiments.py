import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tdrepdyn import cli
from tdrepdyn import dynamics as dyn
from tdrepdyn import experiments as exp
from tdrepdyn import invariants as inv
from tdrepdyn.mdp import make_symmetric_mdp
from tdrepdyn.metrics import MetricReport

GOLDEN = Path(__file__).parent / "data" / "golden"


def tiny_config(**overrides):
    base = dict(
        n_states=8,
        k=2,
        n_trials=3,
        seed=7,
        integrator=dyn.IntegratorConfig(t_end=10.0, rtol=1e-8, atol=1e-10, log_points=11),
    )
    base.update(overrides)
    return exp.ExperimentConfig(**base)


# ------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        exp.ExperimentConfig(n_trials=0)
    with pytest.raises(ValueError):
        exp.ExperimentConfig(k=31, n_states=30)
    with pytest.raises(ValueError):
        exp.ExperimentConfig(alpha=1.5)
    with pytest.raises(ValueError):
        exp.ExperimentConfig(h_values=())
    with pytest.raises(ValueError):
        exp.ExperimentConfig(jobs=0)
    with pytest.raises(TypeError):
        exp.ExperimentConfig(dynamics=("end_to_end",))


def test_config_json_round_trip():
    cfg = tiny_config(outdir="/tmp/somewhere", jobs=2, h_values=(1, 4))
    doc = exp.config_to_json(cfg)
    assert doc["integrator"]["max_step"] is None  # inf is not JSON
    back = exp.config_from_json(json.loads(json.dumps(doc)))
    assert back == cfg
    with pytest.raises(ValueError):
        exp.config_from_json({"n_states": 8, "surprise": 1})


_POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
_RATE = st.floats(min_value=0.0, max_value=1e6)


@st.composite
def _configs(draw):
    n = draw(st.integers(1, 50))
    specs = st.one_of(
        _RATE.map(dyn.linear_td),
        st.tuples(_RATE, _RATE).map(lambda rates: dyn.end_to_end(*rates)),
        _RATE.map(dyn.two_time_scale),
    )
    integrator = dyn.IntegratorConfig(
        t_end=draw(_POSITIVE),
        rtol=draw(_POSITIVE),
        atol=draw(_POSITIVE),
        max_step=draw(st.just(np.inf) | _POSITIVE),
        log_points=draw(st.integers(2, 10_000)),
    )
    return exp.ExperimentConfig(
        n_states=n,
        k=draw(st.integers(1, n)),
        gamma=draw(st.floats(0.0, 1.0, exclude_max=True)),
        alpha=draw(st.floats(0.0, 1.0)),
        n_trials=draw(st.integers(1, 1000)),
        h_values=tuple(draw(st.lists(st.integers(1, 16), min_size=1, max_size=5))),
        dynamics=tuple(draw(st.lists(specs, min_size=1, max_size=4))),
        integrator=integrator,
        seed=draw(st.integers(0, 2**63)),
        outdir=draw(st.none() | st.text(min_size=1, max_size=20)),
        jobs=draw(st.integers(1, 64)),
        max_failure_fraction=draw(st.floats(0.0, 1.0, exclude_max=True)),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(config=_configs())
def test_config_json_round_trip_property(config):
    text = json.dumps(exp.config_to_json(config))
    assert exp.config_from_json(json.loads(text)) == config


def test_config_from_json_checks_dynamics_entries():
    with pytest.raises(exp.UnknownConfigKeyError, match=r"dynamics\[0\]\.eta_ph"):
        exp.config_from_json({"dynamics": [{"kind": "two_time_scale", "eta_ph": 3.0}]})
    for entry in ({"eta_phi": 3.0}, "two_time_scale"):
        with pytest.raises(ValueError, match=r"dynamics\[0\]") as info:
            exp.config_from_json({"dynamics": [entry]})
        assert not isinstance(info.value, exp.UnknownConfigKeyError)


def test_trial_seeds_offset_from_master():
    cfg = tiny_config(seed=40)
    assert [exp.trial_seed(cfg, i) for i in range(3)] == [40, 41, 42]


def test_initial_representation_is_orthonormal_and_seeded():
    phi = exp.initial_representation(9, 12, 3)
    assert_allclose(phi.T @ phi, np.eye(3), atol=1e-13)
    assert np.array_equal(phi, exp.initial_representation(9, 12, 3))
    assert not np.array_equal(phi, exp.initial_representation(10, 12, 3))


def test_dynamics_labels():
    assert exp._dynamics_label(dyn.end_to_end(10.0, 1.0)) == "end_to_end_w10_phi1"
    assert exp._dynamics_label(dyn.two_time_scale(0.5)) == "two_time_scale_phi0.5"
    assert exp._dynamics_label(dyn.linear_td(2.0)) == "linear_td_w2"


# ---------------------------------------------------------------- aggregates


def test_aggregate_series_median_ignores_single_outlier():
    times = np.arange(5.0)
    values = np.vstack([np.full(5, 2.0)] * 4 + [np.full(5, 1000.0)])
    agg = exp.AggregateSeries("x", times, values, trial_seeds=tuple(range(5)))
    assert_allclose(agg.median, 2.0)
    assert agg.q25[0] == 2.0 and agg.q75[0] == 2.0


def test_aggregate_series_shape_validation():
    with pytest.raises(ValueError):
        exp.AggregateSeries("x", np.arange(3.0), np.zeros((2, 4)), trial_seeds=(0, 1))
    with pytest.raises(ValueError):
        exp.AggregateSeries("x", np.arange(3.0), np.zeros((2, 3)), trial_seeds=(0,))


def test_aggregate_series_csv_shape():
    agg = exp.AggregateSeries(
        "x", np.array([0.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]), trial_seeds=(0, 1)
    )
    lines = agg.to_csv().splitlines()
    assert lines[0] == "t,median,q25,q75"
    assert lines[1].startswith("0.0,2.0,")


# ------------------------------------------------------------------- runners


def test_run_fig1_shapes_outputs_and_determinism(tmp_path):
    cfg = tiny_config(outdir=tmp_path)
    series = exp.run_fig1(cfg)
    assert set(series) == {"end_to_end_w1_phi1", "end_to_end_w10_phi1", "two_time_scale_phi1"}
    for agg in series.values():
        assert agg.values.shape == (3, 11)
        assert agg.failures == ()
        assert (agg.values >= 0).all()
    again = exp.run_fig1(tiny_config(outdir=None))
    for name in series:
        assert series[name].to_csv() == again[name].to_csv()
    written = sorted(p.name for p in (tmp_path / "fig1").iterdir())
    assert written == [
        "end_to_end_w10_phi1.csv",
        "end_to_end_w1_phi1.csv",
        "manifest.json",
        "two_time_scale_phi1.csv",
    ]
    manifest = json.loads((tmp_path / "fig1" / "manifest.json").read_text())
    assert manifest["experiment"] == "fig1"
    assert manifest["config"]["seed"] == 7
    assert manifest["curves"]["two_time_scale_phi1"]["completed_trials"] == 3


def test_run_fig2_scenarios(tmp_path):
    series = exp.run_fig2(tiny_config(outdir=tmp_path))
    assert set(series) == {"h5_general", "h1_symmetric", "h1_general"}
    assert (tmp_path / "fig2" / "h1_symmetric.csv").exists()


def test_run_fig3_h_sweep():
    series = exp.run_fig3(tiny_config(h_values=(1, 2)))
    assert set(series) == {"h1", "h2"}
    assert series["h1"].values.shape == (3, 11)


def test_single_reversible_trajectory_is_monotone():
    # one symmetric-generator trial: reversible, so E never increases
    mrp = make_symmetric_mdp(n=8, h=1, gamma=0.9, seed=2)
    phi0 = exp.initial_representation(2, 8, 2)
    log = dyn.integrate(
        mrp, dyn.end_to_end(), phi0,
        config=dyn.IntegratorConfig(t_end=60.0, rtol=1e-10, atol=1e-12, log_points=121),
    )
    assert (np.diff(log.metrics["E"]) <= 1e-11).all()


# ------------------------------------------------------------ failure policy


_scenarios = exp._scenarios


def _always_boom(experiment, config, seed):
    raise dyn.IntegrationError("synthetic trial failure")


def _boom_on_last(experiment, config, seed):
    if seed == exp.trial_seed(config, config.n_trials - 1):
        raise dyn.IntegrationError("synthetic trial failure")
    return _scenarios(experiment, config, seed)


def test_failure_threshold_aborts(monkeypatch):
    monkeypatch.setattr(exp, "_scenarios", _always_boom)
    with pytest.raises(RuntimeError, match="trials failed"):
        exp.run_fig1(tiny_config())


def test_failures_below_threshold_are_recorded(monkeypatch):
    monkeypatch.setattr(exp, "_scenarios", _boom_on_last)
    cfg = tiny_config(n_trials=12, max_failure_fraction=0.2)
    series = exp.run_fig1(cfg)
    for agg in series.values():
        assert agg.values.shape[0] == 11
        assert len(agg.failures) == 1
        seed, msg = agg.failures[0]
        assert seed == exp.trial_seed(cfg, 11) and "synthetic" in msg


def test_bug_in_a_trial_propagates(monkeypatch):
    # a TypeError is a bug, not a numerical trial failure to be tolerated
    def bad_row(*args, **kwargs):
        raise TypeError("bad scenario row")

    monkeypatch.setattr(dyn, "integrate_batch", bad_row)
    with pytest.raises(TypeError, match="bad scenario row"):
        exp.run_fig1(tiny_config())


def test_pool_size_is_clamped_without_starting_processes(monkeypatch):
    cpus = os.cpu_count() or 1
    assert exp._pool_workers(tiny_config(jobs=10_000)) == min(3, cpus)
    assert exp._pool_workers(tiny_config(jobs=10_000, n_trials=10_000)) == cpus
    assert exp._pool_workers(tiny_config(jobs=2, n_trials=20)) == min(2, cpus)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-worker run must stay in process")

    monkeypatch.setattr(exp, "ProcessPoolExecutor", no_pool)
    results = exp._map_trials("fig3", tiny_config(jobs=10_000, n_trials=1, h_values=(1,)))
    assert len(results) == 1 and set(results[0]["curves"]) == {"h1"}


def test_parallel_trials_match_sequential():
    seq = exp.run_fig3(tiny_config(h_values=(1,), jobs=1))
    par = exp.run_fig3(tiny_config(h_values=(1,), jobs=2))
    assert np.array_equal(seq["h1"].values, par["h1"].values)


def test_chunked_batches_match_across_job_counts():
    # each worker integrates its chunk of trials as batches that mix trials and h
    seq = exp.run_fig3(tiny_config(h_values=(1, 2, 8), n_trials=5, jobs=1))
    par = exp.run_fig3(tiny_config(h_values=(1, 2, 8), n_trials=5, jobs=2))
    for name in seq:
        assert np.array_equal(seq[name].values, par[name].values)


@pytest.mark.parametrize("experiment", ["fig1", "fig2", "fig3"])
def test_outputs_match_golden(experiment, tmp_path):
    # tests/data/golden holds tiny_config() outputs, recorded with outdir null
    runner = {"fig1": exp.run_fig1, "fig2": exp.run_fig2, "fig3": exp.run_fig3}[experiment]
    runner(tiny_config(outdir=tmp_path))
    fresh, golden = tmp_path / experiment, GOLDEN / experiment
    assert sorted(p.name for p in fresh.iterdir()) == sorted(p.name for p in golden.iterdir())
    manifest = json.loads((fresh / "manifest.json").read_text())
    assert manifest["config"].pop("outdir") == str(tmp_path)
    expected = json.loads((golden / "manifest.json").read_text())
    assert expected["config"].pop("outdir") is None
    assert manifest == expected
    for csv in golden.glob("*.csv"):
        got, want = (
            np.genfromtxt(path, delimiter=",", names=True) for path in (fresh / csv.name, csv)
        )
        assert got.dtype.names == want.dtype.names == ("t", "median", "q25", "q75")
        for column in want.dtype.names:
            assert_allclose(got[column], want[column], rtol=1e-12, atol=0)


# -------------------------------------------------------------- invariants


def test_invariant_suite_all_green(tmp_path):
    cfg = exp.ExperimentConfig(
        outdir=tmp_path,
        integrator=dyn.IntegratorConfig(t_end=300.0, rtol=1e-10, atol=1e-12, log_points=151),
    )
    reports = inv.run_invariant_suite(cfg)
    assert len(reports) == 22
    failed = [r.name for r in reports if not r.passed]
    assert failed == []
    table = (tmp_path / "invariants" / "report.csv").read_text()
    assert table.startswith("name,value,tolerance,pass\n")
    assert "np.float64" not in table


def test_invariant_suite_negative_control():
    # corrupting the tolerance must break covariance constancy, not the suite
    cfg = exp.ExperimentConfig(
        integrator=dyn.IntegratorConfig(t_end=50.0, rtol=1.0, atol=1e-2, log_points=26)
    )
    reports = {r.name: r for r in inv.run_invariant_suite(cfg)}
    assert not reports["dynamics.covariance_constancy"].passed
    assert reports["mdp.determinism"].passed  # seed logic is tolerance-blind


def _suite_with_one_check(monkeypatch, check):
    """Stub every check of the suite with a passing one, then ``check`` in the first slot."""
    names = [name for name in vars(inv) if name.startswith("_check_")]
    for name in names:
        monkeypatch.setattr(inv, name, lambda config, name=name: MetricReport(name, 0.0, 0.0, True))
    monkeypatch.setattr(inv, names[0], check)
    return names[0].removeprefix("_check_")


def test_numerical_failure_in_an_invariant_check_is_a_failed_report(monkeypatch):
    def breaks_down(config):
        raise np.linalg.LinAlgError("singular")

    name = _suite_with_one_check(monkeypatch, breaks_down)
    reports = inv.run_invariant_suite(exp.ExperimentConfig())
    assert len(reports) == 22
    assert reports[0] == MetricReport(name, float("inf"), 0.0, False)
    assert all(r.passed for r in reports[1:])


def test_bug_in_an_invariant_check_propagates(monkeypatch):
    def buggy(config):
        raise TypeError("bug in a check")

    _suite_with_one_check(monkeypatch, buggy)
    with pytest.raises(TypeError, match="bug in a check"):
        inv.run_invariant_suite(exp.ExperimentConfig())


def test_help_flag_check_sees_a_dropped_flag(monkeypatch):
    # "--h" must be matched as a whole token, not inside "--help"
    build_parser = cli.build_parser

    def without_h():
        parser = build_parser()
        sub = parser.subcommands["experiment"]
        action = next(a for a in sub._actions if "--h" in a.option_strings)
        sub._remove_action(action)
        for group in sub._action_groups:
            if action in group._group_actions:
                group._group_actions.remove(action)
        return parser

    monkeypatch.setattr(cli, "build_parser", without_h)
    assert "--h " not in cli.build_parser().subcommands["experiment"].format_help()
    report = inv._check_cli_help_flags(exp.ExperimentConfig())
    assert report.value == 1.0 and not report.passed


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
