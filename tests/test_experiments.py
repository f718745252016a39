import json
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tdrepdyn import dynamics as dyn
from tdrepdyn import experiments as exp
from tdrepdyn import invariants as inv
from tdrepdyn import mdp
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
    with pytest.raises(ValueError, match="seed must be >= 0"):
        exp.ExperimentConfig(seed=-1)
    with pytest.raises(TypeError):
        exp.ExperimentConfig(dynamics=("end_to_end",))
    with pytest.raises(ValueError, match="at least one dynamics variant is required"):
        exp.ExperimentConfig(dynamics=())


@pytest.mark.parametrize("overrides", [
    {"h_values": (2, 2)},
    {"dynamics": (dyn.end_to_end(), dyn.end_to_end())},
    # labels print rates with %g, so these two specs name one curve
    {"dynamics": (dyn.two_time_scale(1.0), dyn.two_time_scale(1.0000001))},
])
def test_curves_that_are_not_distinct_are_rejected(overrides):
    with pytest.raises(ValueError, match="not distinct"):
        exp.ExperimentConfig(**overrides)


def test_a_run_that_cannot_start_leaves_no_directory(tmp_path):
    # an unknown name left outdir/fig9 behind, and a repeated h an empty outdir/fig3
    with pytest.raises(ValueError, match="unknown experiment"):
        exp.run_experiment("fig9", tiny_config(outdir=tmp_path))
    with pytest.raises(ValueError, match="not distinct"):
        exp.run_experiment("fig3", tiny_config(outdir=tmp_path, h_values=(2, 2)))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
@pytest.mark.parametrize("name", ["n_states", "k", "n_trials", "seed", "jobs", "h_values"])
def test_config_rejects_non_integer_counts(name, value):
    # k = 2.5 was accepted and a run then died in numpy with an uncaught TypeError
    with pytest.raises(TypeError, match="must be an integer"):
        exp.ExperimentConfig(**{name: (1, value) if name == "h_values" else value})


def test_config_from_json_keeps_h_values_as_given():
    # h_values entries were truncated with int(), so 2.5 ran as h = 2
    with pytest.raises(TypeError, match="h_values entries must be an integer"):
        exp.config_from_json({"h_values": [1, 2.5]})
    assert exp.config_from_json({"h_values": [3, 1]}).h_values == (3, 1)


def test_config_json_round_trip():
    cfg = tiny_config(outdir="/tmp/somewhere", jobs=2, h_values=(1, 4))
    doc = exp.config_to_json(cfg)
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
        log_points=draw(st.integers(2, 10_000)),
    )
    return exp.ExperimentConfig(
        n_states=n,
        k=draw(st.integers(1, n)),
        gamma=draw(st.floats(0.0, 1.0, exclude_max=True)),
        alpha=draw(st.floats(0.0, 1.0)),
        n_trials=draw(st.integers(1, 1000)),
        h_values=tuple(draw(st.lists(st.integers(1, 16), min_size=1, max_size=5, unique=True))),
        dynamics=tuple(draw(st.lists(specs, min_size=1, max_size=4, unique_by=exp._dynamics_label))),
        integrator=integrator,
        seed=draw(st.integers(0, 2**63)),
        outdir=draw(st.none() | st.text(min_size=1, max_size=20)),
        jobs=draw(st.integers(1, 64)),
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
    series = exp.run_experiment("fig1", cfg)
    assert set(series) == {"end_to_end_w1_phi1", "end_to_end_w10_phi1", "two_time_scale_phi1"}
    for agg in series.values():
        assert agg.values.shape == (3, 11)
        assert agg.failures == ()
        assert (agg.values >= 0).all()
    again = exp.run_experiment("fig1", tiny_config(outdir=None))
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
    series = exp.run_experiment("fig2", tiny_config(outdir=tmp_path))
    assert set(series) == {"h5_general", "h1_symmetric", "h1_general"}
    assert (tmp_path / "fig2" / "h1_symmetric.csv").exists()


def test_run_fig3_h_sweep():
    series = exp.run_experiment("fig3", tiny_config(h_values=(1, 2)))
    assert set(series) == {"h1", "h2"}
    assert series["h1"].values.shape == (3, 11)


def test_numpy_scalars_in_the_config_reach_the_manifest(tmp_path):
    # the config checks accept numpy integers; json.dumps once failed on them after every trial ran
    cfg = exp.ExperimentConfig(n_states=8, n_trials=2, seed=np.int64(3), h_values=(np.int64(1),),
                               outdir=tmp_path, integrator=dyn.IntegratorConfig(t_end=1.0, log_points=3))
    exp.run_experiment("fig3", cfg)
    manifest = json.loads((tmp_path / "fig3" / "manifest.json").read_text())
    assert manifest["curves"]["h1"]["trial_seeds"] == [3, 4]
    assert exp.config_from_json(manifest["config"]) == exp.ExperimentConfig(
        n_states=8, n_trials=2, seed=3, h_values=(1,), outdir=str(tmp_path),
        integrator=dyn.IntegratorConfig(t_end=1.0, log_points=3),
    )


def test_unknown_experiment_is_rejected(monkeypatch):
    monkeypatch.setattr(exp, "_map_trials", lambda *args: pytest.fail("a trial ran"))
    with pytest.raises(ValueError, match="unknown experiment 'fig9'"):
        exp.run_experiment("fig9", tiny_config())


def test_fig1_curves_share_one_chain_per_trial(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append((args, kwargs["seed"]))
        return _make_mdp(*args, **kwargs)

    monkeypatch.setattr(mdp, "make_mdp", counting)
    exp.run_experiment("fig1", tiny_config(n_trials=2))
    assert calls == [((False, 1), 7), ((False, 1), 8)]


def test_single_reversible_trajectory_is_monotone():
    # one symmetric-generator trial: reversible, so E never increases
    mrp = mdp.make_mdp(True, 1, n=8, gamma=0.9, seed=2)
    phi0 = exp.initial_representation(2, 8, 2)
    log = dyn.integrate(
        mrp, dyn.end_to_end(), phi0,
        config=dyn.IntegratorConfig(t_end=60.0, rtol=1e-10, atol=1e-12, log_points=121),
    )
    assert (np.diff(log.metrics["E"]) <= 1e-11).all()


# ------------------------------------------------------------ failure policy


_make_mdp = mdp.make_mdp


def _always_boom(*args, **kwargs):
    raise dyn.IntegrationError("synthetic trial failure")


def _boom_at_seed(bad_seed):
    def make_mdp(*args, seed, **kwargs):
        if seed == bad_seed:
            raise dyn.IntegrationError("synthetic trial failure")
        return _make_mdp(*args, seed=seed, **kwargs)
    return make_mdp


def test_failure_threshold_aborts(monkeypatch):
    monkeypatch.setattr(mdp, "make_mdp", _always_boom)
    with pytest.raises(exp.TooManyFailedTrials, match="trials failed"):
        exp.run_experiment("fig1", tiny_config())


def test_failures_below_threshold_are_recorded(monkeypatch):
    cfg = tiny_config(n_trials=12)  # 1 failure is under 10% of 12
    monkeypatch.setattr(mdp, "make_mdp", _boom_at_seed(exp.trial_seed(cfg, 11)))
    series = exp.run_experiment("fig1", cfg)
    for agg in series.values():
        assert agg.values.shape[0] == 11
        assert len(agg.failures) == 1
        seed, msg = agg.failures[0]
        assert seed == exp.trial_seed(cfg, 11) and "synthetic" in msg


def test_failures_at_the_threshold_are_recorded(monkeypatch):
    # one failure in 10 trials is exactly 10%, which does not exceed the threshold
    monkeypatch.setattr(exp, "MAX_FAILURE_FRACTION", 0.1)
    cfg = tiny_config(n_trials=10, h_values=(1,))
    monkeypatch.setattr(mdp, "make_mdp", _boom_at_seed(exp.trial_seed(cfg, 4)))
    (agg,) = exp.run_experiment("fig3", cfg).values()
    assert agg.values.shape[0] == 9
    assert [seed for seed, _ in agg.failures] == [exp.trial_seed(cfg, 4)]


def test_a_rows_own_failure_fails_only_its_curve(monkeypatch):
    # the other failure tests fail the chain build, and with it every curve of the trial
    monkeypatch.setattr(dyn, "MAX_STEPS", 100)
    cfg = tiny_config(dynamics=(dyn.end_to_end(1e3, 1e3), dyn.end_to_end(1.0, 1.0)),
                      integrator=dyn.IntegratorConfig(t_end=1.0, log_points=5), n_trials=2)
    labels = ("end_to_end_w1000_phi1000", "end_to_end_w1_phi1")
    results, seconds, max_nfev = exp._run_one(("fig1", cfg, labels, range(2)))
    assert len(results) == 2 and seconds > 0 and max_nfev > 0
    for result in results:
        assert list(result["curves"]) == ["end_to_end_w1_phi1"]
        (label, msg), = result["errors"].items()
        assert label == "end_to_end_w1000_phi1000" and msg.startswith("step budget of 100 steps")
    with pytest.raises(exp.TooManyFailedTrials, match="end_to_end_w1000_phi1000: 2/2 trials failed"):
        exp.run_experiment("fig1", cfg)


def test_bug_in_a_trial_propagates(monkeypatch):
    # a TypeError is a bug, not a numerical trial failure to be tolerated
    def bad_row(*args, **kwargs):
        raise TypeError("bad scenario row")

    monkeypatch.setattr(dyn, "integrate_batch", bad_row)
    with pytest.raises(TypeError, match="bad scenario row"):
        exp.run_experiment("fig1", tiny_config())


def test_pool_size_is_clamped_without_starting_processes(monkeypatch):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    assert exp._pool_workers(tiny_config(jobs=10_000)) == cpus
    assert exp._pool_workers(tiny_config(jobs=2, n_trials=20)) == min(2, cpus)
    # under taskset or a cpuset the process may run on fewer CPUs than the host has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert exp._pool_workers(tiny_config(jobs=10_000, n_trials=10_000)) == 1

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-unit run must stay in process")

    # on 4 CPUs one batch of one trial is still a single unit
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(exp, "ProcessPoolExecutor", no_pool)
    results = exp._map_trials("fig3", tiny_config(jobs=10_000, n_trials=1, h_values=(1,)))
    assert len(results) == 1 and set(results[0]["curves"]) == {"h1"}


class _InlinePool:
    """A ProcessPoolExecutor stand-in that runs each unit in this process, in order."""

    def __init__(self, max_workers, sizes):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    map = staticmethod(map)


@pytest.fixture
def inline_pool(monkeypatch):
    """Run units inline on a faked affinity mask; record the payloads and pool sizes."""
    record = {"units": [], "pools": []}
    real_run_one = exp._run_one

    def run_one(payload):
        record["units"].append(payload[2:])
        return real_run_one(payload)

    def use_cpus(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        return record

    monkeypatch.setattr(exp, "_run_one", run_one)
    monkeypatch.setattr(exp, "ProcessPoolExecutor",
                        lambda max_workers: _InlinePool(max_workers, record["pools"]))
    return use_cpus


_E2E, _TTS = ("end_to_end_w1_phi1", "end_to_end_w10_phi1"), ("two_time_scale_phi1",)
_THREE_KINDS = (dyn.linear_td(), dyn.end_to_end(), dyn.two_time_scale())


@pytest.mark.parametrize("experiment,overrides,cpus,units,pools", [
    # one usable worker: today's single in-process call over every curve and trial
    ("fig1", {"jobs": 1}, 4, [(_E2E + _TTS, range(3))], []),
    # two workers (jobs above the CPU count): one unit per batch, each over all trials
    ("fig1", {"jobs": 8}, 2, [(_E2E, range(3)), (_TTS, range(3))], [2]),
    # four workers: 2 batches x 2 trial chunks
    ("fig1", {"jobs": 4}, 4,
     [(_E2E, range(1)), (_E2E, range(1, 3)), (_TTS, range(1)), (_TTS, range(1, 3))], [4]),
    # three batches share two workers
    ("fig1", {"jobs": 2, "dynamics": _THREE_KINDS}, 2,
     [(("linear_td_w1",), range(3)), (("end_to_end_w1_phi1",), range(3)), (_TTS, range(3))], [2]),
    # the two-time-scale rows of every h are one batch, so the units fall back to trial chunks
    ("fig3", {"jobs": 2, "h_values": (4, 8)}, 2,
     [(("h4", "h8"), range(1)), (("h4", "h8"), range(1, 3))], [2]),
], ids=["one_worker", "two_workers", "four_workers", "three_kinds", "one_batch"])
def test_units_split_batches_then_trials(experiment, overrides, cpus, units, pools, inline_pool):
    record = inline_pool(cpus)
    series = exp.run_experiment(experiment, tiny_config(**overrides))
    assert record["units"] == units and record["pools"] == pools
    seq = exp.run_experiment(experiment, tiny_config(**{**overrides, "jobs": 1}))
    for name in seq:
        assert np.array_equal(seq[name].values, series[name].values)


@pytest.mark.parametrize("experiment,n_trials,cpus,chunks", [
    # W workers and B batches cut each batch into min(W, trials, ceil(W / B))
    # chunks, however many rows it has: fig1 has two batches, fig3 one
    ("fig1", 20, 2, {_E2E: 1, _TTS: 1}),
    # 200 end-to-end and 100 two-time-scale rows still make one unit per batch
    ("fig1", 100, 2, {_E2E: 1, _TTS: 1}),
    ("fig1", 100, 4, {_E2E: 2, _TTS: 2}),
    # batches of 80 and 40 rows get the same chunks
    ("fig1", 40, 4, {_E2E: 2, _TTS: 2}),
    ("fig3", 30, 2, {("h1", "h2", "h4", "h8"): 2}),
    ("fig3", 1, 2, {("h1", "h2", "h4", "h8"): 1}),
], ids=["small_batches", "two_workers", "four_workers", "uneven_batches", "fig3", "fewer_trials"])
def test_large_batches_are_cut_into_a_chunk_per_worker(monkeypatch, experiment, n_trials, cpus, chunks):
    """A run's batches, large or small, make about one unit per worker, and no more than the trials."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    units = exp._units(experiment, tiny_config(jobs=cpus, n_trials=n_trials))
    assert Counter(labels for labels, _ in units) == chunks
    for labels in chunks:  # each batch's chunks cover its trials once, in order
        assert [i for unit, trials in units if unit == labels for i in trials] == list(range(n_trials))


def test_a_chain_that_cannot_be_built_fails_its_trial_in_every_unit(monkeypatch, inline_pool):
    # fig2's one batch is cut into two trial chunks; the trial whose
    # h1_symmetric chain cannot be built fails under every curve, as with one worker
    monkeypatch.setattr(exp, "MAX_FAILURE_FRACTION", 0.5)
    cfg = tiny_config(jobs=2)
    bad_seed = exp.trial_seed(cfg, 1)
    message = str(mdp.ConvergenceError("synthetic symmetric chain", 5, 1.0))

    def make_mdp(symmetric, h, *, seed, **kwargs):
        if symmetric and seed == bad_seed:
            raise mdp.ConvergenceError("synthetic symmetric chain", 5, 1.0)
        return _make_mdp(symmetric, h, seed=seed, **kwargs)

    monkeypatch.setattr(mdp, "make_mdp", make_mdp)
    record = inline_pool(2)
    series = exp.run_experiment("fig2", cfg)
    curves = ("h5_general", "h1_symmetric", "h1_general")
    assert record["units"] == [(curves, range(1)), (curves, range(1, 3))]
    for agg in series.values():
        assert agg.trial_seeds == (7, 9)
        assert agg.failures == ((bad_seed, message),)


@pytest.mark.parametrize("experiment,overrides,jobs", [
    pytest.param(experiment, overrides, jobs, id=name if jobs == 2 else f"{name}-jobs{jobs}")
    for name, experiment, overrides in (
        ("fig1", "fig1", {}), ("fig2", "fig2", {}), ("fig3", "fig3", {"h_values": (1,)}),
        ("three_kinds", "fig1", {"dynamics": _THREE_KINDS}),
    )
    for jobs in (2, 3)
])
def test_parallel_trials_match_sequential(experiment, overrides, jobs):
    seq = exp.run_experiment(experiment, tiny_config(**overrides, jobs=1))
    par = exp.run_experiment(experiment, tiny_config(**overrides, jobs=jobs))
    assert seq.keys() == par.keys()
    for name in seq:
        assert np.array_equal(seq[name].values, par[name].values)
        assert seq[name].trial_seeds == par[name].trial_seeds
        assert seq[name].failures == par[name].failures


def test_chunked_batches_match_across_job_counts():
    # fig3's rows of every h share one batch, which two workers cut into trial chunks
    seq = exp.run_experiment("fig3", tiny_config(h_values=(1, 2, 8), n_trials=5, jobs=1))
    par = exp.run_experiment("fig3", tiny_config(h_values=(1, 2, 8), n_trials=5, jobs=2))
    for name in seq:
        assert np.array_equal(seq[name].values, par[name].values)


@pytest.mark.parametrize("experiment", ["fig1", "fig2", "fig3"])
def test_outputs_match_golden(experiment, tmp_path):
    # tests/data/golden holds tiny_config() outputs, recorded with outdir null
    exp.run_experiment(experiment, tiny_config(outdir=tmp_path))
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
    # the rows of report.csv, in definition order
    assert [r.name for r in reports] == [
        "mdp.key_matrix_pd", "mdp.reward_concentration", "dynamics.gradient_flow_identity",
        "dynamics.covariance_constancy", "dynamics.trace_monotonicity",
    ]
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
    assert reports["mdp.key_matrix_pd"].passed  # integrates nothing, so tolerance-blind


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
    assert len(reports) == 5
    assert reports[0] == MetricReport(name, float("inf"), 0.0, False)
    assert all(r.passed for r in reports[1:])


@pytest.mark.parametrize("check", ["covariance_constancy", "trace_monotonicity"])
def test_failed_trajectory_in_an_invariant_check_is_a_failed_report(check, monkeypatch):
    # _integrated raises the first failed row of its batch
    def all_rows_fail(problems, config, metric_set):
        return [dyn.IntegrationError(f"row {i} failed") for i in range(len(problems))]

    real_check = getattr(inv, f"_check_{check}")
    monkeypatch.setattr(dyn, "integrate_batch", all_rows_fail)
    with pytest.raises(dyn.IntegrationError, match="row 0 failed"):
        real_check(exp.ExperimentConfig())
    name = _suite_with_one_check(monkeypatch, real_check)
    reports = inv.run_invariant_suite(exp.ExperimentConfig())
    assert reports[0] == MetricReport(name, float("inf"), 0.0, False)
    assert all(r.passed for r in reports[1:])


def test_bug_in_an_invariant_check_propagates(monkeypatch):
    def buggy(config):
        raise TypeError("bug in a check")

    _suite_with_one_check(monkeypatch, buggy)
    with pytest.raises(TypeError, match="bug in a check"):
        inv.run_invariant_suite(exp.ExperimentConfig())


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
