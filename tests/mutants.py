"""Mutation gate: every mutant below must make its named test fail.

    python tests/mutants.py

Each mutant is one text replacement in the library, kept as data: the file,
the exact old text (which must occur exactly once), the new text, and the
pytest node id that must fail once the replacement is made. The runner copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory and first
runs every named test there unmutated: all of them must pass, or a test that
is already broken would count as a kill. Then it applies each mutant to the
copy in turn, runs its test with ``PYTHONPATH=<copy>/src`` and restores the
file. The child process checks that the tests imported ``tdrepdyn`` from
the copy, since an editable install also puts the checkout on the path.

A mutant is killed when its test fails (pytest exit status 1). The runner
exits 0 only if every mutant is killed; a survivor, a test that cannot run,
or an old text not found exactly once makes it exit 1. pytest does not
collect this file, and CI runs it as a job of its own. See DeMillo, Lipton
and Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
WRONG_PACKAGE = 97  # the child's exit status when tdrepdyn is not the copy's
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    test: str  # pytest node id that must fail


_MDP, _DYN, _MET = "src/tdrepdyn/mdp.py", "src/tdrepdyn/dynamics.py", "src/tdrepdyn/metrics.py"
_EXP, _CLI = "src/tdrepdyn/experiments.py", "src/tdrepdyn/cli.py"
_ACC, _TDYN = "tests/test_acceptance.py::", "tests/test_dynamics.py::"
_TEXP, _TCLI = "tests/test_experiments.py::", "tests/test_cli.py::"

MUTANTS = (
    # one per invariant row
    Mutant("system_scales_identity", _MDP, "np.eye(self.n) - self.gamma * self.P",
           "self.gamma * np.eye(self.n) - self.P",
           _ACC + "test_criterion_8_key_matrix_positive_definite"),
    Mutant("rewards_scaled_by_1_over_sqrt_h", _MDP, "make_rng(reward_seed).standard_normal((n, h))",
           "make_rng(reward_seed).standard_normal((n, h)) / np.sqrt(h)",
           _ACC + "test_criterion_7_reward_concentration"),
    Mutant("semi_gradients_drop_d", _DYN, "_semi_gradients(mrp.A, mrp.dR, ",
           "_semi_gradients(mrp.system, mrp.R, ",
           _ACC + "test_criterion_1_gradient_flow_identity"),
    Mutant("fixed_point_uses_A_transpose", _DYN, '            G_inv = _metrics._solve(G, self.eye)\n',
           '            G = G.swapaxes(1, 2)\n            G_inv = _metrics._solve(G, self.eye)\n',
           _ACC + "test_criterion_3_covariance_constancy"),
    Mutant("stacked_field_negates_eta_phi", _DYN, 'full([row.spec.eta_phi for row in rows]',
           'full([-row.spec.eta_phi for row in rows]',
           "tests/test_experiments.py::test_invariant_suite_all_green"),
    # A^T for A, I - gamma P for the key matrix, and the condition guard's certificate
    Mutant("semi_gradients_A_transpose", _DYN, "weighted = dR - A @ (phi @ w)",
           "weighted = dR - A.swapaxes(-1, -2) @ (phi @ w)",
           _TDYN + "test_semi_gradients_match_enumerated_td_updates"),
    Mutant("value_error_drops_d", _MET, "err * (mrp.A @ err)", "err * (mrp.system @ err)",
           "tests/test_metrics.py::test_weighted_value_error_matches_enumerated_sum"),
    Mutant("certificate_never_certifies", _MET, "if np.logical_and.reduce(certified):", "if False:",
           _TDYN + "test_certified_solves_skip_the_svd"),
    Mutant("certificate_always_certifies", _MET, "if np.logical_and.reduce(certified):", "if True:",
           _TDYN + "test_cond_guard_rejects_exactly_what_numpy_cond_rejects"),
    Mutant("certificate_square_root", _MET, "** (G.shape[-1] / 2)", "** 0.5",
           _TDYN + "test_cond_guard_rejects_exactly_what_numpy_cond_rejects"),
    # the key matrix, the two-time-scale flow's reward matrix and the step-size control
    Mutant("key_matrix_drops_d", _MDP, "_frozen(self.d[:, None] * self.system)", "_frozen(self.system)",
           "tests/test_mdp.py::test_key_matrix_positive_definite"),
    Mutant("value_function_skips_guard", _MDP,
           '_frozen(_solve_or_raise(self.system, rhs, "I - gamma P"))',
           "_frozen(np.linalg.solve(self.system, rhs))",
           "tests/test_mdp.py::test_value_function_rejects_an_overflowed_solve"),
    Mutant("rejected_solve_not_kept", _MDP, "if name not in self._rejected:", "if True:",
           "tests/test_mdp.py::test_rejected_value_function_and_resolvent_are_kept"),
    Mutant("C_drops_d", _MDP, "self.dR @ self.dR.T", "self.R @ self.R.T",
           _TDYN + "test_stacked_field_rows_are_bitwise_the_public_drifts"),
    Mutant("growth_after_rejection", _DYN,
           "    factor = np.where(~fresh & ~(factor < 1), 1.0, factor)\n", "",
           _TDYN + "test_integrator_agrees_with_scipy_rk45"),
    Mutant("dense_output_uses_next_step", _DYN, "_dense_output(K[slot], t[slot], h[slot],",
           "_dense_output(K[slot], t[slot], h_abs[slot],", _TDYN + "test_integrator_agrees_with_scipy_rk45"),
    Mutant("batch_wide_initial_step", _DYN, "    f1 = evaluate(y + h0[:, None] * f, 1.0, h0)\n",
           "    h0[:] = h0.min()\n    f1 = evaluate(y + h0[:, None] * f, 1.0, h0)\n",
           _TDYN + "test_batch_rows_are_bitwise_their_solo_runs"),
    Mutant("step_budget_never_fires", _DYN, "if taken >= MAX_STEPS:", "if False:",
           _TDYN + "test_step_budget_ends_only_the_row_that_spends_it"),
    # every solve a metric raises on meets the residual bound, not the guard alone
    Mutant("raising_solve_skips_residual", _MET, "failures = _judge(G, x, b, name)",
           "failures = _guard(G, x, name)",
           "tests/test_metrics.py::test_critical_point_residual_raises_for_an_ill_conditioned_snapshot"),
    # the one residual bound every judgement meets, and the work the integrator's hot
    # path skips or keeps once: the two-time-scale solves judged once per attempt,
    # the step floor's fast path, per-slot counts
    Mutant("residual_bound_looser", _MET, "bound = 1e-10 * np.maximum.reduce(",
           "bound = 1e-4 * np.maximum.reduce(",
           _TDYN + "test_fixed_point_residual_failure_has_its_own_type"),
    Mutant("judgement_reports_last_rejected_call", _DYN, "for i in sorted(failures):",
           "for i in sorted(failures, reverse=True):",
           _TDYN + "test_row_rejected_at_a_middle_stage_fails_there_alone"),
    Mutant("step_floor_check_always_skipped", _DYN,
           "if not np.logical_and.reduce(h_abs >= min_step):", "if False:",
           _TDYN + "test_nan_step_fails_instead_of_spinning"),
    Mutant("accepted_not_compacted", _DYN, "emitted, accepted = (", "emitted, _ = (",
           _TDYN + "test_rows_leave_the_batch_as_they_fail_or_finish"),
    # the abort threshold and the one failure type the CLI reports as an abort
    Mutant("abort_never_fires", _EXP, "if len(failures) > MAX_FAILURE_FRACTION * config.n_trials:",
           "if False:", _TEXP + "test_failure_threshold_aborts"),
    Mutant("abort_at_the_threshold", _EXP, "len(failures) > MAX_FAILURE_FRACTION",
           "len(failures) >= MAX_FAILURE_FRACTION", _TEXP + "test_failures_at_the_threshold_are_recorded"),
    Mutant("abort_catches_any_runtime_error", _CLI,
           '(exp.TooManyFailedTrials, EXIT_NUMERIC, "experiment failed")',
           '(RuntimeError, EXIT_NUMERIC, "experiment failed")',
           _TCLI + "test_broken_process_pool_propagates"),
    # the pool's plan cuts batches only as far as it takes to fill the workers
    Mutant("every_batch_cut_per_worker", _EXP, "-(-workers // len(batches))", "workers",
           _TEXP + "test_large_batches_are_cut_into_a_chunk_per_worker"),
    # the config's rules: one curve per h and per label, distinct log times
    Mutant("repeated_h_values_accepted", _EXP, "if len(set(self.h_values)) < len(self.h_values):",
           "if False:", _TCLI + "test_repeated_fig3_h_values_are_a_usage_error"),
    Mutant("repeated_curve_labels_accepted", _EXP, "if len(set(labels)) < len(labels):", "if False:",
           _TCLI + "test_duplicate_fig1_curves_are_a_usage_error"),
    Mutant("repeated_log_times_accepted", _DYN,
           "if not (np.diff(np.linspace(0.0, self.t_end, self.log_points)) > 0).all():", "if False:",
           _TCLI + "test_log_times_that_repeat_are_a_usage_error"),
    # the parser policy
    Mutant("abbreviated_flags_allowed", _CLI, "_formatter, allow_abbrev=False,", "_formatter,",
           _TCLI + "test_abbreviated_flags_exit_1"),
)

# Run in the copy: run pytest, then check that the tests imported the copy's tdrepdyn.
# A kill needs one failing example, not a minimal one, so hypothesis does not shrink.
_CHILD = f"""
import sys
from pathlib import Path
import pytest

class NoShrink:
    def pytest_configure(self, config):
        from hypothesis import Phase, settings
        settings.register_profile("mutants", phases=(Phase.explicit, Phase.generate), database=None)
        settings.load_profile("mutants")

status = pytest.main(["-q", "-x", "-p", "no:cacheprovider", *sys.argv[2:]], plugins=[NoShrink()])
package = sys.modules.get("tdrepdyn")
if package is None or not Path(package.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve()):
    print(f"the tests did not import tdrepdyn from the copy: {{package}}", file=sys.stderr)
    sys.exit({WRONG_PACKAGE})
sys.exit(status)
"""


def mutate(text: str, mutant: Mutant) -> str:
    """``text`` with the mutant's replacement made; its old text must occur exactly once."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


def run_tests(copy: Path, tests: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-c", _CHILD, str(copy), *tests],
        cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="tdrepdyn-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        try:
            sources = {m.file: (copy / m.file).read_text() for m in MUTANTS}
            mutated = [mutate(sources[m.file], m) for m in MUTANTS]
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 1

        start = time.perf_counter()
        tests = sorted({m.test for m in MUTANTS})
        clean = run_tests(copy, tests)
        if clean.returncode != 0:
            print(clean.stdout + clean.stderr, file=sys.stderr)
            print(f"the unmutated tests do not pass (exit {clean.returncode})", file=sys.stderr)
            return 1
        print(f"unmutated: {len(tests)} tests pass ({time.perf_counter() - start:.1f} s)")

        bad = []
        for mutant, text in zip(MUTANTS, mutated):
            start = time.perf_counter()
            path = copy / mutant.file
            path.write_text(text)
            try:
                result = run_tests(copy, [mutant.test])
                status = {0: "SURVIVED", 1: "killed"}.get(
                    result.returncode, f"error (exit {result.returncode})"
                )
            except subprocess.TimeoutExpired:
                result, status = None, f"timed out after {TIMEOUT_S} s"
            finally:
                path.write_text(sources[mutant.file])
            print(f"{mutant.name}: {status} ({mutant.test}, {time.perf_counter() - start:.1f} s)")
            if status != "killed":
                bad.append(mutant.name)
                if result is not None and result.returncode != 0:
                    print(result.stdout[-2000:] + result.stderr[-2000:], file=sys.stderr)
    if bad:
        print(f"{len(bad)} of {len(MUTANTS)} mutants not killed: {', '.join(bad)}", file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
