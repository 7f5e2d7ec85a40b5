import math

import numpy as np
import pytest

from nvzeno.dynamics import evolve_unitary, fidelity
from nvzeno.cli import _PARAMETER_KEYS
from nvzeno.errors import (
    ConfigError,
    NotNormalized,
    NotNormalizedInput,
    OutOfRange,
    UnknownExperiment,
    UnknownKey,
)
from nvzeno.experiments import (
    BASIS_LABELS,
    EXPERIMENTS,
    IDEAL_GATE_MAP,
    SweepSpec,
    gate_truth_table,
    run_gate,
    run_qst,
    sweep,
    zeno_convergence_report,
)
from nvzeno.model import SystemParams, basis_state, build_h_dd, build_h_drive, build_space
from nvzeno.zeno import survival_probability


def wrapped_phase_distance(a, b):
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


class TestRunGate:
    def test_near_ideal_ratio(self):
        res = run_gate(SystemParams(omega=0.005))
        for label in BASIS_LABELS:
            assert res.fidelities[label] >= 0.999
        assert res.superposition_fidelity >= 0.999
        assert abs(res.duration - math.pi / 0.005) < 1e-9

    def test_expected_phases(self):
        res = run_gate(SystemParams(omega=0.005))
        expected = {label: IDEAL_GATE_MAP[label][1] for label in BASIS_LABELS}
        for label in BASIS_LABELS:
            assert wrapped_phase_distance(res.phases[label], expected[label]) < 0.05

    def test_moderate_ratio_average(self):
        res = run_gate(SystemParams(omega=0.15))
        assert abs(res.average_fidelity - 0.98) <= 0.02

    def test_frozen_input_at_ideal_ratio(self):
        res = run_gate(SystemParams(omega=0.005))
        assert res.fidelities["down_down"] >= 0.999

    def test_custom_superposition_inputs(self):
        params = SystemParams(omega=0.05)
        by_label = run_gate(params, superposition="up_down")
        direct = run_gate(params)
        assert by_label.superposition_fidelity == pytest.approx(
            direct.fidelities["up_down"], abs=1e-12
        )
        with pytest.raises(NotNormalizedInput):
            run_gate(params, superposition=[1.0, 1.0, 0.0, 0.0])

    def test_open_system_path(self):
        res = run_gate(SystemParams(omega=0.105, gamma_nv=0.001, gamma_n=0.001))
        for label in BASIS_LABELS:
            assert 0.9 <= res.fidelities[label] <= 1.0 + 1e-9
        assert res.diagnostics["max_trace_deviation"] < 1e-7
        assert res.diagnostics["min_eigenvalue"] >= -1e-7


class TestTruthTable:
    def test_ideal_mappings(self):
        rows = gate_truth_table(SystemParams(omega=0.005))
        by_input = {row.input_label: row for row in rows}
        for label in BASIS_LABELS:
            row = by_input[label]
            out_label, phase = IDEAL_GATE_MAP[label]
            assert row.output_label == out_label
            assert row.population >= 0.999
            assert wrapped_phase_distance(row.phase, phase) < 0.05
            assert row.nv_purity >= 0.99

    def test_nv_disentangles_below_moderate_ratio(self, space2):
        from nvzeno.model import nv_reduced_state

        params = SystemParams(omega=0.05)
        ctx_h = params.hamiltonian(space2)
        for label in BASIS_LABELS:
            n1n2 = {"up_up": ("up", "up"), "up_down": ("up", "down"),
                    "down_up": ("down", "up"), "down_down": ("down", "down")}[label]
            psi0 = basis_state(space2, n1n2 + ("aux",))
            final = evolve_unitary(ctx_h, psi0, (0.0, params.gate_duration)).final_state
            r_nv = nv_reduced_state(space2, final)
            assert np.real(r_nv[2, 2]) >= 0.99


class TestDetuning:
    def test_small_detuning_high_fidelity(self):
        params = SystemParams(omega=0.105, delta=0.1 * 0.105)
        assert abs(run_gate(params).average_fidelity - 0.995) <= 0.01

    def test_half_ratio_visibly_degraded(self):
        base = run_gate(SystemParams(omega=0.105)).average_fidelity
        detuned = run_gate(SystemParams(omega=0.105, delta=0.5 * 0.105)).average_fidelity
        assert base - detuned > 0.005


class TestRunQst:
    def test_trivial_input_is_fixed_point(self):
        res = run_qst(1.0, 0.0, SystemParams(omega=0.005))
        assert res.fidelity >= 0.999

    def test_balanced_input_near_ideal_ratio(self):
        res = run_qst(1 / math.sqrt(2), 1 / math.sqrt(2), SystemParams(omega=0.005))
        assert res.fidelity >= 0.995

    def test_rejects_unnormalized_coefficients(self):
        with pytest.raises(NotNormalizedInput):
            run_qst(1.0, 0.5, SystemParams(omega=0.105))

    def test_relay_overlap_peaks_at_midpoint(self, catalog):
        res = run_qst(1 / math.sqrt(2), 1 / math.sqrt(2), SystemParams(omega=0.105), n_times=101)
        overlap = np.abs(res.trajectory.states @ catalog.transfer_relay.conj()) ** 2
        assert int(np.argmax(overlap)) == 50

    def test_direction_symmetry(self):
        params = SystemParams(omega=0.105)
        f12 = run_qst(0.6, 0.8, params, source=1).fidelity
        f21 = run_qst(0.6, 0.8, params, source=2).fidelity
        assert abs(f12 - f21) < 1e-9

    def test_dark_survival_tracked(self):
        res = run_qst(1 / math.sqrt(2), 1 / math.sqrt(2), SystemParams(omega=0.105))
        assert 0.97 <= res.dark_survival_min <= 1.0 + 1e-9
        assert "dark_survival" in res.trajectory.observables


class TestZenoConvergence:
    def test_deviation_strictly_decreasing(self):
        report = zeno_convergence_report([10.0, 100.0, 1000.0])
        values = [d for _, d in report]
        assert values[0] > values[1] > values[2]
        assert values[2] < 0.01

    def test_single_ratio(self):
        report = zeno_convergence_report([50.0])
        assert len(report) == 1 and report[0][0] == 50.0

    def test_rejects_small_ratio(self):
        with pytest.raises(ValueError):
            zeno_convergence_report([0.5])


class TestSweep:
    def test_unknown_experiment(self):
        with pytest.raises(UnknownExperiment):
            sweep(SweepSpec("no_such_thing"))

    def test_ratio_sweep_grid_and_bounds(self):
        grid = np.linspace(0.005, 0.25, 7)
        res = sweep(SweepSpec("ratio_sweep", axes={"omega_over_g": grid}))
        assert np.array_equal(res.data["omega_over_g"], grid)
        for column in ("fidelity_avg", "fidelity_superposition"):
            values = res.data[column]
            assert np.all(values >= 0.0) and np.all(values <= 1.0 + 1e-9)

    def test_axis_validation(self):
        with pytest.raises(OutOfRange):
            sweep(SweepSpec("ratio_sweep", axes={"omega_over_g": np.array([-0.1, 0.1])}))
        with pytest.raises(OutOfRange):
            sweep(SweepSpec("ratio_sweep", axes={"omega_over_g": np.array([])}))
        with pytest.raises(OutOfRange):
            sweep(SweepSpec("ratio_sweep", axes={"gamma_nv_over_g": np.array([0.0, 0.001])}))

    def test_grid_points_equal_independent_runs(self):
        # each grid point is computed on its own, in the same order as the rows
        axes = {
            "gamma_nv_over_g": np.array([0.0, 0.002]),
            "gamma_n_over_g": np.array([0.001]),
        }
        res = sweep(SweepSpec("decay_surface", axes=axes))
        for a, b, fid in zip(
            res.data["gamma_nv_over_g"], res.data["gamma_n_over_g"], res.data["fidelity_avg"]
        ):
            direct = run_gate(SystemParams(gamma_nv=a, gamma_n=b)).average_fidelity
            assert fid == pytest.approx(direct, abs=1e-12)

    def test_metadata_contents(self):
        res = sweep(SweepSpec("ratio_sweep", axes={"omega_over_g": np.linspace(0.05, 0.25, 5)}))
        md = res.metadata
        assert md["experiment"] == "ratio_sweep"
        assert md["figure"] == "2"
        assert "decay_channels" in md
        assert isinstance(md["reference_anchors"], list)

    def test_survival_map_matches_formula(self):
        axes = {
            "t_over_T": np.linspace(0.0, 1.0, 5),
            "omega_over_g": np.linspace(0.05, 0.25, 4),
        }
        res = sweep(SweepSpec("survival_map", axes=axes))
        rows = zip(res.data["t_over_T"], res.data["omega_over_g"], res.data["p0"])
        for t_over, om, p0 in rows:
            t_abs = t_over * math.pi / om
            assert abs(p0 - survival_probability(1.0, om, t_abs)) < 1e-12

    def test_survival_map_full_consistent_with_closed_evolution(self, space2):
        axes = {
            "t_over_T": np.linspace(0.0, 1.0, 5),
            "omega_over_g": np.array([0.105]),
        }
        res = sweep(SweepSpec("survival_map_full", axes=axes))
        h = build_h_drive(space2, 0.105) + build_h_dd(space2, (1.0, 1.0))
        psi0 = basis_state(space2, ("down", "down", "aux"))
        times = axes["t_over_T"] * (math.pi / 0.105)
        traj = evolve_unitary(h, psi0, times)
        expected = traj.population_series(psi0)
        assert np.max(np.abs(res.data["p_nv_aux"] - expected)) < 1e-10

    def test_systematic_anchor_against_direct_run(self, space2):
        axes = {
            "delta_g_over_g": np.array([0.1]),
            "delta_t_over_t": np.array([0.1]),
        }
        res = sweep(SweepSpec("systematic_t_g", axes=axes))
        omega = 0.105
        h = build_h_drive(space2, omega) + build_h_dd(space2, (1.1, 1.1))
        alpha = beta = 1 / math.sqrt(2)
        psi0 = alpha * basis_state(space2, ("down", "down", "aux")) + beta * basis_state(
            space2, ("up", "down", "aux")
        )
        target = alpha * basis_state(space2, ("down", "down", "aux")) + beta * basis_state(
            space2, ("down", "up", "aux")
        )
        final = evolve_unitary(h, psi0, (0.0, 1.1 * math.pi / omega)).final_state
        assert res.data["fidelity"][0] == pytest.approx(fidelity(target, final), abs=1e-12)

    def test_detuning_population_grid_shape(self):
        axes = {
            "delta_over_omega": np.array([0.0, 0.2]),
            "t_over_T": np.linspace(0.0, 1.0, 11),
        }
        res = sweep(SweepSpec("detuning_population", axes=axes))
        assert res.n_rows == 22
        assert res.data["population"][0] == pytest.approx(1.0, abs=1e-12)

    def test_anchor_records_present_and_faithful(self):
        res = sweep(SweepSpec("qst_decoherence_nv", axes={
            "gamma_nv_over_g": np.array([0.0, 0.01]),
            "delta_over_g": np.array([0.0, 0.01]),
        }))
        anchors = res.metadata["reference_anchors"]
        assert len(anchors) == 1
        anchor = anchors[0]
        mask = (res.data["gamma_nv_over_g"] == 0.01) & (res.data["delta_over_g"] == 0.01)
        assert anchor["measured"] == pytest.approx(float(res.data["fidelity"][mask][0]))

    def test_every_experiment_has_registry_entry(self):
        for name, info in EXPERIMENTS.items():
            assert info.name == name
            assert info.description
            assert info.figure
            assert callable(info.runner)

    def test_sweep_values_within_unit_interval(self):
        tiny = {
            "detuning_population": {
                "delta_over_omega": np.array([0.0, 0.2]),
                "t_over_T": np.linspace(0.0, 1.0, 5),
            },
            "survival_map": {
                "t_over_T": np.linspace(0.0, 1.0, 4),
                "omega_over_g": np.array([0.05, 0.105]),
            },
            "systematic_omega_g": {
                "delta_g_over_g": np.array([-0.1, 0.1]),
                "delta_omega_over_omega": np.array([0.0, 0.1]),
            },
        }
        for name, axes in tiny.items():
            res = sweep(SweepSpec(name, axes=axes))
            info = EXPERIMENTS[name]
            for column in info.value_columns:
                values = res.data[column]
                assert np.all(values >= 0.0) and np.all(values <= 1.0 + 1e-9), (name, column)

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_rejects_inputs_the_experiment_does_not_read(self, name):
        info = EXPERIMENTS[name]
        unread = [key for key in _PARAMETER_KEYS if key not in info.inputs]
        assert unread
        for key in unread:
            with pytest.raises(UnknownKey):
                sweep(SweepSpec(name, fixed={key: 0.1}))
        closed_only = name.startswith(("systematic_", "survival_map"))
        assert ("dt" in info.inputs) != closed_only
        if closed_only:
            with pytest.raises(UnknownKey):
                sweep(SweepSpec(name, dt=0.001))

    def test_unnormalized_transfer_input_is_a_config_error(self):
        for name in ("systematic_omega_g", "qst_decoherence_n"):
            with pytest.raises(NotNormalized) as err:
                sweep(SweepSpec(name, fixed={"alpha": 0.9, "beta": 0.9}))
            assert isinstance(err.value, ConfigError)

    def test_decay_channels_follow_fixed_rates(self):
        one_ratio = {"omega_over_g": np.array([0.105])}
        closed = sweep(SweepSpec("ratio_sweep", axes=one_ratio))
        assert closed.metadata["decay_channels"] == ["none (closed system)"]
        open_nv = sweep(SweepSpec("ratio_sweep", axes=one_ratio, fixed={"gamma_nv_over_g": 0.002}))
        assert open_nv.metadata["decay_channels"] == ["nv: up->down at rate gamma_nv"]
        assert open_nv.data["fidelity_avg"][0] < closed.data["fidelity_avg"][0]
        # the integrator block is always emitted, with the Lindblad record when open
        assert set(closed.metadata["integrator"]) == {"max_norm_deviation"}
        assert set(open_nv.metadata["integrator"]) == {
            "dt", "max_trace_deviation", "max_hermiticity_deviation", "min_eigenvalue"
        }
        assert open_nv.metadata["integrator"]["max_trace_deviation"] < 1e-7
        open_n = sweep(SweepSpec(
            "detuning_population",
            axes={"delta_over_omega": np.array([0.0]), "t_over_T": np.array([0.0, 1.0])},
            fixed={"gamma_n_over_g": 0.001},
        ))
        assert open_n.metadata["decay_channels"] == [
            "nucleus 1: up->down at rate gamma_n",
            "nucleus 2: up->down at rate gamma_n",
        ]
