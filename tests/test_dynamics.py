import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nvzeno import dynamics
from nvzeno.dynamics import (
    evolve_lindblad,
    evolve_unitary,
    expectation,
    fidelity,
    population,
    validate_density_matrix,
)
from nvzeno.errors import (
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    PositivityViolation,
    StepCountExceeded,
    StepTooLarge,
)
from nvzeno.linalg import dagger, max_abs
from nvzeno.model import (
    CollapseChannel,
    SystemParams,
    basis_state,
    build_h_dd,
    build_h_drive,
    build_space,
    collapse_channels,
    excitation_operator,
)


def full_hamiltonian(space, omega, delta=0.0):
    return build_h_drive(space, omega, delta) + build_h_dd(space, (1.0, 1.0))


def per_step_rk4(h, channels, rho0, times, dt):
    """Reference integrator: one RK4 transfer per step, re-symmetrized after every step."""
    dim = rho0.shape[0]
    lv = dynamics._liouvillian(np.asarray(h, dtype=complex), channels)
    rho = rho0.reshape(-1)
    states = [rho0]
    for t0, t1 in zip(times[:-1], times[1:]):
        span = float(t1) - float(t0)
        n_steps = max(1, int(np.ceil(span / dt - 1e-12)))
        m = dynamics._rk4_transfer(lv, span / n_steps)
        for _ in range(n_steps):
            raw = (m @ rho).reshape(dim, dim)
            rho = (0.5 * (raw + dagger(raw))).reshape(-1)
        states.append(rho.reshape(dim, dim))
    return np.array(states)


#: Random open-system runs: two decay rates, a start time and 1-5 output intervals.
open_runs = st.tuples(
    st.floats(0.0, 0.01),
    st.floats(0.0, 0.01),
    st.floats(0.0, 5.0),
    st.lists(st.floats(0.01, 3.0), min_size=1, max_size=5),
)

property_settings = settings(max_examples=20, deadline=None, derandomize=True, database=None)


def open_run_inputs(space, run):
    gamma_nv, gamma_n, t0, spans = run
    params = SystemParams(omega=0.105, gamma_nv=gamma_nv, gamma_n=gamma_n)
    times = t0 + np.concatenate([[0.0], np.cumsum(spans)])
    return params.hamiltonian(space), params.channels(space), times


class TestEvolveUnitary:
    def test_zero_generator_freezes_state(self, space2):
        psi0 = basis_state(space2, ("up", "down", "aux"))
        traj = evolve_unitary(np.zeros((12, 12)), psi0, np.linspace(0, 10, 5))
        for state in traj.states:
            assert max_abs(state - psi0) < 1e-14

    def test_swap_transfer_population(self, space2):
        # one cycle at omega/g = 0.105 moves the excitation with >= 0.98 weight
        omega = 0.105
        psi0 = basis_state(space2, ("up", "down", "aux"))
        target = basis_state(space2, ("down", "up", "aux"))
        traj = evolve_unitary(full_hamiltonian(space2, omega), psi0, (0.0, math.pi / omega))
        assert fidelity(target, traj.final_state) >= 0.98

    def test_parallel_spins_pick_up_pi_phase(self, space2):
        omega = 0.105
        psi0 = basis_state(space2, ("up", "up", "aux"))
        traj = evolve_unitary(full_hamiltonian(space2, omega), psi0, (0.0, math.pi / omega))
        amp = np.vdot(psi0, traj.final_state)
        assert abs(amp + 1.0) < 1e-10

    def test_norm_preserved(self, space2, rng):
        psi0 = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        psi0 /= np.linalg.norm(psi0)
        traj = evolve_unitary(full_hamiltonian(space2, 0.3), psi0, np.linspace(0, 50, 20))
        assert traj.diagnostics["max_norm_deviation"] < 1e-10

    def test_input_validation(self, space2):
        psi0 = basis_state(space2, ("up", "down", "aux"))
        with pytest.raises(NotHermitian):
            evolve_unitary(np.triu(np.ones((12, 12))), psi0, (0.0, 1.0))
        with pytest.raises(NotNormalized):
            evolve_unitary(np.zeros((12, 12)), 2.0 * psi0, (0.0, 1.0))
        with pytest.raises(ValueError):
            evolve_unitary(np.zeros((12, 12)), psi0, (1.0, 0.5))


class TestEvolveLindblad:
    def test_closed_system_matches_unitary(self, space2):
        omega = 0.105
        h = full_hamiltonian(space2, omega)
        psi0 = basis_state(space2, ("up", "down", "aux"))
        t_end = math.pi / omega
        rho = evolve_lindblad(h, [], psi0, (0.0, t_end)).final_state
        psi = evolve_unitary(h, psi0, (0.0, t_end)).final_state
        assert max_abs(np.real(np.diag(rho)) - np.abs(psi) ** 2) < 1e-6

    def test_isolated_two_level_decay(self):
        # rho_ee(t) = exp(-gamma t) for a bare lowering channel
        gamma = 0.01
        sigma = np.array([[0.0, 1.0], [0.0, 0.0]], complex)
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        times = np.array([0.0, 25.0, 60.0, 100.0])
        traj = evolve_lindblad(
            np.zeros((2, 2)), [CollapseChannel(sigma, gamma, "decay")], rho0, times
        )
        for t, rho in zip(times, traj.states):
            assert abs(np.real(rho[1, 1]) - math.exp(-gamma * t)) < 1e-6

    def test_invariants_on_decaying_run(self, space2):
        params = SystemParams(omega=0.105, gamma_nv=0.001, gamma_n=0.001)
        h = full_hamiltonian(space2, params.omega)
        psi0 = basis_state(space2, ("up", "down", "aux"))
        times = np.linspace(0.0, params.gate_duration, 21)
        traj = evolve_lindblad(h, params.channels(space2), psi0, times)
        assert traj.diagnostics["max_trace_deviation"] < 1e-7
        assert traj.diagnostics["max_hermiticity_deviation"] < 1e-9
        assert traj.diagnostics["min_eigenvalue"] >= -1e-7
        for rho in traj.states:
            assert abs(np.real(np.trace(rho)) - 1.0) < 1e-7
            assert max_abs(rho - rho.conj().T) < 1e-9

    def test_excitation_conserved_closed_system(self, space2):
        h = full_hamiltonian(space2, 0.105)
        n_op = excitation_operator(space2)
        psi0 = basis_state(space2, ("up", "down", "aux"))
        traj = evolve_lindblad(h, [], psi0, np.linspace(0.0, 20.0, 11))
        counts = [expectation(n_op, rho) for rho in traj.states]
        assert np.max(np.abs(np.array(counts) - counts[0])) < 1e-8

    def test_step_halving_fourth_order(self, space2):
        params = SystemParams(omega=0.105, gamma_nv=0.001, gamma_n=0.001)
        h = full_hamiltonian(space2, params.omega)
        psi0 = basis_state(space2, ("up", "down", "aux"))
        t_end = params.gate_duration
        base = evolve_lindblad(h, params.channels(space2), psi0, (0.0, t_end))
        dt = base.diagnostics["dt"]
        halved = evolve_lindblad(h, params.channels(space2), psi0, (0.0, t_end), dt=dt / 2)
        delta = max_abs(np.diag(base.final_state) - np.diag(halved.final_state))
        assert delta < 1e-7

    def test_step_guard(self, space2):
        h = full_hamiltonian(space2, 0.105)
        psi0 = basis_state(space2, ("up", "down", "aux"))
        with pytest.raises(StepTooLarge):
            evolve_lindblad(h, [], psi0, (0.0, 1.0), dt=0.1)
        with pytest.raises(StepTooLarge):
            evolve_lindblad(h, [], psi0, (0.0, 1.0), dt=-0.01)

    def test_rejects_unphysical_initial_state(self):
        rho0 = np.diag([1.00002, -0.00002]).astype(complex)
        with pytest.raises(PositivityViolation):
            evolve_lindblad(np.zeros((2, 2)), [], rho0, (0.0, 1.0))
        with pytest.raises(NotNormalized):
            evolve_lindblad(np.zeros((2, 2)), [], np.diag([0.7, 0.7]).astype(complex), (0.0, 1.0))

    def test_liouvillian_size_guard(self, space2, monkeypatch):
        # four nuclei (d = 48) fit under the guard, five (d = 96) do not
        item = np.dtype(complex).itemsize
        assert 48**4 * item <= dynamics.MAX_LIOUVILLIAN_BYTES < 96**4 * item
        monkeypatch.setattr(dynamics, "MAX_LIOUVILLIAN_BYTES", 12**4 * item - 1)
        psi0 = basis_state(space2, ("up", "down", "aux"))
        with pytest.raises(DimensionMismatch, match="guard"):
            evolve_lindblad(full_hamiltonian(space2, 0.105), [], psi0, (0.0, 1.0))

    def test_step_count_guard(self, space2, monkeypatch):
        # a tiny dt is rejected before the Liouvillian is built
        def no_build(*args):
            raise AssertionError("Liouvillian built despite the step-count guard")

        monkeypatch.setattr(dynamics, "_liouvillian", no_build)
        monkeypatch.setattr(dynamics, "_last_flow", None)
        psi0 = basis_state(space2, ("up", "down", "aux"))
        with pytest.raises(StepCountExceeded, match="guard"):
            evolve_lindblad(full_hamiltonian(space2, 0.105), [], psi0, (0.0, 1.0), dt=1e-12)

    def test_deterministic_reruns(self, space2):
        params = SystemParams(omega=0.105, gamma_nv=0.001, gamma_n=0.0)
        h = full_hamiltonian(space2, params.omega)
        psi0 = basis_state(space2, ("up", "down", "aux"))
        a = evolve_lindblad(h, params.channels(space2), psi0, (0.0, 5.0)).final_state
        b = evolve_lindblad(h, params.channels(space2), psi0, (0.0, 5.0)).final_state
        assert np.array_equal(a, b)


class TestIntervalPowers:
    @property_settings
    @given(run=open_runs)
    def test_matches_per_step_reference(self, space2, run):
        h, channels, times = open_run_inputs(space2, run)
        psi0 = basis_state(space2, ("up", "down", "aux"))
        traj = evolve_lindblad(h, channels, psi0, times)
        reference = per_step_rk4(h, channels, np.outer(psi0, psi0.conj()), times, traj.diagnostics["dt"])
        assert max_abs(traj.states - reference) < 1e-10

    @property_settings
    @given(run=open_runs)
    def test_trace_and_positivity(self, space2, run):
        h, channels, times = open_run_inputs(space2, run)
        psi0 = basis_state(space2, ("up", "up", "aux"))
        traj = evolve_lindblad(h, channels, psi0, times)
        traces = np.real(np.trace(traj.states, axis1=1, axis2=2))
        assert np.max(np.abs(traces - 1.0)) < 1e-10
        assert min(np.linalg.eigvalsh(rho)[0] for rho in traj.states) >= -1e-9
        assert traj.diagnostics["min_eigenvalue"] >= -1e-9

    def test_memo_hit_equals_cold_call(self, space2, monkeypatch):
        # generator A (cold, then a hit), then B, then A again (rebuilt)
        psi0 = basis_state(space2, ("up", "down", "aux"))
        times = np.linspace(0.0, 6.0, 7)

        def run(gamma_nv, gamma_n):
            params = SystemParams(omega=0.105, gamma_nv=gamma_nv, gamma_n=gamma_n)
            h, channels = params.hamiltonian(space2), params.channels(space2)
            return evolve_lindblad(h, channels, psi0, times).states

        monkeypatch.setattr(dynamics, "_last_flow", None)
        cold = run(0.001, 0.002)
        flow_a = dynamics._last_flow
        hit = run(0.001, 0.002)
        assert dynamics._last_flow is flow_a
        other = run(0.002, 0.001)
        assert dynamics._last_flow is not flow_a
        again = run(0.001, 0.002)
        assert np.array_equal(hit, cold) and np.array_equal(again, cold)
        assert not np.array_equal(other, cold)


class TestObservables:
    def test_fidelity_pure_cases(self, space2):
        psi = basis_state(space2, ("up", "down", "aux"))
        phi = basis_state(space2, ("down", "up", "aux"))
        assert fidelity(psi, np.outer(psi, psi.conj())) == pytest.approx(1.0)
        assert fidelity(psi, phi) == pytest.approx(0.0)
        assert fidelity(np.array([1.0, 0.0]), np.eye(2, dtype=complex) / 2) == pytest.approx(0.5)

    def test_population_complete_basis_sums_to_one(self, space2, rng):
        psi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        psi /= np.linalg.norm(psi)
        total = sum(
            population(psi, basis_state(space2, space2.labels(i))) for i in range(space2.dim)
        )
        assert abs(total - 1.0) < 1e-9

    def test_population_projector_forms(self, space2):
        psi = basis_state(space2, ("down", "down", "aux"))
        proj = np.outer(psi, psi.conj())
        assert population(psi, proj) == pytest.approx(1.0)
        assert population(np.outer(psi, psi.conj()), proj) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(np.array([1.0, 0.0]), np.zeros(3, dtype=complex))

    def test_validate_density_matrix_accepts_vector(self):
        rho = validate_density_matrix(np.array([1.0, 0.0], complex))
        assert_allclose(rho, np.diag([1.0, 0.0]))


class TestTrajectorySeries:
    def test_observable_series_shapes(self, space2):
        omega = 0.105
        psi0 = basis_state(space2, ("up", "down", "aux"))
        times = np.linspace(0.0, 10.0, 7)
        traj = evolve_unitary(full_hamiltonian(space2, omega), psi0, times)
        pops = traj.population_series(psi0)
        fids = traj.fidelity_series(psi0)
        assert pops.shape == times.shape == fids.shape
        assert pops[0] == pytest.approx(1.0)
        assert np.all(pops >= 0.0) and np.all(pops <= 1.0 + 1e-9)
