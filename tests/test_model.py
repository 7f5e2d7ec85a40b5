import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from nvzeno.errors import (
    BadLabel,
    LengthMismatch,
    NegativeRabi,
    NonpositiveSeparation,
    TooManyNuclei,
)
from nvzeno.dynamics import evolve_unitary
from nvzeno.linalg import dagger, eig_hermitian, hermiticity_defect, max_abs
from nvzeno.model import (
    NV_AUX,
    NV_UP,
    PhysicalConstants,
    SystemParams,
    basis_state,
    build_h_dd,
    build_h_drive,
    build_space,
    build_stress_hamiltonian,
    collapse_channels,
    dipolar_angular_factor,
    dipolar_coupling_constant,
    excitation_operator,
    frequency_from_2pi_mhz,
    frequency_to_2pi_mhz,
    nuclear_reduced_state,
    nv_operator,
    nv_reduced_state,
    rabi_from_stress,
    separation_for_coupling,
    time_to_microseconds,
)


def explicit_phase_generator(space, omega, delta, g_list=(1.0, 1.0)):
    """Lab-phase drive ``omega (e^{-i delta t}|aux><up| + h.c.) + H_dd`` as ``t -> H(t)``."""
    ketbra = np.zeros((3, 3), dtype=complex)
    ketbra[NV_AUX, NV_UP] = 1.0
    raise_op = nv_operator(space, ketbra)
    h_dd = build_h_dd(space, g_list)

    def at(t):
        phase = np.exp(-1j * delta * t)
        return omega * (phase * raise_op + np.conj(phase) * dagger(raise_op)) + h_dd

    return at


def explicit_phase_states(space, omega, delta, psi0, times):
    """Oracle: integrate the explicit-phase generator directly with tight tolerances."""
    h_of_t = explicit_phase_generator(space, omega, delta)
    sol = solve_ivp(
        lambda t, psi: -1j * (h_of_t(t) @ psi),
        (times[0], times[-1]),
        np.asarray(psi0, dtype=complex),
        t_eval=times,
        method="DOP853",
        rtol=1e-11,
        atol=1e-12,
    )
    assert sol.success, sol.message
    return sol.y.T


class TestHilbertSpace:
    def test_dimensions(self):
        assert build_space(2).dim == 12
        assert build_space(1).dim == 6

    def test_size_guard(self):
        with pytest.raises(TooManyNuclei):
            build_space(7)
        with pytest.raises(TooManyNuclei):
            build_space(0)

    def test_index_ordering(self):
        space = build_space(2)
        # nucleus 1 slowest, NV fastest: (up, down, aux) -> (1*2 + 0)*3 + 2
        assert space.index(("up", "down", "aux")) == 8
        assert space.index((0, 0, 0)) == 0
        assert space.index(("up", "up", "aux")) == 11

    def test_labels_round_trip(self):
        space = build_space(2)
        for i in range(space.dim):
            assert space.index(space.labels(i)) == i

    def test_bad_labels(self):
        space = build_space(2)
        with pytest.raises(BadLabel):
            space.index(("up", "sideways", "aux"))
        with pytest.raises(BadLabel):
            space.index(("up", "down"))
        with pytest.raises(BadLabel):
            space.index((0, 0, 5))

    def test_basis_states(self):
        space = build_space(2)
        psi = basis_state(space, ("down", "down", "aux"))
        expected = np.zeros(12)
        expected[2] = 1.0
        assert_allclose(psi, expected)
        for i in range(space.dim):
            ket = basis_state(space, space.labels(i))
            assert abs(np.linalg.norm(ket) - 1.0) < 1e-15


class TestDriveHamiltonian:
    def test_matrix_element_on_each_nuclear_sector(self):
        space = build_space(2)
        h = build_h_drive(space, 0.105, 0.0)
        for n1 in (0, 1):
            for n2 in (0, 1):
                row = space.index((n1, n2, "aux"))
                col = space.index((n1, n2, "up"))
                assert abs(h[row, col] - 0.105) < 1e-15

    def test_frames_agree_at_zero_detuning(self):
        # without detuning the frames coincide, so whole states agree
        space = build_space(2)
        params = SystemParams(omega=0.2)
        psi0 = basis_state(space, ("up", "down", "aux"))
        times = np.linspace(0.0, params.gate_duration, 9)
        rotating = evolve_unitary(params.hamiltonian(space), psi0, times).states
        explicit = explicit_phase_states(space, params.omega, 0.0, psi0, times)
        assert max_abs(rotating - explicit) < 1e-6

    def test_hermitian_at_every_time(self):
        space = build_space(2)
        assert hermiticity_defect(build_h_drive(space, 0.105, 0.07)) < 1e-12
        h_of_t = explicit_phase_generator(space, 0.105, 0.07)
        for t in (0.0, 0.4, 11.0):
            assert hermiticity_defect(h_of_t(t)) < 1e-12

    def test_two_frame_populations_agree(self):
        # The static rotating-frame generator reproduces the populations of
        # the explicit drive phase, integrated directly by an ODE oracle.
        params = SystemParams(omega=0.105, delta=0.1 * 0.105)
        space = build_space(2)
        times = np.linspace(0.0, params.gate_duration, 11)
        for labels in (("up", "down", "aux"), ("up", "up", "aux"), ("down", "down", "aux")):
            psi0 = basis_state(space, labels)
            rotating = evolve_unitary(params.hamiltonian(space), psi0, times).states
            explicit = explicit_phase_states(space, params.omega, params.delta, psi0, times)
            assert max_abs(np.abs(rotating) ** 2 - np.abs(explicit) ** 2) < 1e-6

    def test_negative_rabi_rejected(self):
        with pytest.raises(NegativeRabi):
            build_h_drive(build_space(2), -0.1)


class TestFlipFlopCoupling:
    def test_swap_sector_matrix_elements(self, space2, catalog):
        h = build_h_dd(space2, (1.0, 1.0))
        basis = catalog.swap_sector
        restricted = np.array([[np.vdot(a, h @ b) for b in basis] for a in basis])
        expected = np.zeros((5, 5))
        expected[1, 2] = expected[2, 1] = 1.0  # NV-up entry ket <-> apex
        expected[3, 2] = expected[2, 3] = 1.0  # apex <-> NV-up exit ket
        assert max_abs(restricted - expected) < 1e-14

    def test_unequal_couplings(self, space2, catalog):
        h = build_h_dd(space2, (0.7, 1.3))
        # apex couples to the entry ket through nucleus 2 and to the exit
        # ket through nucleus 1
        assert abs(np.vdot(catalog.swap_apex, h @ catalog.swap_start_nv_up) - 1.3) < 1e-14
        assert abs(np.vdot(catalog.swap_apex, h @ catalog.swap_end_nv_up) - 0.7) < 1e-14

    def test_swap_sector_spectrum(self, space2, catalog):
        h = build_h_dd(space2, (1.0, 1.0))
        basis = catalog.swap_sector
        restricted = np.array([[np.vdot(a, h @ b) for b in basis] for a in basis])
        w = eig_hermitian(restricted).eigenvalues
        root2 = math.sqrt(2.0)
        assert_allclose(w, [-root2, 0.0, 0.0, 0.0, root2], atol=1e-12)

    def test_hold_sector_spectrum(self, space2, catalog):
        h = build_h_dd(space2, (1.0, 1.0))
        basis = catalog.hold_sector
        restricted = np.array([[np.vdot(a, h @ b) for b in basis] for a in basis])
        w = eig_hermitian(restricted).eigenvalues
        root2 = math.sqrt(2.0)
        assert_allclose(w, [-root2, 0.0, 0.0, root2], atol=1e-12)

    def test_annihilates_aux_kets(self, space2):
        h = build_h_dd(space2, (1.0, 1.0))
        for n1 in (0, 1):
            for n2 in (0, 1):
                ket = basis_state(space2, (n1, n2, "aux"))
                assert np.linalg.norm(h @ ket) < 1e-14

    def test_length_mismatch(self, space2):
        with pytest.raises(LengthMismatch):
            build_h_dd(space2, (1.0,))

    def test_hermitian(self, space2):
        assert hermiticity_defect(build_h_dd(space2, (0.3, 2.1))) < 1e-12


class TestExcitationOperator:
    def test_swap_sector_counts(self, space2, catalog):
        n_op = excitation_operator(space2)
        for ket in catalog.swap_sector:
            assert abs(np.vdot(ket, n_op @ ket) - 2.0) < 1e-14

    def test_hold_sector_counts(self, space2, catalog):
        n_op = excitation_operator(space2)
        for ket in catalog.hold_sector:
            assert abs(np.vdot(ket, n_op @ ket) - 1.0) < 1e-14

    def test_commutes_with_model_hamiltonians(self, space2, rng):
        n_op = excitation_operator(space2)
        for _ in range(5):
            omega, delta = rng.uniform(0.0, 1.0, 2)
            g1, g2 = rng.uniform(0.1, 2.0, 2)
            h = build_h_drive(space2, omega, delta) + build_h_dd(space2, (g1, g2))
            assert max_abs(h @ n_op - n_op @ h) < 1e-12
            h_t = explicit_phase_generator(space2, omega, delta, (g1, g2))(rng.uniform(0.0, 20.0))
            assert max_abs(h_t @ n_op - n_op @ h_t) < 1e-12


class TestCollapseChannels:
    def test_zero_rates_empty(self, space2):
        assert collapse_channels(space2, 0.0, 0.0) == []

    def test_default_channel_count(self, space2):
        channels = collapse_channels(space2, 0.01, 0.02)
        assert len(channels) == 3
        labels = [ch.label for ch in channels]
        assert labels == ["nv: up->down", "nucleus 1: up->down", "nucleus 2: up->down"]

    def test_jump_operators_are_nilpotent(self, space2):
        for ch in collapse_channels(space2, 0.1, 0.1):
            assert max_abs(ch.operator @ ch.operator) < 1e-15

    def test_optional_channels(self, space2):
        assert len(collapse_channels(space2, 0.1, 0.1, include_nv_aux_decay=True)) == 4
        assert len(collapse_channels(space2, 0.1, 0.1, nv_dephasing=0.05)) == 4

    def test_negative_rate_rejected(self, space2):
        with pytest.raises(NegativeRabi):
            collapse_channels(space2, -0.1, 0.0)


class TestSystemParams:
    def test_defaults(self):
        params = SystemParams()
        assert params.omega == 0.105
        assert params.g_list == (1.0, 1.0)
        assert params.gamma_nv == 0.0 and params.gamma_n == 0.0

    def test_gate_duration(self):
        assert abs(SystemParams(omega=0.105).gate_duration - math.pi / 0.105) < 1e-12
        with pytest.raises(NegativeRabi):
            _ = SystemParams(omega=0.0).gate_duration

    def test_validation(self):
        with pytest.raises(NegativeRabi):
            SystemParams(omega=-1.0)
        with pytest.raises(NegativeRabi):
            SystemParams(gamma_nv=-0.1)

    def test_immutable(self):
        params = SystemParams()
        with pytest.raises(Exception):
            params.omega = 0.2


class TestReducedStates:
    def test_nv_reduced_of_product_ket(self, space2):
        psi = basis_state(space2, ("up", "down", "aux"))
        r = nv_reduced_state(space2, psi)
        expected = np.zeros((3, 3))
        expected[2, 2] = 1.0
        assert_allclose(r, expected, atol=1e-15)

    def test_traces(self, space2, rng):
        psi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        psi /= np.linalg.norm(psi)
        assert abs(np.trace(nv_reduced_state(space2, psi)) - 1.0) < 1e-12
        assert abs(np.trace(nuclear_reduced_state(space2, psi)) - 1.0) < 1e-12

    def test_nuclear_reduced_of_product_ket(self, space2):
        psi = basis_state(space2, ("down", "up", "down"))
        r = nuclear_reduced_state(space2, psi)
        assert abs(r[1, 1] - 1.0) < 1e-15  # config index down,up -> 0*2+1


class TestPhysicalPlumbing:
    def test_inverse_cube_scaling(self):
        g1 = dipolar_coupling_constant(1e-9)
        g2 = dipolar_coupling_constant(2e-9)
        assert abs(g1 / g2 - 8.0) < 1e-12

    def test_g_r_cubed_constant(self):
        radii = np.geomspace(2e-10, 2e-9, 7)
        products = [dipolar_coupling_constant(r) * r**3 for r in radii]
        assert np.max(np.abs(np.diff(products) / products[0])) < 1e-12

    def test_operating_point_separation(self):
        # separation reproducing g = 2*pi x 2.0 MHz comes out near 0.21 nm
        g_target = 2.0 * math.pi * 2.0e6
        r = separation_for_coupling(g_target)
        assert 1e-10 < r < 5e-10
        assert abs(dipolar_coupling_constant(r) - g_target) / g_target < 1e-12

    def test_nonpositive_separation(self):
        with pytest.raises(NonpositiveSeparation):
            dipolar_coupling_constant(0.0)
        with pytest.raises(NonpositiveSeparation):
            dipolar_coupling_constant(-1e-9)

    def test_magic_angle(self):
        assert abs(dipolar_angular_factor(math.radians(54.7356))) < 1e-6
        assert abs(dipolar_angular_factor(0.0) + 2.0) < 1e-12
        assert abs(dipolar_angular_factor(math.pi / 2) - 1.0) < 1e-12

    def test_rabi_from_stress(self):
        assert abs(rabi_from_stress(0.03, 7.0) - 0.21) < 1e-12
        assert rabi_from_stress(0.03, 0.0) == 0.0
        assert abs(rabi_from_stress(0.03, 14.0) - 2 * rabi_from_stress(0.03, 7.0)) < 1e-12
        with pytest.raises(NegativeRabi):
            rabi_from_stress(-0.03, 7.0)

    def test_unit_conversions(self):
        t_gate = math.pi / 0.105
        assert abs(time_to_microseconds(t_gate) - 2.380952380952) < 1e-9
        assert abs(frequency_to_2pi_mhz(0.105) - 0.21) < 1e-12
        assert abs(frequency_from_2pi_mhz(0.21) - 0.105) < 1e-12

    def test_constants_defaults(self):
        constants = PhysicalConstants()
        assert constants.eps_perp == 0.03


class TestStressHamiltonian:
    def test_never_couples_middle_level(self, rng):
        # Sx^2 - Sy^2 and the anticommutator only connect m_s = -1 and +1
        for _ in range(5):
            ep, et, sp_, sx, sy = rng.standard_normal(5)
            h = build_stress_hamiltonian(ep, et, sp_, sx, sy)
            assert abs(h[1, 0]) < 1e-14 and abs(h[1, 2]) < 1e-14
            assert hermiticity_defect(h) < 1e-13

    def test_perpendicular_stress_opens_forbidden_transition(self):
        h = build_stress_hamiltonian(0.0, 0.03, 0.0, 7.0, 0.0)
        assert abs(h[0, 2]) > 1e-3
        h = build_stress_hamiltonian(0.0, 0.03, 0.0, 0.0, 7.0)
        assert abs(h[0, 2]) > 1e-3

    def test_pure_axial_stress_is_diagonal_shift(self):
        h = build_stress_hamiltonian(0.5, 0.03, 2.0, 0.0, 0.0)
        assert_allclose(h, np.diag([1.0, 0.0, 1.0]), atol=1e-14)
