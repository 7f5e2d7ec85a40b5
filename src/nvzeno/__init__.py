"""Simulator for Zeno-protected nuclear-nuclear interactions mediated by a driven NV spin.

The library is organized bottom-up:

* :mod:`nvzeno.linalg` - dense Hermitian eigendecomposition, Kronecker
  products, and spectral propagators;
* :mod:`nvzeno.model` - the register, drive/coupling Hamiltonians, collapse
  channels, and physical-unit plumbing;
* :mod:`nvzeno.zeno` - eigenprojection grouping, the Zeno limit flow, named
  subspace states, and closed-form dark-sector results;
* :mod:`nvzeno.dynamics` - exact unitary evolution and fixed-step Lindblad
  integration with monitored trace/positivity;
* :mod:`nvzeno.experiments` - the entangling gate, state transfer, and the
  named parameter sweeps;
* :mod:`nvzeno.cli` - the ``nvzeno`` command with bit-stable CSV/JSON output.
"""

from ._version import __version__
from .dynamics import (
    Trajectory,
    evolve_lindblad,
    evolve_unitary,
    expectation,
    fidelity,
    population,
    validate_density_matrix,
)
from .experiments import (
    BASIS_LABELS,
    EXPERIMENTS,
    IDEAL_GATE_MAP,
    GateResult,
    QstResult,
    SweepResult,
    SweepSpec,
    TruthTableRow,
    gate_truth_table,
    run_gate,
    run_qst,
    sweep,
    zeno_convergence_report,
)
from .linalg import HermitianEig, dagger, eig_hermitian, is_hermitian, kron, propagator
from .model import (
    CollapseChannel,
    HilbertSpace,
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
    nv_reduced_state,
    rabi_from_stress,
    separation_for_coupling,
    time_to_microseconds,
)
from .zeno import (
    SubspaceCatalog,
    ZenoDecomposition,
    subspace_catalog,
    survival_probability,
    swap_dark_amplitudes,
    swap_dark_hamiltonian,
    zeno_decompose,
    zeno_hamiltonian,
    zeno_limit_generator,
    zeno_limit_propagator,
)

__all__ = [
    "__version__",
    "BASIS_LABELS",
    "CollapseChannel",
    "EXPERIMENTS",
    "GateResult",
    "HermitianEig",
    "HilbertSpace",
    "IDEAL_GATE_MAP",
    "PhysicalConstants",
    "QstResult",
    "SubspaceCatalog",
    "SweepResult",
    "SweepSpec",
    "SystemParams",
    "Trajectory",
    "TruthTableRow",
    "ZenoDecomposition",
    "basis_state",
    "build_h_dd",
    "build_h_drive",
    "build_space",
    "build_stress_hamiltonian",
    "collapse_channels",
    "dagger",
    "dipolar_angular_factor",
    "dipolar_coupling_constant",
    "eig_hermitian",
    "evolve_lindblad",
    "evolve_unitary",
    "excitation_operator",
    "expectation",
    "fidelity",
    "frequency_from_2pi_mhz",
    "frequency_to_2pi_mhz",
    "gate_truth_table",
    "is_hermitian",
    "kron",
    "nuclear_reduced_state",
    "nv_reduced_state",
    "population",
    "propagator",
    "rabi_from_stress",
    "run_gate",
    "run_qst",
    "separation_for_coupling",
    "subspace_catalog",
    "survival_probability",
    "swap_dark_amplitudes",
    "swap_dark_hamiltonian",
    "sweep",
    "time_to_microseconds",
    "validate_density_matrix",
    "zeno_convergence_report",
    "zeno_decompose",
    "zeno_hamiltonian",
    "zeno_limit_generator",
    "zeno_limit_propagator",
]
