"""Exception types shared across the package.

Numerical errors derive from :class:`NVZenoError`; configuration errors
(bad CLI/config input) derive from :class:`ConfigError` so the command-line
front end can map them to distinct exit codes.
"""


class NVZenoError(Exception):
    """Base class for all package-specific errors."""


class NotHermitian(NVZenoError):
    """Matrix fails the Hermitian symmetry check."""


class DimensionMismatch(NVZenoError):
    """Operands have incompatible shapes."""


class TooManyNuclei(NVZenoError):
    """Requested nuclear register would exceed the dense-matrix size guard."""


class BadLabel(NVZenoError):
    """Spin label does not name a valid basis level."""


class NegativeRabi(NVZenoError):
    """Drive amplitude must be nonnegative."""


class LengthMismatch(NVZenoError):
    """Coupling list length does not match the number of nuclei."""


class NonpositiveSeparation(NVZenoError):
    """Dipole separation must be positive."""


class ClusterAmbiguity(NVZenoError):
    """Eigenvalue clusters too close to the grouping tolerance to be trusted."""


class WrongSpace(NVZenoError):
    """Operation requires a differently shaped Hilbert space."""


class DegenerateParams(NVZenoError):
    """Parameter combination leaves the quantity undefined."""


class NotNormalized(NVZenoError):
    """State vector or density matrix fails its normalization check."""


class StepTooLarge(NVZenoError):
    """Integrator step exceeds the stability/accuracy guard."""


class StepCountExceeded(NVZenoError):
    """Integration grid needs more fixed steps than the step-count guard allows."""


class PositivityViolation(NVZenoError):
    """Density matrix developed a large negative eigenvalue."""


class UnknownExperiment(NVZenoError):
    """Experiment name not present in the registry."""


class ConfigError(NVZenoError):
    """Base class for configuration errors (CLI exit code 2)."""


class ParseError(ConfigError):
    """Config document is not well formed."""


class UnknownKey(ConfigError):
    """Config contains a key the schema, or the chosen experiment, does not use."""


class OutOfRange(ConfigError):
    """Config value is outside its allowed range."""


class NotNormalizedInput(NotNormalized, ConfigError):
    """Input coefficients do not form a unit-norm state (a bad input, CLI exit code 2)."""
