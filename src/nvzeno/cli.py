"""Command-line front end: config parsing, experiment dispatch, file emission.

Subcommands::

    nvzeno run --config cfg.json --out data.csv [--format csv|json]
    nvzeno sweep --experiment ratio_sweep --param omega_over_g \
                 --from 0.005 --to 0.25 --points 50 --out data.csv
    nvzeno list-experiments
    nvzeno selftest

Configs are JSON objects.  A numeric value fixes a parameter; an object
``{"from": a, "to": b, "points": n}`` sweeps it as a grid axis.  Unknown
keys, and keys (or ``dt``) the named experiment does not read, are rejected.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .errors import (
    ConfigError,
    NVZenoError,
    OutOfRange,
    ParseError,
    UnknownExperiment,
    UnknownKey,
)
from .experiments import EXPERIMENTS, SweepSpec, sweep
from .io import record_from_sweep, render, write_atomic

#: Config keys that fix model parameters or provide sweep axes.
_PARAMETER_KEYS = (
    "omega_over_g",
    "delta_over_g",
    "delta_over_omega",
    "gamma_nv_over_g",
    "gamma_n_over_g",
    "delta_g_over_g",
    "delta_omega_over_omega",
    "delta_t_over_t",
    "t_over_T",
    "alpha",
    "beta",
)

_CONTROL_KEYS = ("experiment", "dt", "out", "format")

_POSITIVE_KEYS = {"omega_over_g", "dt"}
_NONNEGATIVE_KEYS = {"gamma_nv_over_g", "gamma_n_over_g", "t_over_T"}


@dataclass
class GridSpec:
    """Inclusive linear grid requested from the config."""

    start: float
    stop: float
    points: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass
class RunConfig:
    """Validated run request with defaults filled in."""

    experiment: str | None = None
    fixed: dict = field(default_factory=dict)
    axes: dict = field(default_factory=dict)
    dt: float | None = None
    out: str | None = None
    format: str = "csv"


def _check_range(key: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise OutOfRange(f"{key}: value must be finite, got {value}")
    if key in _POSITIVE_KEYS and value <= 0:
        raise OutOfRange(f"{key}: value must be positive, got {value}")
    if key in _NONNEGATIVE_KEYS and value < 0:
        raise OutOfRange(f"{key}: value must be nonnegative, got {value}")
    return value


def _parse_grid(key: str, raw: dict) -> GridSpec:
    extra = set(raw) - {"from", "to", "points"}
    if extra:
        raise UnknownKey(f"{key}: unknown grid fields {sorted(extra)}")
    missing = {"from", "to", "points"} - set(raw)
    if missing:
        raise ParseError(f"{key}: grid needs fields 'from', 'to', 'points'; missing {sorted(missing)}")
    start = _check_range(key, raw["from"])
    stop = _check_range(key, raw["to"])
    points = raw["points"]
    if not isinstance(points, int) or isinstance(points, bool) or points < 1:
        raise OutOfRange(f"{key}: points must be a positive integer, got {points!r}")
    return GridSpec(start=start, stop=stop, points=points)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document.

    An empty object is valid and yields the defaults (omega_over_g 0.105,
    no decay, no detuning, two nuclei).

    Raises:
        ParseError: malformed JSON (with line/column context) or wrong types.
        UnknownKey: keys outside the schema.
        OutOfRange: finite/positivity violations.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"config must be a JSON object, got {type(raw).__name__}")

    config = RunConfig()
    for key, value in raw.items():
        if key not in _PARAMETER_KEYS and key not in _CONTROL_KEYS:
            raise UnknownKey(f"unknown config key {key!r}")
        if key == "experiment":
            if not isinstance(value, str):
                raise ParseError("experiment: must be a string")
            config.experiment = value
        elif key == "dt":
            config.dt = _check_range(key, value)
        elif key == "out":
            if not isinstance(value, str):
                raise ParseError("out: must be a string path")
            config.out = value
        elif key == "format":
            if value not in ("csv", "json"):
                raise OutOfRange(f"format: must be 'csv' or 'json', got {value!r}")
            config.format = value
        elif isinstance(value, dict):
            config.axes[key] = _parse_grid(key, value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            config.fixed[key] = _check_range(key, value)
        else:
            raise ParseError(f"{key}: expected a number or a grid object, got {value!r}")

    if abs(config.fixed.get("alpha", 0.0)) > 1.0 or abs(config.fixed.get("beta", 0.0)) > 1.0:
        raise OutOfRange("alpha/beta magnitudes cannot exceed 1")
    return config


def run_command(config: RunConfig):
    """Dispatch a validated config to the experiments module and write the output.

    Returns the written :class:`~nvzeno.io.OutputRecord`.

    Raises:
        ConfigError subclasses for config problems, numerical package errors
        otherwise (mapped by :func:`main` to exit codes 2 and 3).
    """
    if config.experiment is None:
        raise UnknownExperiment("config does not name an experiment")
    if config.out is None:
        raise OutOfRange("no output path: set 'out' in the config or pass --out")
    axes = {k: g.values() for k, g in config.axes.items()}
    fixed = dict(config.fixed)
    info = EXPERIMENTS.get(config.experiment)
    if info is not None:
        # fixing an axis key as a scalar collapses that axis to one point
        for key in list(fixed):
            if key in info.axis_names and key not in axes:
                axes[key] = np.array([fixed.pop(key)])
    spec = SweepSpec(
        experiment=config.experiment,
        axes=axes or None,
        fixed=fixed,
        dt=config.dt,
    )
    result = sweep(spec)
    record = record_from_sweep(result)
    write_atomic(config.out, render(record, config.format))
    return record


# -- selftest ---------------------------------------------------------------------


def _selftest_checks():
    import numpy.random as npr

    from .dynamics import evolve_lindblad, evolve_unitary, fidelity
    from .linalg import dagger, kron, max_abs, propagator
    from .model import SystemParams, basis_state, build_h_dd, build_space
    from .zeno import survival_probability, swap_dark_amplitudes, zeno_decompose

    rng = npr.RandomState(20240917)

    def random_hermitian(n):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return 0.5 * (a + a.conj().T)

    def check_propagator_unitary():
        h = random_hermitian(8)
        u = propagator(h, 0.73)
        return max_abs(dagger(u) @ u - np.eye(8)) < 1e-10

    def check_kron_mixed_product():
        a, b = rng.standard_normal((2, 2)), rng.standard_normal((3, 3))
        c, d = rng.standard_normal((2, 2)), rng.standard_normal((3, 3))
        return max_abs(kron(a, b) @ kron(c, d) - kron(a @ c, b @ d)) < 1e-12

    def check_coupling_spectrum():
        decomp = zeno_decompose(build_h_dd(build_space(2), (1.0, 1.0)))
        ranks = {round(lam, 6): rank for lam, _, rank in decomp.groups}
        return ranks == {round(-math.sqrt(2), 6): 2, 0.0: 8, round(math.sqrt(2), 6): 2}

    def check_survival_two_level_limit():
        t = np.linspace(0.0, 5.0, 7)
        return bool(np.max(np.abs(survival_probability(0.0, 0.4, t) - np.cos(0.4 * t) ** 2)) < 1e-12)

    def check_dark_amplitudes_norm():
        c1, c2, c3 = swap_dark_amplitudes(np.linspace(0, 10, 11), 0.3)
        norms = np.abs(c1) ** 2 + np.abs(c2) ** 2 + np.abs(c3) ** 2
        return bool(np.max(np.abs(norms - 1.0)) < 1e-12)

    def check_lindblad_closed_limit():
        params = SystemParams(omega=0.2)
        space = build_space(2)
        h = params.hamiltonian(space)
        psi0 = basis_state(space, ("up", "down", "aux"))
        t_end = 2.0
        traj = evolve_lindblad(h, [], psi0, (0.0, t_end))
        rho = traj.final_state
        psi = evolve_unitary(h, psi0, (0.0, t_end)).final_state
        ok = traj.diagnostics["max_trace_deviation"] < 1e-9
        ok = ok and traj.diagnostics["min_eigenvalue"] > -1e-7
        ok = ok and abs(fidelity(psi, rho) - 1.0) < 1e-8
        return ok

    return [
        ("propagator unitarity", check_propagator_unitary),
        ("kron mixed product", check_kron_mixed_product),
        ("coupling spectrum ranks", check_coupling_spectrum),
        ("survival two-level limit", check_survival_two_level_limit),
        ("dark-amplitude normalization", check_dark_amplitudes_norm),
        ("lindblad closed-system limit", check_lindblad_closed_limit),
    ]


def _cmd_selftest() -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            ok = bool(check())
        except Exception as exc:  # pragma: no cover - defensive
            ok = False
            print(f"selftest: {name}: ERROR {exc}")
        print(f"selftest: {name}: {'ok' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 3


def _cmd_list_experiments() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name in EXPERIMENTS:
        info = EXPERIMENTS[name]
        print(f"{name:<{width}}  [figure {info.figure}]  {info.description}")
    return 0


def _apply_cli_overrides(config: RunConfig, args) -> RunConfig:
    if getattr(args, "out", None):
        config.out = args.out
    if getattr(args, "format", None):
        config.format = args.format
    return config


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {args.config!r}: {exc}") from exc
    config = parse_config(text)
    config = _apply_cli_overrides(config, args)
    record = run_command(config)
    print(f"wrote {len(record.rows)} rows to {config.out}")
    return 0


def _cmd_sweep(args) -> int:
    doc = {}
    for key in _PARAMETER_KEYS:
        value = getattr(args, key.lower(), None)
        if value is not None:
            doc[key] = value
    if args.dt is not None:
        doc["dt"] = args.dt
    if args.param is not None:
        if args.start is None or args.stop is None or args.points is None:
            raise ParseError("--param requires --from, --to and --points")
        doc[args.param] = {"from": args.start, "to": args.stop, "points": args.points}
    doc["experiment"] = args.experiment
    config = parse_config(json.dumps(doc))
    config = _apply_cli_overrides(config, args)
    record = run_command(config)
    print(f"wrote {len(record.rows)} rows to {config.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvzeno",
        description="Zeno-protected nuclear-spin gate and state-transfer simulator",
    )
    parser.add_argument("--version", action="version", version=f"nvzeno {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config file")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument("--out", help="output path (overrides config)")
    run_p.add_argument("--format", choices=("csv", "json"), help="output format")

    sweep_p = sub.add_parser("sweep", help="run a named experiment with inline flags")
    sweep_p.add_argument("--experiment", required=True)
    sweep_p.add_argument("--param", help="axis key to sweep")
    sweep_p.add_argument("--from", dest="start", type=float, help="axis start")
    sweep_p.add_argument("--to", dest="stop", type=float, help="axis end")
    sweep_p.add_argument("--points", type=int, help="axis point count")
    for key in _PARAMETER_KEYS:
        sweep_p.add_argument(f"--{key.lower().replace('_', '-')}", dest=key.lower(), type=float)
    sweep_p.add_argument("--dt", type=float, help="integrator step")
    sweep_p.add_argument("--out", required=True)
    sweep_p.add_argument("--format", choices=("csv", "json"), default="csv")

    sub.add_parser("list-experiments", help="list experiment names and descriptions")
    sub.add_parser("selftest", help="run quick internal consistency checks")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "list-experiments":
            return _cmd_list_experiments()
        if args.command == "selftest":
            return _cmd_selftest()
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except NVZenoError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
