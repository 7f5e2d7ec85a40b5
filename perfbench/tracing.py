"""Spans and counters recorded around the package's public functions.

The tracer wraps each module's public entry points from outside the
package.  Modules bind names directly (``from .dynamics import
evolve_lindblad``), so a wrapper replaces the function in *every* loaded
``nvzeno.*`` namespace that holds it; methods are replaced on their class.
A target that no longer exists is recorded as absent rather than failing,
so the tracer survives refactors that delete or merge functions.

Spans (name, start, end, parent) are kept in flat in-memory arrays and
written out once, at the end of the run, by :meth:`Tracer.save`.  Counters
that need the call's arguments or result (grid points, RK4 steps, content
hashes) are updated right after the span closes, so hashing is not charged
to the wrapped layer.  A counter hook that raises (a parameter was renamed,
a diagnostic is gone) never reaches the program: the error is recorded in
:attr:`Tracer.hook_errors` and the harness reports that hook's counters as
absent.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

#: layer -> (module, wrapped names).  Layer names are the package modules.
LAYERS = {
    "experiments": ("nvzeno.experiments", ("sweep", "run_gate", "run_qst")),
    "model": (
        "nvzeno.model",
        (
            "SystemParams.hamiltonian",
            "SystemParams.channels",
            "build_space",
            "build_h_drive",
            "build_h_dd",
            "basis_state",
            "nv_reduced_state",
            "nuclear_reduced_state",
        ),
    ),
    "linalg": ("nvzeno.linalg", ("eig_hermitian", "propagator")),
    "zeno": ("nvzeno.zeno", ("zeno_decompose", "survival_probability", "zeno_limit_generator")),
    "dynamics.unitary": ("nvzeno.dynamics", ("evolve_unitary",)),
    "dynamics.lindblad": ("nvzeno.dynamics", ("evolve_lindblad",)),
    "dynamics.observable": (
        "nvzeno.dynamics",
        ("fidelity", "population", "Trajectory.population_series", "Trajectory.fidelity_series"),
    ),
    "io.render": ("nvzeno.io", ("record_from_sweep", "render")),
    "io.write": ("nvzeno.io", ("write_atomic",)),
    "cli.parse": ("nvzeno.cli", ("parse_config",)),
    "cli": ("nvzeno.cli", ("main",)),
}

#: Name of the root span the run process opens around every op.
OP_SPAN = "op"


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=complex)).tobytes())
    return h.digest()


class Tracer:
    """In-memory span recorder plus the per-op counters the benchmark reports."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self.originals: dict[str, object] = {}
        self._seen: dict[str, set] = {"eig": set(), "lindblad": set()}
        self._sweep_id = self._name_id("experiments:sweep")

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans --------------------------------------------------------------------

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_op(self) -> int:
        """Open the root span of one op; content hashes are counted per op."""
        for seen in self._seen.values():
            seen.clear()
        return self.begin(self._name_id(OP_SPAN))

    def save(self, path: str) -> None:
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            names=np.array(self.names),
        )

    # -- wrappers -----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in :data:`LAYERS` that exists in the loaded package."""
        for layer, (module_name, targets) in LAYERS.items():
            for target in targets:
                self._install_one(layer, module_name, target)

    def _install_one(self, layer: str, module_name: str, target: str) -> None:
        full = f"{module_name}.{target}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(full)
            return
        owner_name, _, attr = target.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.absent.append(full)
            return
        self.originals[full] = original
        wrapper = self._wrap(f"{layer}:{attr}", attr, original, _HOOKS.get(attr))
        if owner_name:
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nvzeno" or mod_name.startswith("nvzeno.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _wrap(self, span_name: str, attr: str, func, hook):
        name_id = self._name_id(span_name)
        signature = None
        if hook is not None:
            try:
                signature = inspect.signature(func)
            except (TypeError, ValueError) as exc:
                self.hook_errors[attr] = f"{type(exc).__name__}: {exc}"
                hook = None
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if hook is not None and attr not in tracer.hook_errors:
                try:
                    hook(tracer, signature.bind(*args, **kwargs).arguments, result)
                except Exception as exc:  # a tracer fault must not fail the program's op
                    tracer.hook_errors[attr] = f"{type(exc).__name__}: {exc}"
            return result

        return wrapper

    def inside_sweep(self) -> bool:
        return any(self.name[i] == self._sweep_id for i in self._stack)


# -- counters -----------------------------------------------------------------------


def _count_sweep(tracer: Tracer, arguments, result) -> None:
    tracer.counts["points"] += int(getattr(result, "n_rows", 0))


def _count_protocol(tracer: Tracer, arguments, result) -> None:
    if not tracer.inside_sweep():
        tracer.counts["points"] += 1


def _count_eig(tracer: Tracer, arguments, result) -> None:
    key = _digest(arguments.get("a"))
    if key not in tracer._seen["eig"]:
        tracer._seen["eig"].add(key)
        tracer.counts["eig_distinct"] += 1


def _count_lindblad(tracer: Tracer, arguments, result) -> None:
    h = arguments.get("h")
    if callable(h):
        key = id(h).to_bytes(8, "little")
    else:
        channels = list(arguments.get("channels") or [])
        key = _digest(h, *[ch.operator for ch in channels], [ch.rate for ch in channels])
    if key not in tracer._seen["lindblad"]:
        tracer._seen["lindblad"].add(key)
        tracer.counts["lindblad_distinct"] += 1
    # The integrator covers each output interval with ceil(span/dt - 1e-12)
    # uniform steps (at least one); dt is the step it reports back.
    times = np.atleast_1d(np.asarray(arguments.get("times"), dtype=float))
    steps = int(np.sum(np.maximum(1.0, np.ceil(np.diff(times) / result.diagnostics["dt"] - 1e-12))))
    d2 = result.states.shape[-1] ** 2
    tracer.counts["rk4_steps"] += steps
    tracer.counts["step_flop"] += steps * 8 * d2 * d2
    tracer.counts["step_bytes"] += steps * 16 * d2 * d2
    tracer.counts["output_states"] += times.size


def _count_render(tracer: Tracer, arguments, result) -> None:
    if isinstance(result, str):
        tracer.counts["io_bytes"] += len(result.encode("utf-8"))


_HOOKS = {
    "sweep": _count_sweep,
    "run_gate": _count_protocol,
    "run_qst": _count_protocol,
    "eig_hermitian": _count_eig,
    "evolve_lindblad": _count_lindblad,
    "render": _count_render,
}


# -- aggregation (harness side) -------------------------------------------------------


def layer_totals(spans) -> dict:
    """Per-layer call counts and self times from a saved span file.

    A span's self time is its duration minus the durations of its direct
    children.  Returns ``{layer: {"calls": {name: n}, "self_s": t}}`` and
    the root-span totals under :data:`OP_SPAN`.
    """
    start, end, parent, name = spans["start"], spans["end"], spans["parent"], spans["name"]
    names = [str(n) for n in spans["names"]]
    duration = end - start
    self_time = duration.copy()
    child = parent >= 0
    np.subtract.at(self_time, parent[child], duration[child])
    totals: dict = {}
    for name_id, label in enumerate(names):
        mask = name == name_id
        layer, _, func = label.partition(":")
        entry = totals.setdefault(layer, {"calls": {}, "self_s": 0.0})
        entry["calls"][func or layer] = int(np.count_nonzero(mask))
        entry["self_s"] += float(np.sum(self_time[mask]))
    return totals
