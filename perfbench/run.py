"""nvzeno benchmark: time the package end to end and layer by layer.

    python3 perfbench/run.py --workload {open_surface,qst_stream,closed_figures}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  ``--trace 0`` measures set-up time in
fresh interpreters, then runs the workload untraced in one fresh run
process and reports the end-to-end metrics.  ``--trace 1`` runs the
workload untraced and then traced, each for half the time, and reports the
per-layer metrics and the tracing overhead.  End-to-end times are scaled
to the reference speed of the calibration kernel (``calibration.py``);
the unscaled values are printed too.  Every op is checked against the
oracle in ``oracle.py`` after the run process exits.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit and record the environment.  Exits 2 without a result when the
checkout holds no ``src/nvzeno`` package.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 7

#: Wall-clock budget of one benchmark invocation.
DEADLINE_S = 170.0

#: Largest share of traced op time that may sit outside every module span.
UNATTRIBUTED_LIMIT = 0.05


class BenchError(Exception):
    """The benchmark could not produce a result."""


# -- environment ------------------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (checkout is not a git repository)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "commit": _git_commit(),
    }


# -- running the client ---------------------------------------------------------------------


class Harness:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S

    def _client(self, *extra: str) -> None:
        """Run perfbench/client.py to completion, timing the calibration kernel for it."""
        if self.deadline - time.monotonic() <= 0:
            raise BenchError("out of time before starting the run process")
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        cmd = [sys.executable, str(HERE / "client.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--workdir", str(self.workdir),
               "--kernel-fds", f"{request_w},{reply_r}", *extra]
        err_path = self.workdir / "client.err"
        with open(err_path, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
                                    pass_fds=(request_w, reply_r))
        os.close(request_w)
        os.close(reply_r)
        try:
            self._serve_kernel(request_r, reply_w)
            code = proc.wait(timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"run process timed out: {' '.join(extra)}") from exc
        finally:
            os.close(request_r)
            os.close(reply_w)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise BenchError(f"run process exited {code}:\n{err_path.read_text()[-4000:]}")

    def _serve_kernel(self, request: int, reply: int) -> None:
        """Time the calibration kernel each time the run process asks, until it exits."""
        while True:
            remaining = self.deadline - time.monotonic()
            if not select.select([request], [], [], max(0.0, remaining))[0]:
                raise subprocess.TimeoutExpired("client.py", DEADLINE_S)
            if not os.read(request, 1):
                return
            try:
                os.write(reply, f"{calibration.kernel_s()!r}\n".encode())
            except BrokenPipeError:
                return

    def _take(self, name: str) -> dict:
        with open(self.workdir / name, encoding="utf-8") as fh:
            result = json.load(fh)
        os.unlink(self.workdir / name)
        return result

    def setup_times(self) -> tuple[list, list]:
        """Set-up times of fresh run processes, at reference speed and unscaled."""
        raw, kernels = [], [calibration.kernel_s()]
        for _ in range(SETUP_REPEATS):
            self._client("--setup")
            kernels.append(calibration.kernel_s())
            raw.append(self._take("setup.json")["setup_s"])
        factor = calibration.scale(kernels)
        return [t * factor for t in raw], raw

    def measure(self, seconds: float, trace: bool) -> dict:
        extra = ["--seconds", repr(seconds)] + (["--trace"] if trace else [])
        self._client(*extra)
        result = self._take("result.json")
        with open(self.workdir / "ops.jsonl", encoding="utf-8") as fh:
            result["ops"] = [json.loads(line) for line in fh]
        os.unlink(self.workdir / "ops.jsonl")
        kernels = [result["kernel_first_s"]] + [op["kernel_after_s"] for op in result["ops"]]
        result["scale"] = calibration.scale(kernels)
        if trace:
            import numpy as np

            with np.load(self.workdir / "spans.npz") as spans:
                result["spans"] = {k: spans[k] for k in spans.files}
            os.unlink(self.workdir / "spans.npz")
        # Check before the next run process reuses the output file names.
        result["failed"], result["selfcheck"] = check_ops(result)
        return result


# -- checking ---------------------------------------------------------------------------------


def check_ops(result: dict) -> tuple[int, bool]:
    """Check every op against the oracle; return (failed ops, self-check passed)."""
    import nvzeno
    import oracle

    ref = oracle.Oracle(nvzeno)
    failed = 0
    sample = None
    for op in result["ops"]:
        spec, output = op["spec"], op.get("output")
        if op["error"] is not None:
            failed += 1
            print(f"op failed: {op['error']}", file=sys.stderr)
            continue
        if spec["kind"] == "cli":
            path = output["path"]
            try:
                output = oracle.read_output(path, spec["format"])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                output = None
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if os.path.exists(path):
                os.unlink(path)
        if output is not None:
            problems = oracle.check_op(ref, spec, output)
            if sample is None and not problems:
                sample = (spec, output)
        if problems:
            failed += 1
            print(f"op output wrong ({spec.get('config', spec)}): {problems[:3]}", file=sys.stderr)
    # The checker must reject a result moved by more than its tolerance.
    selfcheck = sample is not None and bool(oracle.check_op(ref, sample[0], oracle.perturbed(*sample)))
    return failed, selfcheck


# -- metrics ------------------------------------------------------------------------------


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def _latencies_by_kind(result: dict, scaled: bool = True) -> dict:
    """Op latencies in ms, grouped by op kind (experiment and format, or ``run_qst``)."""
    kinds: dict = {}
    for op in result["ops"]:
        spec = op["spec"]
        kind = spec["config"]["experiment"] + "." + spec["format"] if spec["kind"] == "cli" else "run_qst"
        kinds.setdefault(kind, []).append(op["latency_s"] * 1e3 * (result["scale"] if scaled else 1.0))
    return kinds


def round_totals(result: dict, key: str, scaled: bool = True) -> list:
    """Per-round sums of an op time, at reference speed unless ``scaled`` is false."""
    factor = result["scale"] if scaled else 1.0
    totals: dict = {}
    for op in result["ops"]:
        totals[op["round"]] = totals.get(op["round"], 0.0) + op[key] * factor
    return list(totals.values())


def op_latencies_ms(result: dict, scaled: bool = True) -> list:
    factor = result["scale"] if scaled else 1.0
    return [op["latency_s"] * 1e3 * factor for op in result["ops"]]


def op_p50_ms(result: dict, scaled: bool = True) -> float:
    """Median op latency, taken over the op kinds' own medians.

    ``closed_figures`` mixes twelve op kinds whose latencies differ by up to
    8x, so the plain median of all ops falls in the gap between two kinds
    and jumps between runs.  The median over the kinds' medians sits at the
    same place and is steady; on a single-kind workload it is the plain median.
    """
    kinds = _latencies_by_kind(result, scaled)
    return statistics.median(statistics.median(latencies) for latencies in kinds.values())


def end_to_end(result: dict, setup: list, scaled: bool = True) -> dict:
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(statistics.median(round_totals(result, "latency_s", scaled)), "s"),
        "op_ms_p50": _metric(op_p50_ms(result, scaled), "ms"),
        "cpu_s": _metric(statistics.median(round_totals(result, "cpu_s", scaled)), "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }


_LINDBLAD_COUNTED = ("dynamics.lindblad", ("evolve_lindblad",))

#: Per-layer metric -> (layer whose spans measure it, wrapped names whose counter
#: hooks feed it).  Metrics not listed here are never absent.
SOURCES = {
    "experiments.calls": ("experiments", ()),
    "experiments.points": ("experiments", ("sweep", "run_gate", "run_qst")),
    "experiments.self_s": ("experiments", ()),
    "model.calls": ("model", ()),
    "model.s": ("model", ()),
    "linalg.eig_calls": ("linalg", ()),
    "linalg.eig_s": ("linalg", ()),
    "linalg.eig_distinct_ratio": ("linalg", ("eig_hermitian",)),
    "zeno.calls": ("zeno", ()),
    "zeno.s": ("zeno", ()),
    "dynamics.unitary_calls": ("dynamics.unitary", ()),
    "dynamics.unitary_s": ("dynamics.unitary", ()),
    "dynamics.lindblad_calls": ("dynamics.lindblad", ()),
    "dynamics.lindblad_s": ("dynamics.lindblad", ()),
    "dynamics.lindblad_distinct_ratio": _LINDBLAD_COUNTED,
    "dynamics.rk4_steps": _LINDBLAD_COUNTED,
    "dynamics.lindblad_fixed_ms": ("dynamics.lindblad", ()),
    "dynamics.ns_per_step": _LINDBLAD_COUNTED,
    "dynamics.step_gflop_nominal": _LINDBLAD_COUNTED,
    "dynamics.step_mb_nominal": _LINDBLAD_COUNTED,
    "dynamics.step_gflops_nominal": _LINDBLAD_COUNTED,
    "dynamics.step_gbps_nominal": _LINDBLAD_COUNTED,
    "dynamics.output_states": _LINDBLAD_COUNTED,
    "dynamics.observable_calls": ("dynamics.observable", ()),
    "dynamics.observable_s": ("dynamics.observable", ()),
    "io.render_s": ("io.render", ()),
    "io.bytes": ("io.render", ("render",)),
    "io.write_s": ("io.write", ()),
    "cli.parse_s": ("cli.parse", ()),
}


def _baseline_layer_calls(workload: str) -> dict:
    """Calls per round of each layer in the baseline's traced run of a workload."""
    try:
        with open(HERE / "baseline.json", encoding="utf-8") as fh:
            return json.load(fh).get("layer_calls", {}).get(workload, {})
    except (OSError, ValueError):
        return {}


def absent_metrics(workload: str, layer_calls: dict, trace: dict) -> dict:
    """Per-layer metrics the traced run could not measure, with the reason.

    A metric is absent when none of its layer's wrapped names exists any
    more, when its layer is never called on a workload where the baseline
    called it (the work moved to a function the tracer does not wrap), or
    when a counter hook it needs raised.
    """
    from tracing import LAYERS

    expected = _baseline_layer_calls(workload)
    gone = {}
    for layer, (module, targets) in LAYERS.items():
        if all(f"{module}.{target}" in trace["absent"] for target in targets):
            gone[layer] = f"no wrapped function of {layer} exists"
        elif layer_calls.get(layer, 0) == 0 and expected.get(layer, 0) > 0:
            gone[layer] = f"{layer} is never called; the baseline calls it {expected[layer]:g} times a round"
    absent = {}
    for name, (layer, hooks) in SOURCES.items():
        failed = [hook for hook in hooks if hook in trace["hook_errors"]]
        if layer in gone:
            absent[name] = gone[layer]
        elif failed:
            absent[name] = f"counter hook of {failed[0]} failed: {trace['hook_errors'][failed[0]]}"
    return absent


def per_layer(workload: str, plain: dict, traced: dict) -> tuple[dict, dict, dict, list]:
    """Per-round layer metrics of the traced run, the absent ones, layer calls, accounting problems."""
    from tracing import OP_SPAN, layer_totals

    totals = layer_totals(traced["spans"])
    trace = traced["trace"]
    counts = trace["counts"]
    rounds = 1 + max(op["round"] for op in traced["ops"])
    op_time = sum(op["latency_s"] for op in traced["ops"])

    def calls(layer, func=None):
        entry = totals.get(layer, {"calls": {}})
        return sum(n for f, n in entry["calls"].items() if func is None or f == func) / rounds

    def self_s(layer):
        return totals.get(layer, {"self_s": 0.0})["self_s"] / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    lindblad_calls = calls("dynamics.lindblad")
    lindblad_s = self_s("dynamics.lindblad")
    steps = counts.get("rk4_steps", 0) / rounds
    fixed_s = trace["lindblad_fixed_s"]
    gflop = counts.get("step_flop", 0) / rounds / 1e9
    mbytes = counts.get("step_bytes", 0) / rounds / 1e6
    traced_wall = statistics.median(round_totals(traced, "latency_s"))
    plain_wall = statistics.median(round_totals(plain, "latency_s"))

    m = {
        "experiments.calls": _metric(calls("experiments"), "count"),
        "experiments.points": _metric(counts.get("points", 0) / rounds, "count"),
        "experiments.self_s": _metric(self_s("experiments"), "s"),
        "model.calls": _metric(calls("model"), "count"),
        "model.s": _metric(self_s("model"), "s"),
        "linalg.eig_calls": _metric(calls("linalg", "eig_hermitian"), "count"),
        "linalg.eig_s": _metric(self_s("linalg"), "s"),
        "linalg.eig_distinct_ratio": _metric(
            ratio(counts.get("eig_distinct", 0) / rounds, calls("linalg", "eig_hermitian")), "ratio"),
        "zeno.calls": _metric(calls("zeno"), "count"),
        "zeno.s": _metric(self_s("zeno"), "s"),
        "dynamics.unitary_calls": _metric(calls("dynamics.unitary"), "count"),
        "dynamics.unitary_s": _metric(self_s("dynamics.unitary"), "s"),
        "dynamics.lindblad_calls": _metric(lindblad_calls, "count"),
        "dynamics.lindblad_s": _metric(lindblad_s, "s"),
        "dynamics.lindblad_distinct_ratio": _metric(
            ratio(counts.get("lindblad_distinct", 0) / rounds, lindblad_calls), "ratio"),
        "dynamics.rk4_steps": _metric(steps, "count"),
        "dynamics.lindblad_fixed_ms": _metric(fixed_s * 1e3, "ms"),
        "dynamics.ns_per_step": _metric(
            ratio(max(0.0, lindblad_s - lindblad_calls * fixed_s) * 1e9, steps), "ns"),
        "dynamics.step_gflop_nominal": _metric(gflop, "GFLOP"),
        "dynamics.step_mb_nominal": _metric(mbytes, "MB"),
        "dynamics.step_gflops_nominal": _metric(ratio(gflop, lindblad_s), "GFLOP/s"),
        "dynamics.step_gbps_nominal": _metric(ratio(mbytes / 1e3, lindblad_s), "GB/s"),
        "dynamics.output_states": _metric(counts.get("output_states", 0) / rounds, "count"),
        "dynamics.observable_calls": _metric(calls("dynamics.observable"), "count"),
        "dynamics.observable_s": _metric(self_s("dynamics.observable"), "s"),
        "io.render_s": _metric(self_s("io.render"), "s"),
        "io.bytes": _metric(counts.get("io_bytes", 0) / rounds, "B"),
        "io.write_s": _metric(self_s("io.write"), "s"),
        "cli.parse_s": _metric(self_s("cli.parse"), "s"),
        "op.unattributed_s": _metric(self_s(OP_SPAN), "s"),
        "trace.wall_s": _metric(traced_wall, "s"),
        "trace.overhead_s": _metric(traced_wall - plain_wall, "s"),
    }
    layer_calls = {layer: calls(layer) for layer in totals if layer != OP_SPAN}
    absent = absent_metrics(workload, layer_calls, trace)
    for name in absent:
        m[name]["value"] = 0.0
    # Self times add up to the op spans by construction, so the accounting
    # check is the share of op time that no module span covers.
    problems = []
    if self_s(OP_SPAN) * rounds > UNATTRIBUTED_LIMIT * op_time:
        problems.append(f"{self_s(OP_SPAN) * rounds:.4f} s of {op_time:.4f} s is outside every module span")
    return m, absent, layer_calls, problems


# -- main ---------------------------------------------------------------------------------------


def run(args) -> dict:
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        harness = Harness(args, workdir)
        problems, absent = [], {}
        if args.trace:
            plain = harness.measure(args.seconds / 2, trace=False)
            traced = harness.measure(args.seconds / 2, trace=True)
            metrics, absent, layer_calls, problems = per_layer(args.workload, plain, traced)
            for name in traced["trace"]["absent"]:
                print(f"trace: wrapped name absent: {name}")
            for name, error in traced["trace"]["hook_errors"].items():
                print(f"trace: counter hook of {name} failed: {error}")
            print(f"layer calls per round: {json.dumps(layer_calls, sort_keys=True)}")
            runs = [plain, traced]
        else:
            setup, setup_raw = harness.setup_times()
            plain = harness.measure(args.seconds, trace=False)
            metrics = end_to_end(plain, setup)
            raw = end_to_end(plain, setup_raw, scaled=False)
            print("unscaled: " + ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in raw.items()))
            # p90 is printed, not gated: on open_surface a run has ~15 ops and
            # its p90 spread between runs reached the largest allowed bound.
            latencies = op_latencies_ms(plain)
            print(f"op_ms_p90: {_p90(latencies):.6g} ms over {len(latencies)} ops (printed only)")
            print(f"speed scale: {plain['scale']:.4f} from {len(plain['ops']) + 1} kernel runs")
            runs = [plain]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(len(r["ops"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    selfcheck = all(r["selfcheck"] for r in runs)
    print(f"self-check: perturbed result counted as failed: {'yes' if selfcheck else 'NO'}")
    for problem in problems:
        print(f"trace accounting: {problem}")
    rounds = sum(1 + r["ops"][-1]["round"] for r in runs)
    print(f"ops: {attempted} attempted in {rounds} rounds, {failed} failed")
    for kind, latencies in sorted(_latencies_by_kind(runs[0], scaled=False).items()):
        print(f"op {kind}: unscaled median {statistics.median(latencies):.2f} ms over {len(latencies)} ops")
    for name, metric in metrics.items():
        value = f"absent ({absent[name]})" if name in absent else f"{metric['value']:.6g} {metric['unit']}"
        print(f"{name:34s} {value}")
    if absent:
        print(f"absent metrics (reported as 0): {', '.join(absent)}")
    return {
        "correct": failed == 0 and selfcheck and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nvzeno benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "nvzeno" / "__init__.py").is_file():
        print(f"perfbench: no nvzeno package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
