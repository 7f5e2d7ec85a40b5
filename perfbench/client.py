"""The run process: one fresh interpreter, one client, ops in a closed loop.

    python3 perfbench/client.py --workload W --seed N --workdir DIR --kernel-fds REQ,REP --setup
    python3 perfbench/client.py --workload W --seed N --workdir DIR --kernel-fds REQ,REP
                                --seconds S [--trace]

``--setup`` imports ``nvzeno`` and ``nvzeno.cli``, finishes one untimed
one-point op, and writes the time that took (from the first statement of
this file, so interpreter start-up is excluded) to ``DIR/setup.json``.
Otherwise the process does the same set-up, then runs whole rounds of ops
back to back until ``S`` seconds of op time have passed.  Each op's record
(spec, times, output for the checker) is appended to ``DIR/ops.jsonl`` as
soon as the op ends, so the process keeps no per-op state; the summary goes
to ``DIR/result.json`` (and the spans to ``DIR/spans.npz`` when traced).
Only the op call itself is timed: writing config files, collecting outputs
and the calibration kernel happen between ops.  The kernel is timed by the
parent harness: this process writes one byte to the ``REQ`` pipe and reads
the kernel time back from ``REP``.  BLAS threading is left as users get it.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

#: Single-step calls timed by the fixed-cost probe; the median is reported.
PROBE_REPEATS = 21


def _import_package():
    import nvzeno
    import nvzeno.cli

    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.abspath(nvzeno.__file__).startswith(src + os.sep):
        raise ImportError(f"nvzeno imported from {nvzeno.__file__}, not from {src}")
    return nvzeno, nvzeno.cli


class KernelClock:
    """Calibration kernel times, measured by the harness on request."""

    def __init__(self, fds: str):
        request, reply = (int(fd) for fd in fds.split(","))
        self._request = request
        self._reply = os.fdopen(reply, "rb")

    def kernel_s(self) -> float:
        os.write(self._request, b"k")
        return float(self._reply.readline())


def _warmup(args, nvzeno, cli) -> None:
    op = workloads.prepare(workloads.warmup_op(args.workload, args.seed), args.workdir, "warmup")
    op.call(nvzeno, cli)


def _probe_fixed_cost(nvzeno, original, params: dict) -> float:
    """Median seconds of one single-step ``evolve_lindblad`` at the workload's generator."""
    p = nvzeno.SystemParams(**params)
    h, channels = p.hamiltonian(), p.channels()
    rho0 = nvzeno.basis_state(nvzeno.build_space(2), ("up", "down", "aux"))
    samples = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        original(h, channels, rho0, (0.0, 1e-3), dt=1e-3)
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]


def measure(args, nvzeno, cli) -> dict:
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    clock = KernelClock(args.kernel_fds)
    rounds, elapsed = 0, 0.0
    kernel_first = clock.kernel_s()
    with open(os.path.join(args.workdir, "ops.jsonl"), "w", encoding="utf-8") as log:
        while elapsed < args.seconds:
            for k, spec in enumerate(workloads.round_ops(args.workload, args.seed, rounds)):
                op = workloads.prepare(spec, args.workdir, f"r{rounds}-{k}")
                error, result = None, None
                root = tracer.begin_op() if tracer else None
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    result = op.call(nvzeno, cli)
                except Exception as exc:  # a failing op is counted, not fatal
                    error = f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
                cpu = time.process_time() - c0
                if tracer:
                    tracer.finish(root)
                record = {
                    "round": rounds, "spec": spec, "error": error, "latency_s": latency, "cpu_s": cpu,
                    "kernel_after_s": clock.kernel_s(),
                }
                if error is None:
                    record["output"] = op.collect(result)
                log.write(json.dumps(record) + "\n")
                elapsed += latency
            rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"peak_rss_mb": peak_rss_mb, "kernel_first_s": kernel_first}
    if tracer:
        tracer.save(os.path.join(args.workdir, "spans.npz"))
        original = tracer.originals.get("nvzeno.dynamics.evolve_lindblad")
        params = workloads.probe_params(args.workload, args.seed)
        out["trace"] = {
            "counts": dict(tracer.counts),
            "absent": tracer.absent,
            "hook_errors": tracer.hook_errors,
            "lindblad_fixed_s": _probe_fixed_cost(nvzeno, original, params) if original else 0.0,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--kernel-fds", required=True)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    nvzeno, cli = _import_package()
    _warmup(args, nvzeno, cli)
    if args.setup:
        result = {"setup_s": time.perf_counter() - START}
        name = "setup.json"
    else:
        result = measure(args, nvzeno, cli)
        name = "result.json"
    with open(os.path.join(args.workdir, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
