"""photoevap benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from the
checkout's ``src/`` and nowhere else.  Workloads, metric names and units
are listed in ``BENCHMARK.json``; ``perfbench/README.md`` says why each
workload exists, which per-layer metric should move which end-to-end
metric, and how durations are put on the reference-speed scale.

``--trace 0`` measures one closed loop for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` runs the loop untraced for half the
time and traced for the other half (the difference in ops/s is the
tracing overhead), then the per-layer probes; it prints the per-layer
metrics and each layer's self time and writes every span to
``.bench_out/``.  Either way the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3  # set-ups per run (this process plus fresh ones); setup_s is their median
P90_MIN_OPS = 100  # p90 only with at least ten samples beyond it


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def pin_to_one_cpu() -> int:
    """Run this process and every child on one CPU, so the calibration
    kernel and the work it calibrates share a core."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def provenance(cpu: int) -> dict:
    import hashlib

    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), model)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: ") and (ROOT / ".git" / commit[5:]).is_file():
            commit = (ROOT / ".git" / commit[5:]).read_text().strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu_model": model,
        "git_commit": commit,  # None when the checkout is not a git repository
        "src_sha256": digest.hexdigest()[:16],
    }


class Phase:
    """One closed loop: op latencies (raw and at reference speed), failed
    checks per op.

    The loop starts a group only if it should end within ``seconds``,
    but never stops before ``min_ops`` ops, and reads the workload's peak
    memory as soon as ``min_ops`` ops are done: figures taken over the
    first ``min_ops`` ops then cover the same work however fast the
    machine runs."""

    def __init__(self, wl, tracer, seconds: float, min_ops: int = 0) -> None:
        self.group = wl.group
        self.cal = wl.calibration()
        self.starts: list[float] = []
        self.raw: list[float] = []
        self.problems: dict[int, list] = {}
        self.peak_rss_mb = None
        self.cal.sample()
        start = group_start = time.perf_counter()
        i = 0
        while True:
            tracer.op_id = i
            t0 = time.perf_counter()
            try:
                result = tracer.call("bench.op", wl.run_op, i, tracer)
            except Exception as exc:  # an op that raises is a failed op; the loop goes on
                self.raw.append(time.perf_counter() - t0)
                self.problems[i] = [("raised", f"{type(exc).__name__}: {exc}")]
            else:
                self.raw.append(time.perf_counter() - t0)
                found = wl.check(i, result)
                if found:
                    self.problems[i] = found
            self.starts.append(t0)
            i += 1
            if i == min_ops:
                self.peak_rss_mb = wl.peak_rss_mb()
            if self.cal.due():
                self.cal.sample()
            if i % wl.group == 0:
                # start another group only if it should end within the time
                now = time.perf_counter()
                if i >= min_ops and (now - start) + (now - group_start) > seconds:
                    break
                group_start = now
        self.cal.sample()
        self.wall_s = time.perf_counter() - start
        self.scaled = [d * self.cal.factor(t) for d, t in zip(self.raw, self.starts)]
        for j, found in wl.deferred_checks().items():
            self.problems.setdefault(j, []).extend(found)

    @property
    def ops(self) -> int:
        return len(self.raw)

    def ops_per_s(self, latencies) -> float:
        """Ops per second of op time over the middle half of the groups.

        Every group has the same mix of op kinds; the interquartile mean
        drops the groups the machine ran unusually slow or fast; the
        runner's own checks are left out."""
        n = self.group
        groups = sorted(sum(latencies[g:g + n]) for g in range(0, len(latencies) - n + 1, n))
        q = len(groups) // 4
        middle = groups[q:len(groups) - q]
        return n / statistics.mean(middle)


def account(wl, phases) -> tuple[int, int, bool, list[str]]:
    """attempted, failed, correct, report lines.

    Every op with a failed check counts as failed.  ``correct`` is false
    when any failure is not one of the workload's documented known defects.
    """
    attempted = sum(p.ops for p in phases)
    failed = sum(len(p.problems) for p in phases)
    lines = []
    unexpected = 0
    seen: dict[str, list[str]] = {}
    for phase in phases:
        for i, found in sorted(phase.problems.items()):
            for check_id, detail in found:
                seen.setdefault(check_id, []).append(detail)
                if check_id not in wl.known_defects:
                    unexpected += 1
                    if unexpected <= 10:
                        lines.append(f"FAILED op {i}: {check_id}: {detail}")
    for check_id, details in seen.items():
        if check_id in wl.known_defects:
            lines.append(
                f"known defect on {len(details)} op(s), counted as failed: {check_id}: "
                f"{wl.known_defects[check_id]} ({details[0]})"
            )
    return attempted, failed, unexpected == 0, lines


def setup_samples(args) -> list[tuple[float, float]]:
    """(reference-speed, raw) set-up seconds of fresh runner processes."""
    from workloads import CHILD_TIMEOUT_S

    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up process exited {child.returncode}: {child.stderr[-500:]}")
        result = json.loads(child.stdout.strip().splitlines()[-1])
        samples.append((result["setup_s"], result["setup_raw_s"]))
    return samples


def metric_line(name, value, unit, note="") -> str:
    return f"  {name:<40} {value:>14.6g} {unit:<6} {note}".rstrip()


def result_line(correct, attempted, failed, values, units) -> str:
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "photoevap" / "__init__.py").is_file():
        return fail(f"no photoevap package under {SRC}; run from the root of a photoevap checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    cpu = pin_to_one_cpu()
    OUT_DIR.mkdir(exist_ok=True)

    import speed

    setup_cal = speed.Calibration()
    setup_cal.sample()
    sys.path.insert(0, str(SRC))
    import photoevap

    if SRC not in Path(photoevap.__file__).resolve().parents:
        return fail(f"photoevap imported from {photoevap.__file__}, not from {SRC}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    ctx = workloads.Context(ROOT, SRC, OUT_DIR, args.seed, env)
    wl = workloads.WORKLOADS[args.workload](ctx)
    wl.setup()
    setup_cal.sample()
    setup_raw = time.perf_counter() - T_START - setup_cal.spent_s
    setup_ref = setup_raw * speed.REF_S / statistics.mean(setup_cal.kernels)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_ref, "setup_raw_s": setup_raw}))
        return 0

    info = provenance(cpu)
    print(f"provenance: {json.dumps(info)}")
    print(f"workload {wl.name}, seed {args.seed}: closed loop, one client, {seconds:g} s")
    if args.trace:
        return traced(args, spec, wl, seconds, info)

    phase = Phase(wl, workloads.NoTracer(), seconds, wl.scored_ops)
    peak_rss = phase.peak_rss_mb
    setups = [(setup_ref, setup_raw)] + setup_samples(args)
    attempted, failed, correct, lines = account(wl, [phase])
    ms = sorted(x * 1e3 for x in phase.scaled)
    raw_ms = sorted(x * 1e3 for x in phase.raw)
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": phase.ops_per_s(phase.scaled),
        "op_p50_ms": statistics.median(ms),
        "peak_rss_mb": peak_rss,
    }
    groups = f"middle half of {phase.ops // phase.group} groups of {phase.group} ops"
    print(f"end-to-end metrics, durations at reference speed (machine ran at {phase.cal.speed():.3f}x):")
    print(metric_line("setup_s", metrics["setup_s"], "s", f"median of {len(setups)} set-ups"))
    print(metric_line("ops_per_s", metrics["ops_per_s"], "1/s", groups))
    print(metric_line("op_p50_ms", metrics["op_p50_ms"], "ms", f"n = {phase.ops}"))
    whose = "largest CLI child" if wl.name == "cli_sessions" else "runner process"
    print(metric_line("peak_rss_mb", peak_rss, "MB", f"{whose}, after the first {wl.scored_ops} ops"))
    print("reported, not gated:")
    if phase.ops >= P90_MIN_OPS:
        print(metric_line("op_p90_ms", statistics.quantiles(ms, n=10)[8], "ms", f"n = {phase.ops}"))
    else:
        print(f"  op_p90_ms omitted: {phase.ops} ops, needs {P90_MIN_OPS}")
    print(metric_line("fail_frac", failed / attempted, "frac", f"{failed} of {attempted} ops"))
    for name, value, unit, note in wl.quality():
        print(metric_line(name, value, unit, note))
    print("raw wall-clock durations, for reference:")
    print(metric_line("setup_s.raw", statistics.median(r for _, r in setups), "s"))
    print(metric_line("ops_per_s.raw", phase.ops_per_s(phase.raw), "1/s", groups))
    print(metric_line("op_p50_ms.raw", statistics.median(raw_ms), "ms"))
    print(metric_line("ops_per_s.wall", phase.ops / phase.wall_s, "1/s", f"{phase.ops} ops in {phase.wall_s:.2f} s, checks included"))
    for line in lines:
        print(line)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(result_line(correct, attempted, failed, metrics, units))
    return 0


def traced(args, spec, wl, seconds, info) -> int:
    import probes
    import spans

    untraced = Phase(wl, spans.NoTracer(), seconds / 2)
    tracer = spans.Tracer()
    traced_phase = Phase(wl, tracer, seconds / 2)
    op_spans = tracer.finished()
    probe_tracer = spans.Tracer()
    probe_tracer.op_id = "probe"
    values = probes.run(wl.ctx, probe_tracer)
    attempted, failed, correct, lines = account(wl, [untraced, traced_phase])

    self_s = spans.self_times(op_spans, traced_phase.cal.factor)
    busy = sum(self_s.values())
    ops_u = untraced.ops_per_s(untraced.scaled)
    ops_t = traced_phase.ops_per_s(traced_phase.scaled)
    overhead = 1.0 - ops_t / ops_u
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print("per-layer metrics at reference speed (probes: the same calls on every workload):")
    for name, unit in units.items():
        print(metric_line(name, values[name], unit))
    print(f"self time per layer over {traced_phase.ops} traced ops, at reference speed:")
    for layer, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(metric_line(f"self.{layer}", value * 1e3 / traced_phase.ops, "ms/op", f"{100 * value / busy:.1f} % of op time"))
    print("tracing overhead:")
    print(metric_line("ops_per_s.untraced", ops_u, "1/s", f"{untraced.ops} ops"))
    print(metric_line("ops_per_s.traced", ops_t, "1/s", f"{traced_phase.ops} ops"))
    print(metric_line("trace_overhead", 100 * overhead, "%", "1 - traced / untraced ops_per_s"))
    for line in lines:
        print(line)

    out = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
    out.write_text(json.dumps({
        "workload": wl.name,
        "seed": args.seed,
        "seconds": seconds,
        "provenance": info,
        "per_layer": values,
        "self_ms_per_op": {k: v * 1e3 / traced_phase.ops for k, v in self_s.items()},
        "trace_overhead_frac": overhead,
        "spans": [s._asdict() for s in op_spans + probe_tracer.finished()],
    }))
    print(f"spans written to {out.relative_to(ROOT)}")
    print(result_line(correct, attempted, failed, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
