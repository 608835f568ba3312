"""geomcode benchmark: fixed CLI workloads run in process, closed loop.

    python3 perfbench/run.py --workload paper-q5 --seed 1 --seconds 30 --trace 0

Run from a source checkout: geomcode is imported from its `src/` directory,
never from an installed copy.  One client calls `geomcode.cli.main` with
each command of the workload in turn and repeats the whole list until
`--seconds` is spent; every output passes the gate in `gate.py` before its
time counts.  The last line of stdout is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (`--trace 0`) or the per-layer metrics from a
traced run (`--trace 1`).  Per-run records and span dumps go to
`.perfbench-out/` in the checkout; see README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from gate import WORKLOADS, Command, Gate, Outcome  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SETUP_SAMPLES = 9
# On the shared 2-core VM this was tuned on, a thread runs up to 1.5x
# slower for stretches from a fraction of a second to minutes.  A command
# shorter than this is repeated back to back and timed by its mean, so one
# sample spans several short stretches instead of falling into one.
MIN_COMMAND_S = 0.25
# The slow stretches that outlast a run are divided out: every end-to-end
# time is scaled by REFERENCE_KERNEL_S / (time of the calibration kernel
# around it).  The constant is the kernel's median time on that VM, so
# the scaled times read as seconds at its usual speed.
REFERENCE_KERNEL_S = 0.040
PHASES = ("construct", "analyze", "simulate")

END_TO_END_UNITS = {
    "setup_s": "s",
    "construct_s": "s",
    "analyze_s": "s",
    "simulate_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span whose summed self time it reports
SELF_TIME_METRICS = {
    "cli.main_s": "cli.main",
    "fields.field_from_string_s": "fields.field_from_string",
    "constructions.build_conic_s": "constructions.build_conic_structure",
    "constructions.build_hyperbolic_s": "constructions.build_hyperbolic_structure",
    "constructions.enumerate_hyperbolic_labels_s": "constructions.enumerate_hyperbolic_labels",
    "constructions.block_label_dedup_s": "constructions.block_label_dedup",
    "alist.write_s": "alist.write_alist",
    "alist.read_s": "alist.read_alist",
    "gf2.gram_counts_s": "gf2.gram_counts",
    "gf2.gram2_s": "gf2.gram2",
    "gf2.rank2_s": "gf2.rank2",
    "srpg.check_gpg_axioms_s": "srpg.check_gpg_axioms",
    "srpg.adjacency_matrix_s": "srpg.adjacency_matrix",
    "srpg.check_strongly_regular_s": "srpg.check_strongly_regular",
    "srpg.is_connected_s": "srpg.is_connected",
    "metrics.tanner_girth_s": "metrics.tanner_girth",
    "metrics.six_cycles_s": "metrics.six_cycles",
    "sim.random_regular_h_s": "sim.random_regular_h",
    "sim.from_parity_s": "sim.LdpcCode.from_parity",
    "sim.decoder_init_s": "sim.SumProductDecoder.__init__",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS},
    "projective.quadric_contains_calls": "count",
    "gf2.gram_counts_calls": "count",
    "alist.bytes_written": "bytes",
    "sim.decode_us_per_frame_iter": "us",
    "sim.frame_overhead_us": "us",
    "sim.awgn_us_per_frame": "us",
    "sim.frames": "count",
    "sim.decode_iterations": "count",
    "sim.converged_ratio": "ratio",
    "cli.simulate_scaling_eff": "ratio",
    "trace.overhead_s": "s",
}

# Exact counts: identical in every traced pass of a run and in every traced
# run of the same seed and sources, or the run fails.
EXACT_COUNTS = ("sim.frames", "sim.decode_iterations",
                "projective.quadric_contains_calls", "gf2.gram_counts_calls")


def median(values: list[float]) -> float:
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (`statistics.quantiles`)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


# ---------------------------------------------------------------- set-up

def workdir(workload: str) -> Path:
    return ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"


def setup(workload: str, seed: int):
    """Import geomcode from the checkout and generate the workload's commands
    and expected values.  Returns (geomcode.cli module, commands)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import geomcode.cli

    if not Path(geomcode.__file__).resolve().is_relative_to(src):
        raise ImportError(f"geomcode imported from {geomcode.__file__}, not from {src}")
    return geomcode.cli, WORKLOADS[workload](workdir(workload), seed)


class CalibrationKernel:
    """A fixed mix of the work geomcode does: Python big-int bit counts (as in
    gf2 and alist), numpy element-wise functions (as in the decoder) and a
    matrix product (as in srpg).  Calling it returns its time in seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.bits = [int(b) for b in rng.integers(0, 2**62, 1200)]
        self.x = rng.standard_normal(40000)
        self.a = rng.standard_normal((200, 200))

    def __call__(self) -> float:
        start = perf_counter()
        acc = 0
        for r in self.bits:
            for b in self.bits[:200]:
                acc += (r & b).bit_count()
        for _ in range(30):
            np.cumprod(np.tanh(self.x))
        for _ in range(20):
            self.a @ self.a
        return perf_counter() - start


def at_reference_speed(seconds: float, kernel_before: float, kernel_after: float) -> float:
    return seconds * REFERENCE_KERNEL_S * 2 / (kernel_before + kernel_after)


def probe(workload: str, seed: int) -> None:
    """Body of a set-up sample process: set up, then say so."""
    setup(workload, seed)
    print("ready", flush=True)


def setup_samples(workload: str, seed: int, kernel: CalibrationKernel) -> list[float]:
    """Reference-speed set-up seconds of SETUP_SAMPLES fresh interpreters."""
    k = [kernel()]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t = setup_seconds(workload, seed)
        k.append(kernel())
        samples.append(at_reference_speed(t, k[-2], k[-1]))
    return samples


def setup_seconds(workload: str, seed: int) -> float:
    """Process start to end of set-up, in a fresh interpreter."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "run.probe(sys.argv[2], int(sys.argv[3]))")
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, str(BENCH_DIR), workload, str(seed)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed (exit {proc.returncode})")
    return elapsed


# -------------------------------------------------------------- commands

class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str, errors: list[str]) -> None:
        self.failed += 1
        self.errors += [f"{what}: {e}" for e in errors]


def run_command(cli, cmd: Command, gate: Gate, tracer: Tracer | None = None,
                label: str = "") -> tuple[float, list[str]]:
    """One CLI call and its gate; returns (seconds, errors)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        if tracer is not None:
            tracer.command = label
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(cmd.argv)
    except SystemExit as exc:                        # argparse rejections
        rc = exc.code
    except Exception:
        return perf_counter() - start, [traceback.format_exc()]
    finally:
        if tracer is not None:
            tracer.command = None
    elapsed = perf_counter() - start
    return elapsed, cmd.check(cmd, Outcome(rc, out.getvalue(), err.getvalue()), gate)


def run_pass(cli, cmds: list[Command], gate: Gate, tally: Tally,
             tracer: Tracer | None = None, min_seconds: float = 0.0) -> list[float] | None:
    """Every command in turn, back to back, each repeated until its runs
    add up to `min_seconds`.  Returns each command's mean seconds per run,
    or None when any output failed the gate: a failed pass yields no timing."""
    times, ok = [], True
    for cmd in cmds:
        total, runs = 0.0, 0
        while runs == 0 or total < min_seconds:
            elapsed, errors = run_command(cli, cmd, gate, tracer,
                                          f"{tally.attempted}:{cmd.argv[0]}")
            tally.attempted += 1
            if errors:
                tally.fail(" ".join(cmd.argv[:5]), errors)
                ok = False
                break
            total += elapsed
            runs += 1
        times.append(total / max(runs, 1))
    return times if ok else None


def calibrated_pass(cli, cmds: list[Command], gate: Gate, tally: Tally,
                    kernel: CalibrationKernel) -> list[tuple[float, float]] | None:
    """run_pass, with the calibration kernel timed before the first command
    and after each one.  Returns (seconds, reference-speed seconds) per
    command, or None when any output failed the gate."""
    k = [kernel()]
    timed = []
    for cmd in cmds:
        t = run_pass(cli, [cmd], gate, tally, min_seconds=MIN_COMMAND_S)
        k.append(kernel())
        timed.append(None if t is None else (t[0], at_reference_speed(t[0], k[-2], k[-1])))
    return None if None in timed else timed


def phase_totals(cmds: list[Command], times: list[float]) -> dict[str, float]:
    totals = dict.fromkeys(PHASES, 0.0)
    for cmd, t in zip(cmds, times):
        totals[cmd.phase] += t
    return totals


def repeat(seconds: float, body, gate: Gate) -> None:
    """Call body() until the next call would end after `seconds`; at least
    once.  The gate's first-sight checks, which are untimed and may take as
    long as a pass, do not count against `seconds`."""
    start = perf_counter()
    while True:
        t0, checks0 = perf_counter(), gate.check_seconds
        body()
        now = perf_counter()
        last = now - t0 - (gate.check_seconds - checks0)
        if now - start - gate.check_seconds + last > seconds:
            return


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


# ---------------------------------------------------------------- modes

def measure(cli, cmds: list[Command], seconds: float, tally: Tally, record: dict,
            kernel: CalibrationKernel) -> dict:
    gate = Gate()
    samples: list[dict[str, float]] = []
    record["passes_wall_s"] = []

    def rep() -> None:
        timed = calibrated_pass(cli, cmds, gate, tally, kernel)
        if timed is not None:
            record["passes_wall_s"].append(phase_totals(cmds, [t for t, _ in timed]))
            samples.append(phase_totals(cmds, [r for _, r in timed]))

    repeat(seconds, rep, gate)
    record["passes"] = samples
    if not samples:
        return {}
    record["pass_spread"] = {p: relative_spread([s[p] for s in samples]) for p in PHASES}
    metrics = {f"{p}_s": median([s[p] for s in samples]) for p in PHASES}
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def ratio(num: float, den: float) -> float:
    """num / den, or 0 for a layer the workload never entered."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_sim_s: float, parallel_sim_s: float,
                  threads: int, overhead_s: float) -> dict[str, float]:
    st = self_times(tracer.spans)
    c = tracer.counts
    frames = sum(1 for s in tracer.spans if s.name == "sim.SumProductDecoder.decode")
    iters = c["sim.decode_iterations"]
    m = {name: st.get(span, 0.0) for name, span in SELF_TIME_METRICS.items()}
    m.update({
        "projective.quadric_contains_calls": c["projective.quadric_contains_calls"],
        "gf2.gram_counts_calls": sum(1 for s in tracer.spans if s.name == "gf2.gram_counts"),
        "alist.bytes_written": c["alist.bytes_written"],
        "sim.decode_us_per_frame_iter": 1e6 * ratio(st.get("sim.SumProductDecoder.decode", 0.0), iters),
        "sim.frame_overhead_us": 1e6 * ratio(st.get("sim.simulate_point", 0.0), frames),
        "sim.awgn_us_per_frame": 1e6 * ratio(st.get("sim.awgn_llrs", 0.0), frames),
        "sim.frames": frames,
        "sim.decode_iterations": iters,
        "sim.converged_ratio": ratio(c["sim.converged"], frames),
        "cli.simulate_scaling_eff": ratio(traced_sim_s, threads * parallel_sim_s),
        "trace.overhead_s": overhead_s,
    })
    return m


def ber_frames(cmds: list[Command]) -> int:
    """Frames in the BER CSVs the simulate commands wrote."""
    total = 0
    for cmd in cmds:
        if cmd.phase == "simulate" and cmd.out.exists():
            lines = cmd.out.read_text().splitlines()[1:]
            total += sum(int(line.split(",")[1]) for line in lines)
    return total


def measure_traced(cli, cmds: list[Command], seconds: float, tally: Tally,
                   record: dict) -> dict:
    """Cycles of: the workload untraced; its multi-process simulate commands
    untraced with one process; the workload traced with one process."""
    gate = Gate()
    single = [c.single_process() for c in cmds]
    parallel = [i for i, c in enumerate(cmds) if c.threads > 1]
    threads = max((cmds[i].threads for i in parallel), default=1)
    tracer = Tracer()
    cycles: list[dict[str, float]] = []

    def cycle() -> None:
        untraced = run_pass(cli, cmds, gate, tally, min_seconds=MIN_COMMAND_S)
        one_proc = run_pass(cli, [single[i] for i in parallel], gate, tally,
                            min_seconds=MIN_COMMAND_S)
        tracer.reset()
        tracer.install()
        try:
            traced = run_pass(cli, single, gate, tally, tracer)
        finally:
            tracer.uninstall()
        if untraced is None or one_proc is None or traced is None:
            return
        same_config = list(untraced)
        for i, t in zip(parallel, one_proc):
            same_config[i] = t
        m = layer_metrics(
            tracer,
            traced_sim_s=sum(traced[i] for i in parallel),
            parallel_sim_s=sum(untraced[i] for i in parallel),
            threads=threads,
            overhead_s=sum(traced) - sum(same_config),
        )
        if m["sim.frames"] != ber_frames(single):
            tally.fail("trace", [f"{m['sim.frames']} decode spans, but the BER CSVs "
                                 f"count {ber_frames(single)} frames"])
            return
        cycles.append(m)
        record.setdefault("cycle_phases", []).append({
            "untraced": phase_totals(cmds, untraced),
            "untraced_same_config": phase_totals(cmds, same_config),
            "traced": phase_totals(single, traced),
        })
        record["spans"] = [list(s) for s in tracer.spans]
        record["self_times"] = self_times(tracer.spans)
        record["counts"] = dict(tracer.counts)

    repeat(seconds, cycle, gate)
    record["cycles"] = cycles
    if not cycles:
        return {}
    for name in EXACT_COUNTS:
        if len({c[name] for c in cycles}) > 1:
            tally.fail("exact counts", [f"{name} differs between traced passes: "
                                        f"{[c[name] for c in cycles]}"])
    return {name: median([c[name] for c in cycles]) for name in PER_LAYER_UNITS}


def compare_exact_counts(previous: Path, sources: str, metrics: dict, tally: Tally) -> None:
    """The exact counts must equal those of the last correct traced run of
    the same workload, seed and sources in this checkout, if there is one."""
    try:
        old = json.loads(previous.read_text())
    except (OSError, ValueError):
        return
    if not old.get("correct") or old["env"]["source_sha256"] != sources:
        return
    for name in EXACT_COUNTS:
        if old["metrics"][name]["value"] != metrics[name]:
            tally.fail("exact counts", [f"{name} is {metrics[name]}, an earlier run of this "
                                        f"seed counted {old['metrics'][name]['value']}"])


# ------------------------------------------------------------ environment

def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "geomcode").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_before": list(os.getloadavg()),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
    }


# ------------------------------------------------------------------ main

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "geomcode" / "__init__.py").is_file():
        print(f"error: no geomcode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record: dict = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                    "env": environment(args.seed)}
    tally = Tally()
    work = workdir(args.workload)
    try:
        if not args.trace:
            kernel = CalibrationKernel()
            record["setup_samples"] = setup_samples(args.workload, args.seed, kernel)
        cli, cmds = setup(args.workload, args.seed)
        work.mkdir(parents=True)
        if args.trace:
            metrics = measure_traced(cli, cmds, args.seconds, tally, record)
        else:
            metrics = measure(cli, cmds, args.seconds, tally, record, kernel)
            if metrics:
                metrics["setup_s"] = median(record["setup_samples"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    record["env"]["loadavg_after"] = list(os.getloadavg())

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if args.trace and metrics:
        compare_exact_counts(record_path, record["env"]["source_sha256"], metrics, tally)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct = tally.failed == 0 and set(metrics) == set(units)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    record.update(result, errors=tally.errors)
    record_path.write_text(json.dumps(record) + "\n")

    for e in tally.errors:
        print(f"FAILED {e}", file=sys.stderr)
    print(json.dumps({"env": record["env"]}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
