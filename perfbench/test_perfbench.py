"""Tests of the benchmark's own logic.  Run: python3 -m pytest perfbench"""

from __future__ import annotations

import functools
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import run
from gate import WORKLOADS, Ber, Command, Gate, check_structure, srg_closed_form
from spans import Span, self_times

# The (7,4) Hamming code: a small code the frozen reference decodes quickly.
HAMMING_ROWS = [[0, 1, 2, 4], [1, 2, 3, 5], [0, 2, 3, 6]]
GRID = (0.0, 6.0)
QUOTA, MAX_FRAMES = 5, 40


def write_alist(path: Path, n: int, rows: list[list[int]]) -> Path:
    cols = [[i for i, r in enumerate(rows) if j in r] for j in range(n)]
    lines = [f"{n} {len(rows)}", f"{max(map(len, cols))} {max(map(len, rows))}",
             " ".join(str(len(c)) for c in cols), " ".join(str(len(r)) for r in rows)]
    lines += [" ".join(str(i + 1) for i in c) for c in cols]
    lines += [" ".join(str(j + 1) for j in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_self_time_subtracts_direct_children():
    spans = [
        Span(0, None, "c", "root", 0.0, 10.0),
        Span(1, 0, "c", "a", 1.0, 4.0),
        Span(2, 1, "c", "leaf", 2.0, 3.0),
        Span(3, 0, "c", "b", 4.0, 6.0),
        Span(4, 0, "c", "b", 7.0, 9.5),
    ]
    st = self_times(spans)
    assert st["root"] == pytest.approx(10 - 3 - 2 - 2.5)
    assert st["a"] == pytest.approx(3 - 1)
    assert st["leaf"] == pytest.approx(1)
    assert st["b"] == pytest.approx(2 + 2.5)   # two spans of one name add up


def test_self_times_of_sequential_siblings_sum_to_the_root():
    spans = [Span(0, None, "c", "main", 0.0, 4.0)]
    spans += [Span(i, 0, "c", "step", i - 0.5, i) for i in (1, 2, 3)]
    st = self_times(spans)
    assert st["main"] + st["step"] == pytest.approx(4.0)


def test_median_and_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
    q1, q2, q3 = run.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert q2 == run.median(values) == 5.5
    assert run.relative_spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert run.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_closed_forms_match_the_paper_values():
    assert [srg_closed_form("hyperbolic", 5)[k] for k in ("k", "lambda", "mu")] == [480, 365, 380]
    assert [srg_closed_form("conic", 25)[k] for k in ("k", "lambda", "mu")] == [506, 442, 462]
    assert [srg_closed_form("conic", 27)[k] for k in ("k", "lambda", "mu")] == [600, 530, 552]


class FakeCli:
    """Stands in for geomcode.cli: writes a given CSV (and its manifest)."""

    def __init__(self, texts: list[str]):
        self.texts = texts

    def main(self, argv: list[str]) -> int:
        out = Path(argv[argv.index("--out") + 1])
        out.write_text(self.texts.pop(0))
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        Path(f"{out}.manifest.json").write_text(json.dumps({"outputs": {out.name: digest}}))
        return 0


def ber_command(tmp_path: Path) -> Command:
    alist = write_alist(tmp_path / "hamming.alist", 7, HAMMING_ROWS)
    argv = ["simulate", "--in", str(alist), "--ebno", "0:6:6", "--max-iters", "20",
            "--min-frame-errors", str(QUOTA), "--max-frames", str(MAX_FRAMES),
            "--threads", "1", "--seed", "4", "--out", str(tmp_path / "hamming.csv")]
    return Command("simulate", argv, Ber(GRID, forced_errors=(0.0,)))


def reference_csv(cmd: Command) -> str:
    return reference.ber_csv(cmd.argv[2], GRID, 4, 20, QUOTA, MAX_FRAMES)


def test_flipped_csv_byte_is_a_failed_op_without_timing(tmp_path):
    cmd = ber_command(tmp_path)
    csv = reference_csv(cmd)
    i = len(csv) - 2                            # the last digit of the last CI bound
    flipped = csv[:i] + str((int(csv[i]) + 1) % 10) + csv[i + 1:]
    cli, gate, tally = FakeCli([csv, flipped]), Gate(), run.Tally()
    assert run.run_pass(cli, [cmd], gate, tally) is not None
    assert run.run_pass(cli, [cmd], gate, tally) is None
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "differs from its first verified copy" in tally.errors[0]


def test_csv_unlike_the_reference_fails_on_first_sight(tmp_path):
    cmd = ber_command(tmp_path)
    lines = reference_csv(cmd).splitlines()
    ebn0, frames, bits, fe, *rest = lines[2].split(",")
    lines[2] = ",".join([ebn0, frames, str(int(bits) + 1), fe, *rest])
    tally = run.Tally()
    assert run.run_pass(FakeCli(["\n".join(lines) + "\n"]), [cmd], Gate(), tally) is None
    assert tally.failed == 1 and "reference decoder" in tally.errors[0]


def import_geomcode_cli():
    sys.path.insert(0, str(run.ROOT / "src"))
    import geomcode.cli
    return geomcode.cli


def zeros(self, llrs, max_iter):
    return np.zeros(len(llrs), dtype=np.uint8), 1, True


def one_iteration(self, llrs, max_iter, decode=None):
    return decode(self, llrs, 1)


@pytest.mark.parametrize("mutant", [None, zeros, one_iteration])
def test_gate_checks_the_decoder_against_the_reference(tmp_path, monkeypatch, mutant):
    cli = import_geomcode_cli()
    from geomcode.sim import SumProductDecoder

    if mutant is one_iteration:
        mutant = functools.partialmethod(one_iteration, decode=SumProductDecoder.decode)
    if mutant is not None:
        monkeypatch.setattr(SumProductDecoder, "decode", mutant)
    tally = run.Tally()
    passed = run.run_pass(cli, [ber_command(tmp_path)], Gate(), tally) is not None
    assert passed == (mutant is None), tally.errors


def test_structure_check_finds_wrong_shape_weights_and_4_cycles(tmp_path):
    path = write_alist(tmp_path / "h.alist", 7, HAMMING_ROWS)
    assert check_structure(path, 3, 7, 2, 4, four_cycles=True) == [
        "h.alist: column weights [1, 2, 3], expected 2"]
    assert check_structure(path, 3, 7, 2, 4, four_cycles=False) == [
        "h.alist: column weights [1, 2, 3], expected 2", "h.alist has 4-cycles"]
    assert check_structure(path, 7, 3, 2, 4, four_cycles=True) == ["h.alist is 3x7, expected 7x3"]
    triangle = write_alist(tmp_path / "k.alist", 3, [[0, 1], [1, 2], [0, 2]])
    assert check_structure(triangle, 3, 3, 2, 2, four_cycles=False) == []
    assert check_structure(triangle, 3, 3, 2, 2, four_cycles=True) == ["k.alist has no 4-cycles"]


def test_exact_count_mismatch_with_an_earlier_run_fails(tmp_path):
    counts = {name: 7 for name in run.EXACT_COUNTS}
    previous = tmp_path / "ber-q3-seed1-trace1.json"
    previous.write_text(json.dumps({
        "correct": True, "env": {"source_sha256": "abc"},
        "metrics": {name: {"value": v, "unit": "count"} for name, v in counts.items()}}))
    tally = run.Tally()
    run.compare_exact_counts(previous, "abc", counts, tally)
    assert tally.failed == 0
    run.compare_exact_counts(previous, "abc", {**counts, "sim.frames": 8}, tally)
    assert tally.failed == 1 and "sim.frames" in tally.errors[0]
    run.compare_exact_counts(previous, "other sources", {**counts, "sim.frames": 8}, tally)
    assert tally.failed == 1


def test_benchmark_json_matches_the_metrics_run_py_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ber-q3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def result_of(capsys, argv: list[str]) -> dict:
    rc = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert rc == 0, result
    return result


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_one_pass(workload, capsys):
    r = result_of(capsys, ["--workload", workload, "--seed", "3", "--seconds", "0"])
    assert r["correct"] and r["failed"] == 0
    assert r["attempted"] >= len(WORKLOADS[workload](Path(), 3))   # short commands repeat
    assert set(r["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in r["metrics"].values())


def test_smoke_traced_ber_q3(capsys):
    r = result_of(capsys, ["--workload", "ber-q3", "--seed", "3", "--seconds", "0", "--trace", "1"])
    m = {k: v["value"] for k, v in r["metrics"].items()}
    assert r["correct"] and set(m) == set(run.PER_LAYER_UNITS)
    assert m["sim.frames"] > 0 and m["sim.decode_iterations"] >= m["sim.frames"]
    assert m["gf2.gram_counts_calls"] == 4
    assert m["projective.quadric_contains_calls"] == 0
    assert 0 < m["sim.converged_ratio"] <= 1 and m["cli.simulate_scaling_eff"] > 0
