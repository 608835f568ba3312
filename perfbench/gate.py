"""The three workloads as geomcode CLI command lists, and the correctness
gate every command's output must pass before its time counts.

Expected values come from closed forms or from the frozen reference in
`reference.py`, not from the program's own output: the shape, weights and
4-cycles of each matrix, the strongly regular parameters of the two
point graphs, the 6-cycle count n*s*(s+1)*(lambda-s+1)/6, Brouwer's rank
prediction evaluated on the closed-form spectrum, and every BER CSV byte
for byte.  Outputs that must repeat (alist, report, BER CSV) are also
compared byte for byte with their first verified copy in the run, which is
how ber-q3's two-process and one-process CSVs are compared.
"""

from __future__ import annotations

import collections
import csv
import hashlib
import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import reference


def srg_closed_form(family: str, q: int) -> dict:
    """Size, block/point degrees and srg(v, k, lambda, mu) of the point graph."""
    if family == "hyperbolic":
        v, n = q**4, q**4 * (q * q - 1)
        s, t = q - 1, q * (q * q - 1) - 1
        mu = q * (q - 1) * (q * q - q - 1)
        lam = mu - q * (q - 2)
    elif family == "conic":
        v = n = (q - 1) ** 2
        s = t = q - 3
        mu = (q - 3) * (q - 4)
        lam = mu - (q - 5)
    else:
        raise ValueError(f"unknown family {family!r}")
    return {"v": v, "n": n, "s": s, "t": t, "k": s * (t + 1), "lambda": lam, "mu": mu}


def analysis_expectation(family: str, q: int) -> dict:
    """Every analysis value the report must reproduce for this geometry."""
    from geomcode.gf2 import brouwer_predict
    from geomcode.srpg import spectrum

    p = srg_closed_form(family, q)
    pred = brouwer_predict(spectrum(p["v"], p["k"], p["lambda"], p["mu"], p["s"], p["t"]))
    if pred.kind != "exact":
        raise ValueError(f"{family} q={q}: Brouwer gives only a bound")
    p["rank2_MMT"] = pred.value
    p["six_cycles"] = p["n"] * p["s"] * (p["s"] + 1) * (p["lambda"] - p["s"] + 1) // 6
    return p


def flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Outcome:
    rc: int
    stdout: str
    stderr: str


class Gate:
    """Digests of the first verified copy of each output, for the run, and
    the seconds spent on those first, deep checks."""

    def __init__(self) -> None:
        self.digests: dict[Path, str] = {}
        self.check_seconds = 0.0

    def repeats(self, path: Path, verify: Callable[[], list[str]]) -> list[str]:
        """Run the deep check the first time a path is seen; afterwards
        require the same bytes as that verified copy."""
        if not path.exists():
            return [f"{path.name} was not written"]
        digest = sha256(path)
        if path not in self.digests:
            start = perf_counter()
            errors = verify()
            self.check_seconds += perf_counter() - start
            if not errors:
                self.digests[path] = digest
            return errors
        if digest != self.digests[path]:
            return [f"{path.name} differs from its first verified copy in this run"]
        return []


def check_manifest(out: Path) -> list[str]:
    manifest = Path(f"{out}.manifest.json")
    if not manifest.exists():
        return [f"{manifest.name} was not written"]
    recorded = json.loads(manifest.read_text())["outputs"].get(out.name)
    return [] if recorded == sha256(out) else [f"{manifest.name} records a different SHA-256"]


@dataclass
class Command:
    phase: str                 # construct | analyze | simulate
    argv: list[str]
    check: Callable[["Command", Outcome, Gate], list[str]]

    @property
    def out(self) -> Path:
        return Path(flag(self.argv, "--out"))

    @property
    def threads(self) -> int:
        return int(flag(self.argv, "--threads")) if "--threads" in self.argv else 1

    def single_process(self) -> "Command":
        argv = list(self.argv)
        if "--threads" in argv:
            argv[argv.index("--threads") + 1] = "1"
        return Command(self.phase, argv, self.check)


FOUR_CYCLE_WARNING = "warning: retry cap exceeded, matrix contains 4-cycles\n"


def check_structure(path: Path, rows: int, cols: int, wcol: int, wrow: int,
                    four_cycles: bool) -> list[str]:
    """Shape and uniform weights of an alist, read with the frozen reader,
    and whether it has 4-cycles (two rows sharing two columns)."""
    n, row_lists = reference.read_alist(path)
    if (len(row_lists), n) != (rows, cols):
        return [f"{path.name} is {len(row_lists)}x{n}, expected {rows}x{cols}"]
    errors = []
    row_w = {len(r) for r in row_lists}
    if row_w != {wrow}:
        errors.append(f"{path.name}: row weights {sorted(row_w)}, expected {wrow}")
    col_count = collections.Counter(j for r in row_lists for j in r)
    col_w = {col_count[j] for j in range(n)}
    if col_w != {wcol}:
        errors.append(f"{path.name}: column weights {sorted(col_w)}, expected {wcol}")
    masks = [sum(1 << j for j in r) for r in row_lists]
    has = any((a & b).bit_count() > 1 for a, b in itertools.combinations(masks, 2))
    if has != four_cycles:
        errors.append(f"{path.name} {'has' if has else 'has no'} 4-cycles")
    return errors


class Matrix:
    """A construct or random-code output.  The alist must have the expected
    shape, weights and 4-cycles (the warning on stderr says so exactly when
    it has some), and read back as the matrix the benchmark builds itself
    with the library (once, untimed)."""

    def __init__(self, shape: tuple[int, int, int, int], four_cycles: bool,
                 build: Callable[[], object]) -> None:
        self.shape = shape                 # rows, columns, column weight, row weight
        self.four_cycles = four_cycles
        self.build = build
        self.reference = None

    def __call__(self, cmd: Command, res: Outcome, gate: Gate) -> list[str]:
        if res.rc != 0:
            return [f"exit code {res.rc}: {res.stderr.strip()}"]
        warning = FOUR_CYCLE_WARNING if self.four_cycles else ""
        if res.stderr != warning or not res.stdout.startswith("wrote "):
            return [f"unexpected output {res.stdout!r}, stderr {res.stderr!r}"]

        def verify() -> list[str]:
            from geomcode.alist import read_alist

            errors = check_structure(cmd.out, *self.shape, self.four_cycles)
            if errors:
                return errors
            if self.reference is None:
                self.reference = self.build()
            if read_alist(cmd.out) != self.reference:
                return [f"{cmd.out.name} does not read back as the reference matrix"]
            return []

        return gate.repeats(cmd.out, verify) or check_manifest(cmd.out)


@dataclass
class Analysis:
    family: str
    q: int
    expect: dict

    def __call__(self, cmd: Command, res: Outcome, gate: Gate) -> list[str]:
        if res.rc != 0:
            return [f"exit code {res.rc}: {res.stderr.strip()}"]
        return gate.repeats(cmd.out, lambda: self.verify(cmd.out)) or check_manifest(cmd.out)

    def verify(self, out: Path) -> list[str]:
        r = json.loads(out.read_text())
        e = self.expect
        got = {
            "checks_passed": r.get("checks_passed"),
            "v": r.get("v"), "n": r.get("n"), "s": r.get("s"), "t": r.get("t"),
            "srg": r.get("srg"),
            "rank2_MMT": r.get("rank2_MMT"),
            "rank_prediction": {k: r.get("rank_prediction", {}).get(k) for k in ("kind", "value")},
            "six_cycles": r.get("six_cycles"),
            "girth": r.get("girth"),
        }
        want = {
            "checks_passed": True,
            "v": e["v"], "n": e["n"], "s": e["s"], "t": e["t"],
            "srg": {"k": e["k"], "lambda": e["lambda"], "mu": e["mu"]},
            "rank2_MMT": e["rank2_MMT"],
            "rank_prediction": {"kind": "exact", "value": e["rank2_MMT"]},
            "six_cycles": {"formula": e["six_cycles"], "enumerated": e["six_cycles"]},
            "girth": 6,
        }
        return [f"{self.family} q={self.q}: {key} is {got[key]!r}, expected {want[key]!r}"
                for key in want if got[key] != want[key]]


@dataclass
class Ber:
    grid: tuple[float, ...]
    # points where the noise is strong enough that a working decoder meets
    # the frame-error quota (--min-frame-errors) well before --max-frames
    forced_errors: tuple[float, ...] = ()

    def __call__(self, cmd: Command, res: Outcome, gate: Gate) -> list[str]:
        if res.rc != 0:
            return [f"exit code {res.rc}: {res.stderr.strip()}"]
        return gate.repeats(cmd.out, lambda: self.verify(cmd)) or check_manifest(cmd.out)

    def verify(self, cmd: Command) -> list[str]:
        """The CSV must reach the quota at the forced points and equal, byte
        for byte, the CSV the frozen reference computes."""
        text = cmd.out.read_text()
        seed, max_iters, quota, max_frames = (
            int(flag(cmd.argv, f))
            for f in ("--seed", "--max-iters", "--min-frame-errors", "--max-frames"))
        rows = {r.get("ebn0_db"): r for r in csv.DictReader(io.StringIO(text))}
        errors = []
        for x in self.forced_errors:
            row = rows.get(f"{x:.6g}", {})
            if row.get("frame_errors") != str(quota):
                errors.append(f"{x:g} dB: the noise forces {quota} frame errors, "
                              f"the CSV row is {row}")
        expected = reference.ber_csv(flag(cmd.argv, "--in"), self.grid, seed, max_iters,
                                     quota, max_frames)
        if text != expected:
            got, want = next(
                ((a, b) for a, b in itertools.zip_longest(text.splitlines(), expected.splitlines())
                 if a != b), (text[-20:], expected[-20:]))
            errors.append(f"{cmd.out.name} has {got!r} where the reference decoder gives {want!r}")
        return errors


def check_refusal(cmd: Command, res: Outcome, gate: Gate) -> list[str]:
    """`simulate` on a dimension-0 code must refuse with exit code 2."""
    if res.rc != 2 or "refusing to simulate" not in res.stderr:
        return [f"expected a refusal (exit 2), got exit {res.rc}: {res.stderr.strip()}"]
    if cmd.out.exists():
        return [f"{cmd.out.name} written for a dimension-0 code"]
    return []


def _geometry_shape(family: str, q: int) -> tuple[int, int, int, int]:
    p = srg_closed_form(family, q)
    return p["v"], p["n"], p["s"] + 1, p["t"] + 1


def _hyperbolic(q: int):
    def build():
        from geomcode.constructions import build_hyperbolic_structure
        from geomcode.fields import field_from_string
        return build_hyperbolic_structure(field_from_string(str(q))).matrix
    return Matrix(_geometry_shape("hyperbolic", q), False, build)


def _conic(spec: str, q: int):
    def build():
        from geomcode.constructions import build_conic_structure
        from geomcode.fields import field_from_string
        return build_conic_structure(field_from_string(spec)).matrix
    return Matrix(_geometry_shape("conic", q), False, build)


def _random(rows: int, cols: int, wcol: int, wrow: int, seed: int):
    def build():
        from geomcode.sim import random_regular_h
        return random_regular_h(rows, cols, wcol, wrow, seed).h
    # Two rows of different bands share wrow*wrow/cols columns on average
    # (0.89 at 81x648, (3,24)), so a band permutation without a pair sharing
    # two is out of reach of the retries: the matrix has 4-cycles.
    return Matrix((rows, cols, wcol, wrow), True, build)


def paper_q5(work: Path, seed: int) -> list[Command]:
    h5, report, ber = work / "H5.alist", work / "H5.json", work / "H5.csv"
    return [
        Command("construct", ["construct", "--family", "hyperbolic", "--field", "5",
                              "--out", str(h5)], _hyperbolic(5)),
        Command("analyze", ["analyze", "--family", "hyperbolic", "--field", "5",
                            "--out", str(report)],
                Analysis("hyperbolic", 5, analysis_expectation("hyperbolic", 5))),
        # Above the waterfall, so that the decoder's work hardly depends on the
        # seed: at 5 dB the iterations of 40 frames ranged from 543 to 857
        # over twelve seeds, at 5.5-6.5 dB every frame converges.
        Command("simulate", ["simulate", "--in", str(h5), "--ebno", "5.5:0.5:6.5",
                             "--max-iters", "50", "--min-frame-errors", "20",
                             "--max-frames", "40", "--threads", "1", "--seed", str(seed),
                             "--out", str(ber)], Ber((5.5, 6.0, 6.5))),
    ]


def conic_ext(work: Path, seed: int) -> list[Command]:
    cmds = []
    for spec, q in (("5^2", 25), ("3^3", 27)):
        alist, report = work / f"C{q}.alist", work / f"C{q}.json"
        cmds += [
            Command("construct", ["construct", "--family", "conic", "--field", spec,
                                  "--out", str(alist)], _conic(spec, q)),
            Command("analyze", ["analyze", "--in", str(alist), "--out", str(report)],
                    Analysis("conic", q, analysis_expectation("conic", q))),
            # the codes have dimension 0: the user-visible outcome is the refusal
            Command("simulate", ["simulate", "--in", str(alist), "--ebno", "3",
                                 "--seed", str(seed), "--out", str(work / f"C{q}.csv")],
                    check_refusal),
        ]
    return cmds


def ber_q3(work: Path, seed: int) -> list[Command]:
    h3, rnd = work / "H3.alist", work / "R.alist"
    cmds = [
        Command("construct", ["construct", "--family", "hyperbolic", "--field", "3",
                              "--out", str(h3)], _hyperbolic(3)),
        Command("construct", ["random-code", "--rows", "81", "--cols", "648", "--wcol", "3",
                              "--wrow", "24", "--seed", str(seed), "--out", str(rnd)],
                _random(81, 648, 3, 24, seed)),
        Command("analyze", ["analyze", "--in", str(h3), "--out", str(work / "H3.json")],
                Analysis("hyperbolic", 3, analysis_expectation("hyperbolic", 3))),
    ]
    for alist in (h3, rnd):
        cmds.append(Command(
            "simulate", ["simulate", "--in", str(alist), "--ebno", "3:0.5:5",
                         "--max-iters", "100", "--min-frame-errors", "100",
                         "--max-frames", "600", "--threads", "2", "--seed", str(seed),
                         "--out", str(alist.with_suffix(".csv"))],
            Ber((3.0, 3.5, 4.0, 4.5, 5.0), forced_errors=(3.0,))))
    return cmds


WORKLOADS: dict[str, Callable[[Path, int], list[Command]]] = {
    "paper-q5": paper_q5,
    "conic-ext": conic_ext,
    "ber-q3": ber_q3,
}
