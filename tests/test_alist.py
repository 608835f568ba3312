import re
import tracemalloc

import numpy as np
import pytest

import oracles
from geomcode import alist, constructions
from geomcode.alist import read_alist, write_alist
from geomcode.cli import main
from geomcode.constructions import build_conic_structure
from geomcode.fields import Field, field_from_string
from geomcode.gf2 import BinaryMatrix
from geomcode.sim import random_regular_h
from oracles import matrix


def test_roundtrip_conic(tmp_path, conic5):
    path = tmp_path / "c5.alist"
    write_alist(conic5.matrix, path)
    assert read_alist(path) == conic5.matrix


def test_roundtrip_hyperbolic(tmp_path, hyp3):
    path = tmp_path / "h3.alist"
    write_alist(hyp3.matrix, path)
    assert read_alist(path) == hyp3.matrix


def test_roundtrip_random_code(tmp_path):
    code = random_regular_h(81, 648, 3, 24, seed=3)
    path = tmp_path / "r.alist"
    write_alist(code.h, path)
    assert read_alist(path) == code.h


def test_roundtrip_remaining_constructions(tmp_path, conic7, conic9, hyp5):
    for name, m in (("c7", conic7.matrix), ("c9", conic9.matrix), ("h5", hyp5.matrix),
                    ("c27", build_conic_structure(Field(3, 3)).matrix),
                    ("c49", build_conic_structure(Field(7, 2)).matrix)):
        path = tmp_path / f"{name}.alist"
        write_alist(m, path)
        assert read_alist(path) == m


def test_header_layout(tmp_path):
    h = matrix([[1, 1, 0], [0, 1, 1]])
    path = tmp_path / "t.alist"
    write_alist(h, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "3 2"          # n m
    assert lines[1] == "2 2"          # max col weight, max row weight
    assert lines[2] == "1 2 1"        # column weights
    assert lines[3] == "2 2"          # row weights
    assert lines[4] == "1"            # column 1: row indices (1-based)
    assert lines[5] == "1 2"
    assert lines[6] == "2"
    assert lines[7] == "1 2"          # row 1: column indices
    assert lines[8] == "2 3"


def test_reader_accepts_zero_padding(tmp_path):
    padded = "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2\n2 3\n"
    path = tmp_path / "p.alist"
    path.write_text(padded)
    assert read_alist(path) == matrix([[1, 1, 0], [0, 1, 1]])


def test_reader_rejects_inconsistent_sections(tmp_path):
    bad = "3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n1 3\n"  # row section disagrees
    path = tmp_path / "bad.alist"
    path.write_text(bad)
    with pytest.raises(ValueError, match="disagrees"):
        read_alist(path)


def test_reader_rejects_wrong_weight(tmp_path):
    bad = "3 2\n2 2\n2 2 1\n2 2\n1\n1 2\n2\n1 2\n2 3\n"
    path = tmp_path / "bad2.alist"
    path.write_text(bad)
    with pytest.raises(ValueError, match="column 0"):
        read_alist(path)


def test_reader_rejects_repeated_index(tmp_path):
    # column 0 lists row 1 twice, so its declared weight 2 would parse as 1
    path = tmp_path / "dup.alist"
    path.write_text("3 2\n2 2\n2 2 1\n2 2\n1 1\n1 2\n2\n1 2\n2 3\n")
    with pytest.raises(ValueError, match="column 0 lists an index more than once"):
        read_alist(path)
    path.write_text("3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 1\n2 3\n")
    with pytest.raises(ValueError, match="row 0 lists an index more than once"):
        read_alist(path)


def test_reader_rejects_wrong_maximum_weights(tmp_path):
    path = tmp_path / "max.alist"
    path.write_text("3 2\n9 9\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n2 3\n")
    with pytest.raises(ValueError, match="line 2"):
        read_alist(path)


def test_reader_rejects_wrong_row_weight(tmp_path):
    # line 4 declares row 0 with weight 5, the row line lists 2 entries
    path = tmp_path / "roww.alist"
    path.write_text("3 2\n2 5\n1 2 1\n5 2\n1\n1 2\n2\n1 2\n2 3\n")
    with pytest.raises(ValueError, match="row 0 lists 2 indices, declared 5"):
        read_alist(path)


@pytest.mark.parametrize("first", ["3 2 7", "3"])
def test_reader_names_file_on_malformed_header(tmp_path, first):
    path = tmp_path / "bad4.alist"
    path.write_text(f"{first}\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n2 3\n")
    with pytest.raises(ValueError, match=r"bad4\.alist: the first line must hold n and m"):
        read_alist(path)


def test_reader_names_file_and_line_on_non_integer_token(tmp_path):
    path = tmp_path / "bad5.alist"
    path.write_text("3 2\n2 2\n1 2 1\n2 2\n1\n1 x\n2\n1 2\n2 3\n")
    with pytest.raises(ValueError, match=r"bad5\.alist: line 6: .*'x'"):
        read_alist(path)


def test_reader_rejects_truncated(tmp_path):
    path = tmp_path / "bad3.alist"
    path.write_text("3 2\n2 2\n")
    with pytest.raises(ValueError):
        read_alist(path)


def _random_matrices(seed, count=300, max_rows=12, max_cols=15):
    """Seeded random 0/1 matrices of every density, about half of them with
    an emptied row and half with an emptied column."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = rng.random((rng.integers(1, max_rows + 1), rng.integers(1, max_cols + 1)))
        d = d < rng.random()
        if rng.random() < 0.5:
            d[rng.integers(d.shape[0])] = False
        if rng.random() < 0.5:
            d[:, rng.integers(d.shape[1])] = False
        yield matrix(d)


def _assert_written_alike(h, tmp_path):
    write_alist(h, tmp_path / "new.alist")
    oracles.write_alist(h, tmp_path / "old.alist")
    assert (tmp_path / "new.alist").read_bytes() == (tmp_path / "old.alist").read_bytes()


def test_writer_matches_per_line_writer_on_random_matrices(tmp_path):
    for h in _random_matrices(seed=11):
        _assert_written_alike(h, tmp_path)


def test_writer_matches_per_line_writer_on_wide_and_random_codes(tmp_path):
    _assert_written_alike(random_regular_h(81, 648, 3, 24, seed=7).h, tmp_path)
    # indices of one to six digits, and empty columns among them
    _assert_written_alike(matrix(np.arange(123_457)[None, :] % 997 == 5), tmp_path)


@pytest.mark.parametrize("shape", [(1, 9), (1, 10), (1, 99), (1, 100), (10, 1), (1, 9_999),
                                   (1, 10_000), (3, 100_000)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_writer_matches_per_line_writer_at_digit_boundaries(tmp_path, shape):
    # max(n, m) below and at each digit boundary; the row lines of 3 x 100,000
    # hold indices of one to six digits
    rng = np.random.default_rng(shape[0] * shape[1])
    for density in (0.3, 1.0):
        _assert_written_alike(matrix(rng.random(shape) < density), tmp_path)
    _assert_written_alike(matrix(np.zeros(shape, dtype=bool)), tmp_path)
    lines = (tmp_path / "new.alist").read_text().splitlines()
    assert lines[1] == "0 0" and lines[4:] == ["0"] * sum(shape)  # every index line a single 0


def test_writer_peak_stays_under_its_charge(tmp_path, monkeypatch):
    # fresh matrices, so the trace includes the column order the writer
    # forms; measured peaks per charged token: 25.7 (hyperbolic q=5), 24.5
    # (conic 3^3) and 27.8 (one column of 300,000 ones), charged 42, 36 and 45;
    # the small ones need the fixed 8 KiB: conic q=5 peaked at up to 9,666
    # bytes, conic q=3 at 7,271, 1 x 1 at 7,107 and the zero 3 x 3 at 7,259,
    # with token charges of 5,412, 840, 300 and 480
    charged, column = [], np.arange(300_000)
    monkeypatch.setattr(alist, "refuse_peak", lambda peak, what: charged.append(peak))
    for h in (constructions.build_hyperbolic_structure(field_from_string("5")).matrix,
              constructions.build_conic_structure(field_from_string("3^3")).matrix,
              BinaryMatrix(column, np.zeros_like(column), (300_000, 1)),
              constructions.build_conic_structure(field_from_string("5")).matrix,
              constructions.build_conic_structure(field_from_string("3")).matrix,
              BinaryMatrix([0], [0], (1, 1)), BinaryMatrix([], [], (3, 3))):
        tracemalloc.start()
        try:
            write_alist(h, tmp_path / "h.alist")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= charged[-1]


def _lines(text):
    return text.split("\n")[:-1]


def _zero_pad(text, rng):
    lines = _lines(text)
    k = rng.integers(4, len(lines))
    tokens = lines[k].split()
    tokens.insert(rng.integers(len(tokens) + 1), "0")
    i = rng.integers(len(tokens))
    tokens[i] = "00" + tokens[i]
    lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _blank_lines(text, rng):
    lines = _lines(text)
    for _ in range(3):
        lines.insert(rng.integers(len(lines) + 1), " " * int(rng.integers(3)))
    return "\n".join(lines) + "\n"


def _edit_index_line(text, rng, edit):
    lines = _lines(text)
    n, m = map(int, lines[0].split())
    k = rng.choice([k for k in range(4, len(lines)) if lines[k].strip()])
    tokens = lines[k].split()
    edit(tokens, m if k < 4 + n else n)
    lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _drop_index(tokens, limit, rng):
    del tokens[rng.integers(len(tokens))]


def _repeat_index(tokens, limit, rng):
    if len(tokens) > 1:  # in place of another index, so that the count still holds
        i, j = rng.choice(len(tokens), size=2, replace=False)
        tokens[i] = tokens[j]
    else:
        tokens.append(tokens[0])


def _index_out_of_range(tokens, limit, rng):
    for i in rng.choice(len(tokens), size=min(len(tokens), 2), replace=False):
        tokens[i] = str(limit + 1 + rng.integers(3) * rng.integers(10**12))


def _swap_row_lines(text, rng):
    """Swap a row line with another of the same length, if there is one."""
    lines = _lines(text)
    rows = range(len(lines) - int(lines[0].split()[1]), len(lines))
    i = rng.choice(rows)
    j = rng.choice([j for j in rows if len(lines[j]) == len(lines[i]) and j != i] or [i])
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


def _wrong_line_2(text, rng):
    lines = _lines(text)
    lines[1] = " ".join(str(max(0, int(v) + int(rng.integers(-1, 2)))) for v in lines[1].split())
    return "\n".join(lines) + "\n"


# in the order they are applied: edits of the lines, then of the layout
MUTATIONS = [
    lambda text, rng: _edit_index_line(text, rng, lambda t, lim: _drop_index(t, lim, rng)),
    lambda text, rng: _edit_index_line(text, rng, lambda t, lim: _repeat_index(t, lim, rng)),
    lambda text, rng: _edit_index_line(text, rng,
                                       lambda t, lim: _index_out_of_range(t, lim, rng)),
    _swap_row_lines,
    _wrong_line_2,
    _zero_pad,
    _blank_lines,
    lambda text, rng: text.replace("\n", "\r\n"),
    lambda text, rng: text.replace(" ", "\t"),
    lambda text, rng: text.rstrip("\r\n"),
    lambda text, rng: text[:rng.integers(len(text))],
]


def test_reader_matches_per_line_reader_on_mutated_files(tmp_path):
    """Each valid file gets one to three seeded mutations; both readers must
    return the same matrix, or raise the same ValueError naming the file."""
    rng = np.random.default_rng(5)
    path = tmp_path / "mut.alist"
    outcomes = {"read": 0, "raised": 0}
    for h in _random_matrices(seed=12):
        oracles.write_alist(h, path)
        text = path.read_text()
        for k in sorted(rng.choice(len(MUTATIONS), size=rng.integers(1, 4))):
            text = MUTATIONS[k](text, rng)
        path.write_bytes(text.encode("ascii"))
        try:
            expected = oracles.read_alist(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                read_alist(path)
            assert str(got.value) == str(exc) and str(path) in str(exc)
            outcomes["raised"] += 1
        else:
            assert read_alist(path) == expected
            outcomes["read"] += 1
    assert min(outcomes.values()) > 50, outcomes


@pytest.mark.parametrize("token", ["é", "\u0663", "+2", "1_0"])
def test_reader_names_file_and_line_on_a_byte_outside_digits_and_whitespace(tmp_path, token):
    # non-ASCII bytes (the Arabic-Indic three is a digit to int()), and a sign and
    # an underscore, which int() accepts, all fail with the file and the line
    path = tmp_path / "bad6.alist"
    path.write_bytes(f"3 2\n2 2\n1 2 1\n2 2\n1\n1 {token}\n2\n1 2\n2 3\n".encode("utf-8"))
    with pytest.raises(ValueError, match=rf"bad6\.alist: line 6: .*'{re.escape(token)}'"):
        read_alist(path)


def test_cli_names_file_and_line_on_non_ascii_byte(tmp_path, capsys):
    path = tmp_path / "bad7.alist"
    path.write_bytes("3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n2 é\n".encode("utf-8"))
    assert main(["analyze", "--in", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert f"error: {path}: line 9: " in capsys.readouterr().err


def test_reader_never_wraps_a_long_index(tmp_path):
    path = tmp_path / "long.alist"
    text = "3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n2 {}\n"
    # 2**64 + 3 would read as 3 after an int64 wraparound; 10**22 + 3 has 23 digits
    for token in (str(2**64 + 3), str(10**22 + 3)):
        path.write_text(text.format(token))
        with pytest.raises(ValueError,
                           match=r"long\.alist: line 9: not an unsigned integer below 10\^18"):
            read_alist(path)
    # leading zeros do not count: 23 digits that read as 3
    path.write_text(text.format("3".zfill(23)))
    assert read_alist(path) == matrix([[1, 1, 0], [0, 1, 1]])


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_reader_counts_crlf_and_cr_as_one_line_break(tmp_path, newline):
    path = tmp_path / "nl.alist"
    lines = ["3 2", "2 2", "1 2 1", "2 2", "1", "1 2", "2", "1 2", "2 3"]
    path.write_bytes(newline.join(lines).encode())
    assert read_alist(path) == matrix([[1, 1, 0], [0, 1, 1]])
    lines[5] = "1 x"
    path.write_bytes(newline.join(lines).encode())
    with pytest.raises(ValueError, match=r"nl\.alist: line 6: .*'x'"):
        read_alist(path)


def _physical_memory(monkeypatch, nbytes):
    monkeypatch.setattr(constructions.os, "sysconf",
                        lambda name: nbytes if name == "SC_PHYS_PAGES" else 1)


def test_reader_refused_before_the_file_is_read(tmp_path, monkeypatch, capsys):
    # 4,096 bytes of physical memory: a 24-byte alist fits READ_PEAK_PER_BYTE
    # (30) times over, a 142-byte one does not and is refused before it is read
    small, large = tmp_path / "small.alist", tmp_path / "large.alist"
    small.write_text("2 2\n1 1\n1 1\n1 1\n1\n2\n1\n2\n")
    write_alist(matrix(np.eye(15, dtype=int)), large)
    assert (len(small.read_bytes()), len(large.read_bytes())) == (24, 142)
    assert alist.READ_PEAK_PER_BYTE * 24 <= 4096 < alist.READ_PEAK_PER_BYTE * 142
    _physical_memory(monkeypatch, 4096)
    assert read_alist(small) == matrix(np.eye(2, dtype=int))

    def unread(path):
        raise AssertionError("read_bytes called")

    monkeypatch.setattr(alist.Path, "read_bytes", unread)
    with pytest.raises(ValueError, match=f"^reading the 142-byte alist {re.escape(str(large))} "
                                         "needs about 0.0 GiB, more than the 0.0 GiB"):
        read_alist(large)
    out = tmp_path / "large.json"
    assert main(["analyze", "--in", str(large), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: reading the 142-byte alist ")
    assert not out.exists()


def test_writer_refused_before_its_first_array(tmp_path, monkeypatch, capsys):
    # conic q=5 with 5,300 bytes of physical memory: its build, charged 81 x 4^3
    # = 5,184 bytes, fits; its write, 8 KiB plus at most 164 tokens charged
    # 24 + 3 x 3 bytes each (two digits and a separator), 13,604 in all, does
    # not, so construct exits 2 and writes nothing
    _physical_memory(monkeypatch, 5300)
    out = tmp_path / "c5.alist"
    assert main(["construct", "--family", "conic", "--field", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: writing the 16 x 16 matrix as alist needs about "
                                       "0.0 GiB, more than the 0.0 GiB of physical memory\n")
    assert not out.exists() and not (tmp_path / "c5.alist.manifest.json").exists()
