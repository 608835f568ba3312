import pytest

from geomcode.alist import read_alist, write_alist
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


def test_roundtrip_remaining_constructions(tmp_path, conic7, conic9):
    for name, ic in (("c7", conic7), ("c9", conic9)):
        path = tmp_path / f"{name}.alist"
        write_alist(ic.matrix, path)
        assert read_alist(path) == ic.matrix


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
