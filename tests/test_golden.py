"""Byte-identity of the CLI's deterministic outputs.

Each output is pinned by its SHA-256.  Manifests are not pinned because
they record the paths the command was given.  A digest changes only when
an output format or a computed value changes, and such a change is
recorded in CHANGES.md with its reason.
"""

import hashlib
import sys

import pytest

import geomcode
from geomcode import constructions
from geomcode.cli import main

RANDOM_CODE = ["random-code", "--rows", "81", "--cols", "648", "--wcol", "3", "--wrow", "24",
               "--seed", "7", "--out", "r.alist"]
SIMULATE = ["simulate", "--in", "h3.alist", "--ebno", "2:1:4", "--max-iters", "50",
            "--min-frame-errors", "10", "--max-frames", "50", "--seed", "1", "--threads", "1",
            "--out", "ber.csv"]

# (argv, expected exit status, output file, SHA-256 of the output)
GOLDEN = [
    (["construct", "--family", "hyperbolic", "--field", "3", "--out", "h3.alist"], 0, "h3.alist",
     "ecc22a6c6a389ebfb3e8ba84e3ad8d794c77181735db8e147cf7b2e014cf02ce"),
    (["analyze", "--family", "hyperbolic", "--field", "3", "--out", "h3.json"], 0, "h3.json",
     "e1de6b217d5b61bba83b87eb6b7705d7b1cc306d2bfdfa8320ec29b8146b90cf"),
    (["construct", "--family", "conic", "--field", "5", "--out", "c5.alist"], 0, "c5.alist",
     "99389ed3db44353fad510c44b52e98d4413afdce2a0577a116e389c5aa95862a"),
    (["analyze", "--family", "conic", "--field", "5", "--out", "c5.json"], 0, "c5.json",
     "f323e594e65f8652819c906a4087f3a0f6367a11a14393cee232e38a738a1430"),
    (["construct", "--family", "conic", "--field", "7", "--out", "c7.alist"], 0, "c7.alist",
     "f7e0f7d6633c7d4c41a341118cda364074086aeda75c14a6a98f49077117861b"),
    (["analyze", "--family", "conic", "--field", "7", "--out", "c7.json"], 0, "c7.json",
     "20d4f8b02b4fd1baaab1c7ca67577e7920b3ef0499c4c71264e94a29fc2b9d92"),
    (["construct", "--family", "conic", "--field", "3^2", "--out", "c9.alist"], 0, "c9.alist",
     "bd87ddfd4b792130c8f29deca8ca93688ace99a052f62ab6ab42acf74833c420"),
    (["analyze", "--family", "conic", "--field", "3^2", "--out", "c9.json"], 0, "c9.json",
     "1130bb87dd28cddcfd315168f147c5e6929664b64fea07fe0125bfc9c4162a68"),
    # the benchmark's analyses: hyperbolic q=5 (paper-q5) and conic 5^2 (conic-ext)
    (["analyze", "--family", "hyperbolic", "--field", "5", "--out", "h5.json"], 0, "h5.json",
     "6e43f49a8d24df0dab466d214de64cd696d375b1a5f7268c8a99f8c146fdf76f"),
    (["analyze", "--family", "conic", "--field", "5^2", "--out", "c25.json"], 0, "c25.json",
     "5812d7edf7111e45a3a59647cd7350be5c40f03b105e413682a33c81e1ca1f4f"),
    # the benchmark's alists: hyperbolic q=5 (625 x 15,000) and conic 3^3 (676 x 676)
    (["construct", "--family", "hyperbolic", "--field", "5", "--out", "h5.alist"], 0, "h5.alist",
     "060af2f84814153cb98a68f5b8b81ce5a34c6de255bf0077dd14974ccaa2caca"),
    (["construct", "--family", "conic", "--field", "3^3", "--out", "c27.alist"], 0, "c27.alist",
     "2e56768cac4f7937275b44246b229e08db1c9ebb1c375d42f22d20f8043fc5b2"),
    (RANDOM_CODE, 0, "r.alist",
     "44a7a1d420804d4417348299892e1d2e5bcafa8a818dae93887a9414f36d14d5"),
    # axiom (i) fails on the random code (witness (0, 27)), so analyze exits 1
    (["analyze", "--in", "r.alist", "--out", "r.json"], 1, "r.json",
     "2658a7c1d2554cc5fb215c9cd891ff3e874ff687e2e005f26891afec7c7fcd46"),
    (SIMULATE, 0, "ber.csv",
     "3028389544f1e32d59b820194ed42d6a69d9042bf7103283d10c613003be50d7"),
    # point and block labels, in matrix row and column order
    (["construct", "--family", "hyperbolic", "--field", "3", "--out", "h3l.alist",
      "--labels", "h3.labels.json"], 0, "h3.labels.json",
     "49633c3a885803b55a6513464f5dbb740f9653472d31bfcf496cd1b0ce38c597"),
    (["construct", "--family", "conic", "--field", "3^2", "--out", "c9l.alist",
      "--labels", "c9.labels.json"], 0, "c9.labels.json",
     "aae93cc69c874a0dcd1733bee9db120f504d1c311a6c1274fab85b7e63c3240d"),
    # at benchmark size, and over a modulus given on the command line; the
    # labels are element codes, so they match the built-in modulus's
    (["construct", "--family", "hyperbolic", "--field", "5", "--out", "h5l.alist",
      "--labels", "h5.labels.json"], 0, "h5.labels.json",
     "6c094af7e81760143ae4065724e3948eeab6962f58ca489b50dd101338d7dcd2"),
    (["construct", "--family", "conic", "--field", "3^2", "--modulus", "2,2,1",
      "--out", "c9ml.alist", "--labels", "c9m.labels.json"], 0, "c9m.labels.json",
     "aae93cc69c874a0dcd1733bee9db120f504d1c311a6c1274fab85b7e63c3240d"),
]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every golden command in order in one directory; later commands
    read the files earlier ones wrote."""
    work = tmp_path_factory.mktemp("golden")
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        for argv, _, out, _ in GOLDEN:
            status = main(argv)
            results[out] = (status, hashlib.sha256((work / out).read_bytes()).hexdigest())
    return results


@pytest.mark.parametrize("argv,status,out,digest", GOLDEN, ids=[g[2] for g in GOLDEN])
def test_golden_output(outputs, argv, status, out, digest):
    assert outputs[out] == (status, digest)


def test_only_labels_form_labels(tmp_path, monkeypatch):
    """With the label functions made to raise, every golden construct and
    analyze --family without --labels still writes its pinned bytes, and
    construct --labels reaches them."""
    def refuse(field):
        raise AssertionError(f"labels formed over GF({field.q})")

    monkeypatch.setattr(constructions, "conic_labels", refuse)
    monkeypatch.setattr(constructions, "hyperbolic_labels", refuse)
    monkeypatch.chdir(tmp_path)
    built = [g for g in GOLDEN if "--family" in g[0] and "--labels" not in g[0]]
    assert {(argv[0], argv[argv.index("--family") + 1]) for argv, *_ in built} == {
        (cmd, family) for cmd in ("construct", "analyze") for family in ("conic", "hyperbolic")}
    for argv, status, out, digest in built:
        assert main(argv) == status
        assert hashlib.sha256((tmp_path / out).read_bytes()).hexdigest() == digest, out
    for argv, *_ in GOLDEN:
        if "--labels" in argv:
            with pytest.raises(AssertionError, match="labels formed"):
                main(argv)


# The package exports the pipeline only; the scalar reference geometry
# lives in tests/oracles.py.
PUBLIC_API = [
    "AxiomViolation", "BinaryMatrix", "ChannelConfig",
    "ConicLabel", "CycleReport", "DegenerateStructure", "DistanceBounds",
    "FeasibilityReport", "Field", "HyperbolicLabel", "IncidenceStructure", "LdpcCode",
    "PointStats", "RankPrediction", "SrgSpectrum", "SrpgParams", "SumProductDecoder",
    "awgn_llrs", "brouwer_predict", "build_conic_structure",
    "build_hyperbolic_structure", "check_gpg_axioms", "check_strongly_regular",
    "feasibility_check", "field_from_string", "noise_sigma", "random_regular_h", "rank2",
    "simulate_point", "six_cycles", "spectrum", "tanner_bounds", "tanner_girth",
    "wilson_interval",
]


def test_public_api_pinned():
    assert sorted(geomcode.__all__) == PUBLIC_API
    assert "geomcode.projective" not in sys.modules
