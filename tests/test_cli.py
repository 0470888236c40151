import json
import math

import numpy as np
import pytest

from lamlab.algebra import bc_to_matrix
from lamlab.cli import fmt, main
from lamlab.energy import SlipSystem, slip_state, w_hom, w_hom_arrays
from lamlab.errors import BranchDisagreement, DomainError
from lamlab.regions import region_map

ORTHO_E1E2 = {"slip": {"v1": [1.0, 0.0], "v2": [0.0, 1.0]}, "lambda": 0.5}


@pytest.fixture()
def e1e2_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(ORTHO_E1E2))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_fmt():
    assert fmt(None) == ""
    assert fmt(math.inf) == "inf"
    assert fmt(1.0) == "1"
    assert fmt(1 / 3) == "0.33333333333333331"


def test_classify_bc_origin(capsys):
    code, out = run(capsys, ["classify", "--bc", "0,0"])
    assert code == 0
    data = json.loads(out)
    assert data["region"] == "SO2"
    assert data["whom"] == 0.0


def test_classify_matrix_with_config(capsys, e1e2_config):
    code, out = run(capsys, ["--config", e1e2_config, "classify",
                             "--matrix", "2,0,0,0.5"])
    assert code == 0
    data = json.loads(out)
    assert data["region"] == "N2only"
    assert data["whom"] == pytest.approx(3.0)


def test_classify_off_manifold_exit_code(capsys):
    code, out = run(capsys, ["classify", "--matrix", "1,0,0,2"])
    assert code == 3
    assert json.loads(out)["region"] == "OffManifold"


@pytest.mark.parametrize("theta", ("0.7853981633974483", "0.9424777960769379"))
@pytest.mark.parametrize("matrix", ("1e160,0,0,1e-160", "1e200,0,0,1e-200"))
def test_overflowing_matrix_exit_code(capsys, theta, matrix):
    # det is exactly 1, but |F|^2 overflows: off the manifold, not a finite answer
    code, out = run(capsys, ["--theta", theta, "classify", "--matrix", matrix])
    assert code == 3
    data = json.loads(out)
    assert data["region"] == "OffManifold" and "whom" not in data
    assert main(["--theta", theta, "laminate", "--matrix", matrix]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: target |F|^2 overflows\n"


def test_branch_disagreement_on_the_grid_the_scalar_api_and_the_cli(tmp_path, capsys):
    # at tol 1e-1 the boundary bands are wide enough for two branches to differ
    s = SlipSystem.from_theta(0.45 * math.pi, 0.5)
    message = ("closed-form branches disagree near a region boundary: "
               "[53.33189095961308, 130.0504171033021]")
    with pytest.raises(BranchDisagreement) as raised:
        region_map(s, 3.0, 61, 1e-1)
    assert str(raised.value) == message
    grid = region_map(s, 3.0, 61, 1e-2)  # the same cells at a tolerance that passes
    failing = []
    for b, c in zip(grid.b.tolist(), grid.c.tolist()):
        try:
            w_hom(bc_to_matrix(b, c), s, 1e-1)
        except BranchDisagreement as exc:
            failing.append((b, c, str(exc)))
    assert len(failing) == 8
    assert failing[0] == (-2.9508196721311477, -2.557377049180328, message)
    code = main(["--theta", repr(0.45 * math.pi), "--tol", "1e-1", "--range", "3", "--n", "61",
                 "regionmap", "--out", str(tmp_path / "map.csv")])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_overflowing_envelope_value_exit_code(capsys):
    # |F|^2 = 1e308 is finite, but h_perp(|F v3_perp|) at 0.45 pi overflows
    theta = 0.45 * math.pi
    assert main(["--theta", repr(theta), "classify", "--matrix", "1e154,0,0,1e-154"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: closed-form envelope value overflows\n"
    s = SlipSystem.from_theta(theta, 0.5)
    with pytest.raises(DomainError, match="overflows"):
        w_hom(np.diag([1e154, 1e-154]), s)
    fs = np.stack([np.eye(2), np.diag([1e154, 1e-154])])
    st = slip_state(fs[:, 0, 0], fs[:, 0, 1], fs[:, 1, 0], fs[:, 1, 1], s)
    with pytest.raises(DomainError, match="overflows"):
        w_hom_arrays(st, s)


def test_classify_usage_errors(capsys):
    assert main(["classify"]) == 2
    assert main(["classify", "--matrix", "1,2,3"]) == 2
    assert main(["classify", "--matrix", "1,0,0,1", "--bc", "0,0"]) == 2


def test_non_finite_input_is_usage_error(tmp_path, capsys):
    sweep = ["homogenize", "--gamma-bands", "0.4:1", "--eps-list", "1/4",
             "--out", str(tmp_path / "sweep.csv")]
    for argv in (["classify", "--matrix", "nan,0,0,1"],
                 ["classify", "--matrix", "1,0,0,inf"],
                 ["classify", "--bc=-inf,0"],
                 ["laminate", "--bc", "0,nan"],
                 ["classify", "--bc", "1/0,0"],
                 [*sweep, "--hlam", "nan"],
                 [*sweep, "--hlam", "inf"]):
        assert main(argv) == 2, argv
    assert capsys.readouterr().out == ""


def test_laminate_roundtrip(capsys):
    code, out = run(capsys, ["laminate", "--bc", "0.8,0.3"])
    assert code == 0
    data = json.loads(out)
    f_plus = np.array(data["f_plus"])
    f_minus = np.array(data["f_minus"])
    mu = data["mu"]
    assert data["residuals"]["convex_combination"] <= 1e-10
    assert np.linalg.matrix_rank(f_plus - f_minus, tol=1e-8) <= 1
    assert 0.0 <= mu <= 1.0


def test_laminate_large_b(capsys):
    for argv in (["--theta", "0.9", "laminate", "--bc", "1e5,0.1"],
                 ["laminate", "--bc", "1e6,0.1"]):
        code, out = run(capsys, argv)
        assert code == 0
        residuals = json.loads(out)["residuals"]
        assert residuals["convex_combination"] <= 1e-10
        assert residuals["manifold"] <= 1e-9


def test_general_bounds_json(capsys):
    # theta = 0.3 pi, a compressed single-slip cell has two-sided bounds
    code, out = run(capsys, ["--theta", str(0.3 * math.pi), "classify",
                             "--bc", "0.4,0.0"])
    assert code == 0
    data = json.loads(out)
    if "bounds" in data:
        assert data["bounds"]["lower"] <= data["bounds"]["upper"]


def test_regionmap_csv(tmp_path, capsys):
    out = tmp_path / "rm.csv"
    assert main(["--n", "9", "--range", "2", "regionmap", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "b,c,region,boundary,whom,lower,upper"
    assert len(lines) == 1 + 81


def test_hplot_csv(tmp_path):
    out = tmp_path / "hp.csv"
    theta = math.pi / 3
    assert main(["--theta", str(theta), "hplot", "--zmax", "2", "--samples", "9",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "z,h,h_star,h_perp,h_perp_star"
    # below the domain floor the starred columns are empty
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == "" and first[4] == ""


def test_whomgamma_csv(tmp_path):
    out = tmp_path / "wg.csv"
    assert main(["whomgamma", "--gamma-range=-1:1:5", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    vals = {float(g): float(w) for g, w in rows}
    assert vals[0.0] == 0.0
    assert vals[1.0] == vals[-1.0]  # even in gamma for this symmetric frame


def test_homogenize_csv(tmp_path):
    out = tmp_path / "hom.csv"
    assert main(["homogenize", "--gamma-bands", "0.4:1", "--eps-list", "1/4,1/8",
                 "--hlam", "0.25", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,hlam,e_eps,target,rel_error,flagged_area"
    assert len(lines) == 3


def test_homogenize_band_limit(tmp_path, capsys):
    # 16,400 bands overflow the int16 label grid (band k writes label 2k + 2);
    # the option is too long for a command line, so main runs in-process
    n = 16399
    bands = ",".join(f"0.4:{(k + 1) / (4 * (n + 1))!r}" for k in range(n)) + ",0.4:1"
    out = tmp_path / "sweep.csv"
    code = main(["homogenize", f"--gamma-bands={bands}", "--eps-list", "1/4",
                 "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: 16400 bands")
    assert not out.exists()


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--n", "9", "--range", "2", "verify-envelope"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bad_config_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "classify", "--bc", "0,0"]) == 2
    missing = tmp_path / "missing.json"
    assert main(["--config", str(missing), "classify", "--bc", "0,0"]) == 2
    out = str(tmp_path / "scan.csv")
    for flags in (["--lambda", "1.5"], ["--n", "0"], ["--range", "-1"], ["--n-dirs", "4"],
                  ["--tol", "0"], ["--theta", "nan"]):
        assert main(["--n", "3", *flags, "verify-envelope", "--out", out]) == 2, flags
    sweep = ["homogenize", "--gamma-bands", "0.4:1", "--out", str(tmp_path / "sweep.csv")]
    for flags in (["--eps-list", "0"], ["--eps-list", "1/8,-1/8"],
                  ["--eps-list", "1/4", "--hlam", "0"], ["--eps-list", "1/4", "--hlam", "-1"],
                  ["--eps-list", "1/4", "--cells-per-feature", "0"],
                  ["--eps-list", "1/4", "--cells-per-feature", "3"]):
        assert main([*sweep, *flags]) == 2, flags
