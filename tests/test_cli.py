import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lamlab
from lamlab import cli
from lamlab.algebra import bc_to_matrix
from lamlab.cli import (_GROUP_MIN, MAX_ROWS, _format_column, _write_csv, build_parser, main,
                        read_settings)
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


def test_fmt(tmp_path):
    # a CSV float column writes 17 significant digits: nan is an empty field,
    # both infinities read inf, -0.0 and subnormals keep their digits
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.225073858507201e-308,
              1 / 3, -1e300, 7.0, 1.0]
    path = tmp_path / "columns.csv"
    _write_csv(str(path), {"x": np.array(values), "tag": [str(k) for k in range(len(values))],
                           "none": np.array([math.nan] * len(values))})
    assert path.read_bytes() == (
        b"x,tag,none\n"
        b",0,\n"
        b"inf,1,\n"
        b"inf,2,\n"
        b"-0,3,\n"
        b"0,4,\n"
        b"4.9406564584124654e-324,5,\n"
        b"-2.2250738585072009e-308,6,\n"
        b"0.33333333333333331,7,\n"
        b"-1.0000000000000001e+300,8,\n"
        b"7,9,\n"
        b"1,10,\n")
    _write_csv(str(path), {"x": np.array([]), "y": np.array([])})
    assert path.read_text() == "x,y\n"
    # values that repeat between distinct ones, -0.0 and 0.0 side by side, a
    # nan with its sign bit set, and strided columns: the rows of a
    # transposed table, as `homogenize` passes them; once as they are, once
    # repeated past _GROUP_MIN rows, where the writer groups equal values
    repeated = [1 / 3, 7.0, 1 / 3, -0.0, 0.0, -0.0, 0.0, np.copysign(math.nan, -1.0),
                math.nan, 2.5, 7.0, -math.inf, math.inf, 1 / 3]
    fields = ["0.33333333333333331", "7", "0.33333333333333331", "-0", "0", "-0", "0", "", "",
              "2.5", "7", "inf", "inf", "0.33333333333333331"]
    for copies in (1, _GROUP_MIN // len(repeated) + 1):
        table = np.column_stack([repeated * copies, np.repeat(np.arange(copies), len(repeated))])
        x, k = table.T
        assert not x.flags.c_contiguous
        _write_csv(str(path), {"x": x, "k": k})
        assert path.read_text() == "x,k\n" + "".join(
            f"{field},{copy}\n" for copy in range(copies) for field in fields)


# float64 bit patterns every drawn column may use: both zeros, both
# infinities, nan with either sign and with a payload, the least subnormal
SPECIAL_BITS = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, np.copysign(math.nan, -1.0),
                         5e-324, 1 / 3]).view(np.int64).tolist() + [0x7FF8000000000001]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pool=st.lists(st.integers(-(1 << 63), (1 << 63) - 1), max_size=4),
       picks=st.lists(st.integers(0, 12), min_size=1, max_size=30),
       copies=st.integers(1, 8), step=st.integers(1, 3))
def test_format_column_matches_the_per_value_reference(pool, picks, copies, step):
    # columns over a pool of a few bit patterns, so most entries repeat, on
    # both sides of _GROUP_MIN entries and in a strided view for step > 1:
    # each entry reads as "%.17g" of its value
    pool = SPECIAL_BITS + pool
    bits = np.array([pool[k % len(pool)] for k in picks] * copies, dtype=np.int64)
    col = np.repeat(bits, step).view(np.float64)[::step]
    expect = ["" if math.isnan(x) else "inf" if math.isinf(x) else "%.17g" % x
              for x in col.tolist()]
    assert _format_column(col) == expect


def test_parser_built_once_survives_usage_errors(capsys, tmp_path):
    calls = [["classify", "--bc", "0.5,0.3"],
             ["--theta", "0.9424777960769379", "laminate", "--bc=-1.2,0.7"],
             ["--n", "5", "regionmap", "--out", str(tmp_path / "map.csv")]]

    def run_all():
        return [run(capsys, argv) for argv in calls] + [(tmp_path / "map.csv").read_bytes()]

    build_parser.cache_clear()
    fresh = run_all()
    assert build_parser() is build_parser()
    for argv in (["classify", "--no-such-flag"], ["regionmap"], ["no-such-command"]):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
    assert main(["--tol", "0", "classify", "--bc=0,0"]) == 2
    capsys.readouterr()
    assert run_all() == fresh


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


def strict_json(text):
    """JSON as the standard has it: NaN and Infinity are no numbers."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("bc", ("1e200,0", "1e160,0", "0,1e160"))
def test_classify_past_the_float_range_writes_json(capsys, bc):
    # the representative's entries overflow: its determinant residual is
    # inf (or inf - inf), written as "inf" as an infinite whom is
    code, out = run(capsys, ["classify", f"--bc={bc}"])
    assert code == 3
    data = strict_json(out)
    assert data["region"] == "OffManifold" and data["det_residual"] == "inf"
    code, out = run(capsys, ["classify", "--bc=0.5,0.3"])
    assert code == 0 and strict_json(out)["det_residual"] == 0.0


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


OVERFLOWING_LAMINATES = {  # theta: (target, message) pairs
    # |F|^2 = 1e308 is finite, but |F a|^2 along the laminate's rank-one lines overflows
    "0.7853981633974483": [("1e154,0,0,1e-154", "rank-one root solve overflows")],
    "1.413716694115407": [("1e154,0,0,1e-154", "rank-one root solve overflows"),
                          # an endpoint's |F|^2 overflows
                          ("3e153,0,0,3.333333333333333e-154",
                           "laminate endpoint |F|^2 overflows")],
    # the endpoints are finite, but the jump |F+ - F-|^2 = 1.9e308 overflows
    "0.9424777960769379": [("5e153,0,0,2e-154", "laminate jump |F+ - F-|^2 overflows")],
}


@pytest.mark.parametrize("theta", OVERFLOWING_LAMINATES)
def test_overflowing_laminate_exit_code(capsys, theta):
    # RuntimeWarnings are errors here, so any warning fails
    for matrix, message in OVERFLOWING_LAMINATES[theta]:
        assert main(["--theta", theta, "laminate", "--matrix", matrix]) == 3, matrix
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_classify_usage_errors(capsys):
    assert main(["classify"]) == 2
    assert main(["classify", "--matrix", "1,2,3"]) == 2
    assert main(["classify", "--matrix", "1,0,0,1", "--bc", "0,0"]) == 2


def test_non_finite_input_is_usage_error(tmp_path, capsys):
    sweep = ["homogenize", "--gamma-bands", "0.4:1", "--eps-list", "1/4",
             "--out", str(tmp_path / "sweep.csv")]
    hplot = ["hplot", "--samples", "3", "--out", str(tmp_path / "h.csv")]
    for argv in (["classify", "--matrix", "nan,0,0,1"],
                 ["classify", "--matrix", "1,0,0,inf"],
                 ["classify", "--bc=-inf,0"],
                 ["laminate", "--bc", "0,nan"],
                 ["classify", "--bc", "1/0,0"],
                 [*sweep, "--hlam", "nan"],
                 [*sweep, "--hlam", "inf"],
                 [*hplot, "--zmax", "nan"],
                 [*hplot, "--zmax", "inf"],
                 [*hplot, "--zmax", "-1"],
                 [*hplot, "--zmax", "1e200"]):
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
    # 16,400 bands overflow the int16 label rows (band k writes label 2k + 2);
    # the option is too long for a command line, so main runs in-process
    n = 16399
    bands = ",".join(f"0.4:{(k + 1) / (4 * (n + 1))!r}" for k in range(n)) + ",0.4:1"
    out = tmp_path / "sweep.csv"
    code = main(["homogenize", f"--gamma-bands={bands}", "--eps-list", "1/4",
                 "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: 16400 bands")
    assert not out.exists()


@pytest.mark.parametrize("flags", (["--eps-list", "1e-310"],
                                   ["--eps-list", "1/8", "--hlam", "1e-310"]))
def test_homogenize_below_the_grid_cap_resolution_exit_code(tmp_path, capsys, flags):
    # cells_per_feature / finest overflows; the capped grid resolves no feature
    out = tmp_path / "sweep.csv"
    assert main(["homogenize", "--gamma-bands", "0.4:1", *flags, "--out", str(out)]) == 3
    assert "fewer than 4 cells" in capsys.readouterr().err
    assert not out.exists()


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--n", "9", "--range", "2", "verify-envelope"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # a rerun into the same path
    assert main(args + ["--out", str(a)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_write_csv_over_an_existing_file(tmp_path):
    # the file is overwritten in place and cut to the length written: over a
    # longer, a shorter and an equally long file it holds the bytes of a
    # fresh write
    columns = {"x": np.array([1 / 3, -0.0, math.nan]), "tag": ["a", "b", "c"]}
    fresh, path = tmp_path / "fresh.csv", tmp_path / "over.csv"
    _write_csv(str(fresh), columns)
    expect = fresh.read_bytes()
    for size in (2 * len(expect), len(expect) // 2, len(expect)):
        path.write_bytes(b"#" * size)
        _write_csv(str(path), columns)
        assert path.read_bytes() == expect, size


def test_out_that_is_not_a_regular_file(tmp_path):
    # /dev/null takes the CSV and is not cut to length
    assert main(["--n", "5", "regionmap", "--out", os.devnull]) == 0
    # neither is a pipe, which cannot seek
    src = os.path.dirname(os.path.dirname(os.path.abspath(lamlab.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-m", "lamlab.cli", "--n", "5", "regionmap",
                          "--out", "/dev/stdout"], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True)
    assert res.returncode == 0, res.stderr
    out = tmp_path / "map.csv"
    assert main(["--n", "5", "regionmap", "--out", str(out)]) == 0
    assert res.stdout == out.read_bytes()


def test_directory_out_is_usage_error(tmp_path, capsys):
    assert main(["--n", "5", "regionmap", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_read_only_out_is_usage_error(tmp_path, capsys):
    # an existing read-only file keeps its bytes
    out = tmp_path / "map.csv"
    out.write_bytes(b"old\n")
    out.chmod(0o444)
    if os.access(out, os.W_OK):
        pytest.skip("the mode bits do not bind this user")
    assert main(["--n", "5", "regionmap", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_bytes() == b"old\n"


def test_bad_config_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "classify", "--bc", "0,0"]) == 2
    missing = tmp_path / "missing.json"
    assert main(["--config", str(missing), "classify", "--bc", "0,0"]) == 2
    for top_level in ("[]", "1", "null"):  # not a JSON object
        bad.write_text(top_level)
        assert main(["--config", str(bad), "classify", "--bc", "0,0"]) == 2, top_level
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


@pytest.mark.parametrize("argv,message", [
    (["--n", "1001", "regionmap"], "config: the grid resolution must be at most 1000"),
    (["--n", "100000", "regionmap"], "config: the grid resolution must be at most 1000"),
    (["--n", "1001", "verify-envelope"], "config: the grid resolution must be at most 1000"),
    (["hplot", "--zmax", "2", "--samples", "1000001"], "--samples must be at most 1000000"),
    (["hplot", "--zmax", "2", "--samples", "2000000000"], "--samples must be at most 1000000"),
    (["whomgamma", "--gamma-range=-3:3:1000001"], "--gamma-range count must be at most 1000000"),
    (["whomgamma", "--gamma-range=-3:3:2000000000"],
     "--gamma-range count must be at most 1000000"),
], ids=["regionmap-n1001", "regionmap-n100000", "verify-envelope-n1001", "hplot-1000001",
        "hplot-2000000000", "whomgamma-1000001", "whomgamma-2000000000"])
def test_work_cap_is_checked_before_allocating(argv, message, tmp_path, capsys):
    # a usage error before any grid or sample column is made: one float64
    # column of MAX_ROWS entries alone would be 8 MB
    out = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert peak < 2 ** 20
    assert not out.exists()


def test_work_cap_admits_its_bound(monkeypatch):
    args = build_parser().parse_args(["--n", "1000", "regionmap", "--out", "map.csv"])
    assert read_settings(args).n == 1000
    rows = []
    # the length of the first column: z or gamma
    monkeypatch.setattr(cli, "_write_csv",
                        lambda path, columns: rows.append(len(next(iter(columns.values())))))
    monkeypatch.setattr(cli, "w_hom_scalar", lambda gamma, s: 0.0)
    assert main(["hplot", "--samples", str(MAX_ROWS), "--out", "h.csv"]) == 0
    assert main(["whomgamma", f"--gamma-range=-3:3:{MAX_ROWS}", "--out", "w.csv"]) == 0
    assert rows == [MAX_ROWS, MAX_ROWS]
