import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lamlab
from lamlab import cli
from lamlab.algebra import bc_to_matrix
from lamlab.cli import (_GROUP_MIN, _WRITE_ROWS, MAX_ROWS, _format_column, _write_csv,
                        build_parser, main,
                        read_settings)
from lamlab.energy import SlipSystem, slip_state, w_hom, w_hom_arrays
from lamlab.envelope_oracle import MAX_N_DIRS
from lamlab.errors import BranchDisagreement, DomainError
from lamlab.regions import region_map

from references import w_hom_scalar

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
    # the array form writes the value inf, as off the manifold
    fs = np.stack([np.eye(2), np.diag([1e154, 1e-154])])
    st = slip_state(fs[:, 0, 0], fs[:, 0, 1], fs[:, 1, 0], fs[:, 1, 1], s)
    assert w_hom_arrays(st, s)[0].tolist() == [0.0, math.inf]


@pytest.mark.parametrize("command, header, cell", [
    ("regionmap", "b,c,region,boundary,whom,lower,upper",
     "3.3333333333333337e+153,0,APerp,,inf,,"),
    ("verify-envelope", "b,c,region,closed,oracle,discrepancy,slack_lo,slack_hi",
     "3.3333333333333337e+153,0,APerp,inf,inf,0,,"),
], ids=["regionmap", "verify-envelope"])
def test_grid_past_the_float_range_writes_inf(command, header, cell, tmp_path, capsys):
    # one cell of this grid has a finite |F|^2 and a closed-form value past
    # the float range: the grid writes it inf, as whomgamma does, where it
    # exited 3, and a certified inf has discrepancy 0, not the empty field of
    # a skipped cell; classify of that matrix still exits 3
    out = tmp_path / "grid.csv"
    argv = ["--theta", "1.413716694115407", "--range", "5e153", "--n", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*argv, command, "--out", str(out)]) == 0
    lines = out.read_text().split("\n")
    assert lines[0] == header and lines[-1] == "" and len(lines) == 11
    assert lines[6] == cell
    assert main([*argv, "classify", "--bc=3.3333333333333337e+153,0"]) == 3
    assert capsys.readouterr().err == "error: closed-form envelope value overflows\n"


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


def test_regionmap_never_forms_the_cell_matrices(tmp_path, monkeypatch):
    # RegionMap.fs is formed when first read, and the CSV has no use for it
    grids = []
    monkeypatch.setattr(cli, "region_map", lambda *a, **k: grids.append(region_map(*a, **k))
                        or grids[-1])
    assert main(["--n", "9", "regionmap", "--out", str(tmp_path / "rm.csv")]) == 0
    assert len(grids) == 1 and "fs" not in vars(grids[0])


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
    # the paper's piecewise shear form, within criterion 06's bound
    assert main(["whomgamma", "--gamma-range=-3:3:601", "--out", str(out)]) == 0
    s = SlipSystem.from_theta(math.pi / 4, 0.5)
    for line in out.read_text().splitlines()[1:]:
        gamma, whom = map(float, line.split(","))
        ref = w_hom_scalar(gamma, s)
        assert abs(whom - ref) <= 1e-12 * max(1.0, ref), line


def test_homogenize_csv(tmp_path):
    out = tmp_path / "hom.csv"
    assert main(["homogenize", "--gamma-bands", "0.4:1", "--eps-list", "1/4,1/8",
                 "--hlam", "0.25", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,hlam,e_eps,target,rel_error,flagged_area"
    assert len(lines) == 3


def test_homogenize_band_limit(tmp_path):
    # 16,400 bands score as any others; the option is too long for a
    # command line, so main runs in-process.  All bands but the last lie
    # within the first layer period and snap to none of its columns
    n = 16399
    bands = ",".join(f"0.4:{(k + 1) / (4 * (n + 1))!r}" for k in range(n)) + ",0.4:1"
    out = tmp_path / "sweep.csv"
    code = main(["homogenize", f"--gamma-bands={bands}", "--eps-list", "1/4",
                 "--out", str(out)])
    assert code == 0
    header, row, end = out.read_text().split("\n")
    assert (header, end) == ("epsilon,hlam,e_eps,target,rel_error,flagged_area", "")
    eps, _, e_eps, target, _, _ = map(float, row.split(","))
    s = SlipSystem.from_theta(math.pi / 4, 0.5)
    whom = w_hom(np.array([[1.0, 0.4 / 0.5], [0.0, 1.0]]), s).value.as_float()
    assert eps == 0.25
    assert target == pytest.approx(0.5 * whom, rel=1e-12)
    assert e_eps == pytest.approx(0.75 * 0.5 * whom, rel=1e-12)


@pytest.mark.parametrize("flags", (["--eps-list", "1e-310"],
                                   ["--eps-list", "1/8", "--hlam", "1e-310"]))
def test_homogenize_below_the_grid_cap_resolution_exit_code(tmp_path, capsys, flags):
    # cells_per_feature / finest overflows; the capped grid resolves no feature
    out = tmp_path / "sweep.csv"
    assert main(["homogenize", "--gamma-bands", "0.4:1", *flags, "--out", str(out)]) == 3
    assert "fewer than 4 cells" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,band", [
    (["homogenize", "--gamma-bands=1e308:1"], "1e308:1"),
    (["homogenize", "--gamma-bands=0.2:0.5,-1e308:1"], "-1e308:1"),
    # gamma is finite, gamma / lambda is not
    (["--lambda", "0.25", "homogenize", "--gamma-bands=5e307:1"], "5e307:1"),
])
def test_homogenize_overflowing_shear_is_usage_error(flags, band, tmp_path, capsys):
    # the soft-layer shear gamma / lambda overflows to inf: a usage error
    # naming the band, before any gradient is formed
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*flags, "--eps-list", "1/4", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: --gamma-bands: band {band!r}: gamma / lambda is not finite\n")
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["whomgamma", "--gamma-range=1e308:1e308:2"],
     "--gamma-range: gamma 1e+308: gamma / lambda is not finite"),
    (["--lambda", "1e-300", "whomgamma", "--gamma-range=0:1e10:3"],
     "--gamma-range: gamma 5000000000.0: gamma / lambda is not finite"),
    # linspace forms hi - lo first
    (["whomgamma", "--gamma-range=-1e308:1e308:3"], "--gamma-range: hi - lo is not finite"),
])
def test_whomgamma_overflowing_shear_is_usage_error(flags, message, tmp_path, capsys):
    # an overflowing gamma / lambda wrote energy 0: now a usage error naming
    # the gamma, before any energy is evaluated
    out = tmp_path / "wg.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*flags, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


MALFORMED_NUMBERS = [
    (["homogenize", "--gamma-bands=0.4", "--eps-list", "1/4"],
     "--gamma-bands expects comma-separated gamma:right_edge pairs, not '0.4'"),
    (["homogenize", "--gamma-bands=0.4:0.5:1", "--eps-list", "1/4"],
     "--gamma-bands expects comma-separated gamma:right_edge pairs, not '0.4:0.5:1'"),
    (["homogenize", "--gamma-bands=x:1", "--eps-list", "1/4"],
     "--gamma-bands: 'x' is not a number"),
    (["homogenize", "--gamma-bands=0.4:1", "--eps-list", "1/4,x"],
     "--eps-list: 'x' is not a number"),
    (["homogenize", "--gamma-bands=0.4:1", "--eps-list", "1/x"],
     "--eps-list: '1/x' is not a number"),
    (["homogenize", "--gamma-bands=0.4:1", "--eps-list", "1/0"],
     "--eps-list: '1/0' divides by zero"),
    (["homogenize", "--gamma-bands=0.4:1", "--eps-list", "1/4", "--hlam", "x"],
     "--hlam: 'x' is not a number"),
    (["homogenize", "--gamma-bands=0.4:1", "--eps-list", "1/4", "--hlam", "inf"],
     "--hlam: 'inf' is not a finite number"),
    # band layouts and layer periods that MicrostructureSpec would reject
    (["homogenize", "--gamma-bands=0.4:1,0.2:1", "--eps-list", "1/4"],
     "--gamma-bands: the right edges must increase strictly from above 0"),
    (["homogenize", "--gamma-bands=0.4:0,0.2:1", "--eps-list", "1/4"],
     "--gamma-bands: the right edges must increase strictly from above 0"),
    (["homogenize", "--gamma-bands=0.4:0.5", "--eps-list", "1/4"],
     "--gamma-bands: the last right edge must be 1"),
    (["homogenize", "--gamma-bands=0.4:1", "--eps-list", "1/4,2"],
     "--eps-list entries must lie in (0, 1]"),
    (["classify", "--bc=x,0"], "--bc: 'x' is not a number"),
    (["laminate", "--matrix=1,0,0,x"], "--matrix: 'x' is not a number"),
    (["whomgamma", "--gamma-range=x:1:3"], "--gamma-range: 'x' is not a number"),
    (["whomgamma", "--gamma-range=0:x:3"], "--gamma-range: 'x' is not a number"),
]


@pytest.mark.parametrize("argv, message", MALFORMED_NUMBERS,
                         ids=[" ".join(argv[-3:]) for argv, _ in MALFORMED_NUMBERS])
def test_malformed_number_names_its_option(argv, message, tmp_path, capsys):
    # a number an option does not hold, or a band without its edge, is named
    # with its option, not with Python's float() or unpacking message
    out = tmp_path / "out.csv"
    if argv[0] not in ("classify", "laminate"):
        argv = [*argv, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("gamma_range", ["0:1", "0:1:2:3", "0:1:1e3", "0:1:-1"])
def test_malformed_gamma_range_is_usage_error(gamma_range, tmp_path, capsys):
    # a range that is not lo:hi:count with a count from 0 to MAX_ROWS is named
    # with the form it should have, not with Python's unpacking or int()
    # message or NumPy's negative sample count
    out = tmp_path / "wg.csv"
    assert main(["whomgamma", f"--gamma-range={gamma_range}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --gamma-range expects lo:hi:count, count a nonnegative integer at most "
        f"1000000, not {gamma_range!r}\n")
    assert not out.exists()


def test_whomgamma_past_the_float_range(tmp_path, capsys):
    # an energy past the float range is written inf: where |F|^2 overflows
    # (off the manifold) and where |F|^2 is finite but W_hom is not
    # (gamma / lambda = 1.25e154 at pi/4, where classify exits 3)
    out = tmp_path / "wg.csv"
    assert main(["whomgamma", "--gamma-range=-1e154:1e154:3", "--out", str(out)]) == 0
    assert out.read_text() == "gamma,whom\n-1e+154,inf\n0,0\n1e+154,inf\n"
    assert main(["--lambda", "0.8", "whomgamma", "--gamma-range=-1e154:1e154:3",
                 "--out", str(out)]) == 0
    assert out.read_text() == "gamma,whom\n-1e+154,inf\n0,0\n1e+154,inf\n"
    assert main(["--lambda", "0.5", "whomgamma", "--gamma-range=-1e154:1e154:5",
                 "--out", str(out)]) == 0
    assert out.read_text() == ("gamma,whom\n-1e+154,inf\n-5.0000000000000002e+153,inf\n0,0\n"
                               "5.0000000000000009e+153,inf\n1e+154,inf\n")
    assert main(["--lambda", "0.8", "classify", "--matrix=1,1.25e154,0,1"]) == 3
    assert capsys.readouterr().err == "error: closed-form envelope value overflows\n"
    # the curve is written for orthogonal slips only; an empty range at any angle
    assert main(["--theta", "0.9424777960769379", "whomgamma", "--gamma-range=-1:1:3",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: scalar form requires an orthogonal slip system\n"
    assert main(["--theta", "0.9424777960769379", "whomgamma", "--gamma-range=-1:1:0",
                 "--out", str(out)]) == 0
    assert out.read_text() == "gamma,whom\n"


# argv numbers: the edges of the float range, as a user would type them
EDGE_NUMBERS = ("0", "-0", "5e-324", "-5e-324", "1e308", "-1e308", "1e-308", "-1e-308",
                "nan", "inf", "-inf", "1/0", "-1/0", "0/0")


@st.composite
def homogenize_argv(draw):
    """homogenize argv of 1-4 bands: ordinary shears, edges, layer periods
    and laminate periods, each sometimes an edge number in its place."""
    def number(ordinary):
        if draw(st.integers(0, 7)) == 0:
            return draw(st.sampled_from(EDGE_NUMBERS))
        return ordinary

    n = draw(st.integers(1, 4))
    inner = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=n - 1, max_size=n - 1,
                                 unique=True)))
    bands = ",".join(f"{number(repr(draw(st.floats(-1.0, 1.0))))}:{number(repr(t))}"
                     for t in [*inner, 1.0])
    periods = ("1/4", "1/8", "1/16", "1/3", "0.3", "1")
    eps = [number(draw(st.sampled_from(periods))) for _ in range(draw(st.integers(1, 2)))]
    hlam = number(draw(st.sampled_from(("0.25", "1/3", "0.5", "1", "2"))))
    return ["homogenize", f"--gamma-bands={bands}", f"--eps-list={','.join(eps)}",
            f"--hlam={hlam}", "--cells-per-feature", str(draw(st.integers(3, 6)))]


def run_csv_argv_twice(argv):
    """Run argv + --out twice into one file under -W error::RuntimeWarning;
    assert both runs exit alike in 0, 2 or 3, say the same on stderr, write
    nothing to stdout and leave the same bytes, and no file on an error exit.
    The exit code and CSV bytes of the run."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = pathlib.Path(tmp) / "out.csv"
        for _ in range(2):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([*argv, "--out", str(out)])
            csv = out.read_bytes() if out.exists() else None
            runs.append((code, stdout.getvalue(), stderr.getvalue(), csv))
    assert runs[0] == runs[1]
    code, stdout, stderr, csv = runs[0]
    assert code in (0, 2, 3)
    assert stdout == ""
    if code != 0:
        assert stderr.startswith("error: ")
        assert csv is None
    return code, csv


@settings(max_examples=200, derandomize=True, deadline=None)
@given(argv=homogenize_argv())
@example(argv=["homogenize", "--gamma-bands=1e308:1", "--eps-list=1/4", "--hlam=0.25",
               "--cells-per-feature", "4"])
def test_homogenize_argv_exits_cleanly(argv):
    # every argv ends in exit 0, 2 or 3 with no exception and no warning; an
    # exit-0 CSV holds the header and one row per layer period, and a rerun
    # into the same --out writes the same bytes and says the same
    code, csv = run_csv_argv_twice(argv)
    if code == 0:
        lines = csv.decode().splitlines()
        assert lines[0] == "epsilon,hlam,e_eps,target,rel_error,flagged_area"
        eps_list = argv[2].removeprefix("--eps-list=")
        assert len(lines) == 1 + len(eps_list.split(","))


def test_non_finite_slip_frame_is_usage_error(tmp_path, capsys):
    # by --theta or in the config, by angle or by vectors: exit 2 naming the frame
    config = tmp_path / "config.json"
    for flags, cfg in ((["--theta", "nan"], None), (["--theta", "inf"], None),
                       (["--theta=-inf"], None), ([], '{"slip": {"theta": Infinity}}'),
                       ([], '{"slip": {"v1": [NaN, 1.0], "v2": [0.0, 1.0]}}'),
                       ([], '{"slip": {"v1": [0.0, 1.0], "v2": [-1.0, -Infinity]}}')):
        if cfg is not None:
            config.write_text(cfg)
            flags = ["--config", str(config)]
        assert main([*flags, "classify", "--bc", "0,0"]) == 2, flags
        assert capsys.readouterr().err == "error: config: the slip frame must be finite\n"


def test_malformed_slip_vectors_are_usage_errors(tmp_path, capsys):
    # vectors of the wrong shape or too large to square exit 2, with no
    # IndexError or overflow warning from the checks
    config = tmp_path / "config.json"
    for v1, v2, message in (([[1.0, 0.0]], [[0.0, 1.0]], "must be 2-vectors"),
                            ([1.0], [1.0], "must be 2-vectors"),
                            (None, [0.0, 1.0], "must be 2-vectors"),
                            ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], "must be 2-vectors"),
                            ([1e308, 0.0], [0.0, 1.0], "must be unit vectors")):
        config.write_text(json.dumps({"slip": {"v1": v1, "v2": v2}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--config", str(config), "classify", "--bc", "0,0"]) == 2, v1
        assert capsys.readouterr().err == f"error: config: slip directions {message}\n"


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--n", "9", "--range", "2", "verify-envelope"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # a rerun into the same path
    assert main(args + ["--out", str(a)]) == 0
    assert a.read_bytes() == b.read_bytes()


def reference_csv(columns: dict) -> bytes:
    """The CSV as one header-plus-join write, every float formatted alone."""
    def field(x):
        return "" if math.isnan(x) else "inf" if math.isinf(x) else "%.17g" % x

    cols = [[field(x) for x in col.tolist()] if isinstance(col, np.ndarray) else col
            for col in columns.values()]
    lines = [",".join(columns), *map(",".join, zip(*cols))]
    return ("\n".join(lines) + "\n").encode()


def block_table(rows: int) -> dict:
    """Float columns of nan, both infinities, both zeros and values that
    recur in every write block, a column of distinct values, and string
    columns, `rows` rows each."""
    pool = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 1 / 3, -2.5, 5e-324, 1e300])
    k = np.arange(rows)
    return {"x": pool[k % pool.size], "y": pool[(k * 5 + 3) % pool.size] * 7.0,
            "tag": [f"t{j % 11}" for j in range(rows)], "z": k / 3.0,
            "empty": [""] * rows}


def test_write_csv_over_an_existing_file(tmp_path):
    # the file is overwritten in place and cut to the length written: over a
    # longer, a shorter and an equally long file it holds the bytes of a
    # fresh write, for a table of one write block and of three
    fresh, path = tmp_path / "fresh.csv", tmp_path / "over.csv"
    for columns in ({"x": np.array([1 / 3, -0.0, math.nan]), "tag": ["a", "b", "c"]},
                    block_table(2 * _WRITE_ROWS + 1)):
        _write_csv(str(fresh), columns)
        expect = fresh.read_bytes()
        for size in (2 * len(expect), len(expect) // 2, len(expect)):
            path.write_bytes(b"#" * size)
            _write_csv(str(path), columns)
            assert path.read_bytes() == expect, size


@pytest.mark.parametrize("rows", [0, 1, _WRITE_ROWS - 1, _WRITE_ROWS, _WRITE_ROWS + 1,
                                  2 * _WRITE_ROWS + 1])
def test_streamed_csv_matches_one_write(rows, tmp_path):
    # the rows go out _WRITE_ROWS at a time; the file holds the bytes of one
    # header-plus-join write, block seams included
    columns = block_table(rows)
    path = tmp_path / "table.csv"
    _write_csv(str(path), columns)
    assert path.read_bytes() == reference_csv(columns)


def test_streamed_csv_memory_does_not_grow_with_rows(tmp_path):
    # pre-formatted string columns: beyond them the writer holds one block
    # of rows, its text and its bytes, however many rows the table has
    def peak(rows):
        columns = {"a": ["0.33333333333333331"] * rows, "b": [str(k) for k in range(rows)],
                   "c": ["N1capN2"] * rows}
        tracemalloc.start()
        try:
            _write_csv(str(tmp_path / "table.csv"), columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block_text = len(reference_csv({"a": ["0.33333333333333331"] * _WRITE_ROWS,
                                    "b": [str(8 * _WRITE_ROWS)] * _WRITE_ROWS,
                                    "c": ["N1capN2"] * _WRITE_ROWS}))
    small, large = peak(8 * _WRITE_ROWS), peak(64 * _WRITE_ROWS)
    assert large - small < block_text


def test_float_columns_are_formatted_block_by_block(tmp_path):
    # float columns are formatted one write block at a time too: beyond the
    # arrays the writer holds one block's fields, however many rows there are
    def peak(rows):
        k = np.arange(rows)
        columns = {"x": k / 7.0, "y": np.sqrt(k + 0.5), "z": np.where(k % 3 == 0, math.nan, k)}
        tracemalloc.start()
        try:
            _write_csv(str(tmp_path / "table.csv"), columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(8 * _WRITE_ROWS), peak(64 * _WRITE_ROWS)
    assert large - small < small / 8


def test_out_that_is_not_a_regular_file(tmp_path):
    # /dev/null takes every write block of the CSV (70^2 = 4,900 rows) and
    # is not cut to length
    assert main(["--n", "70", "regionmap", "--out", os.devnull]) == 0
    # neither is a pipe, which cannot seek
    src = os.path.dirname(os.path.dirname(os.path.abspath(lamlab.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-m", "lamlab.cli", "--n", "70", "regionmap",
                          "--out", "/dev/stdout"], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True)
    assert res.returncode == 0, res.stderr
    out = tmp_path / "map.csv"
    assert main(["--n", "70", "regionmap", "--out", str(out)]) == 0
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


@pytest.mark.parametrize("config,key,value", [
    ({"lambda": "x"}, "lambda", "x"),
    ({"grid": {"n": "x"}}, "grid.n", "x"),
    ({"grid": {"range": "3 cm"}}, "grid.range", "3 cm"),
    ({"tolerances": {"manifold": "x"}}, "tolerances.manifold", "x"),
    ({"oracle": {"n_dirs": ""}}, "oracle.n_dirs", ""),
    ({"slip": {"theta": "x"}}, "slip.theta", "x"),
    ({"slip": {"v1": ["x", 0], "v2": [0, 1]}}, "slip.v1", "x"),
    ({"slip": {"v1": [1, 0], "v2": [0, "y"]}}, "slip.v2", "y"),
], ids=["lambda", "grid.n", "grid.range", "tolerances.manifold", "oracle.n_dirs",
        "slip.theta", "slip.v1", "slip.v2"])
def test_config_non_number_names_its_key(config, key, value, tmp_path, capsys):
    # a string that is not a number exits 2 naming the file's key, where
    # Python's float() message named neither the file nor the key
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    for command in (["classify", "--bc=0,0"], ["regionmap", "--out", str(tmp_path / "m.csv")]):
        assert main(["--config", str(path), *command]) == 2
        assert capsys.readouterr().err == f"error: config: {key}: {value!r} is not a number\n"
    assert not (tmp_path / "m.csv").exists()


def test_config_numeric_strings_are_read(tmp_path):
    # a number spelt as a string is read as before
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lambda": "0.25", "grid": {"n": "7"},
                                "slip": {"v1": ["1", 0], "v2": [0, "1.0"]}}))
    cfg = cli.read_settings(cli.build_parser().parse_args(["--config", str(path), "classify"]))
    assert (cfg.slip.lam, cfg.n, cfg.slip.v1.tolist(), cfg.slip.v2.tolist()) == (
        0.25, 7, [1.0, 0.0], [0.0, 1.0])


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


def test_n_dirs_past_the_cap_is_usage_error(monkeypatch, tmp_path, capsys):
    # a direction count past MAX_N_DIRS, from a flag or the config file,
    # exits 2 before any scan; 10^15 was accepted and ran on past 20 s
    def unreachable(*args, **kwargs):
        raise AssertionError("envelope_scan was called")
    monkeypatch.setattr(cli, "envelope_scan", unreachable)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"oracle": {"n_dirs": 1e15}}))
    for flags in (["--n-dirs", "11521"], ["--n-dirs", "1000000000000000"],
                  ["--config", str(config)]):
        assert main([*flags, "verify-envelope", "--out", os.devnull]) == 2, flags
        assert capsys.readouterr().err == ("error: config: the oracle direction count must be "
                                           "an integer from 8 to 11520\n")
    args = build_parser().parse_args(["--n-dirs", "11520", "verify-envelope", "--out", "o.csv"])
    assert read_settings(args).n_dirs == MAX_N_DIRS == 11520


def test_work_cap_admits_its_bound(monkeypatch):
    args = build_parser().parse_args(["--n", "1000", "regionmap", "--out", "map.csv"])
    assert read_settings(args).n == 1000
    rows = []
    # the length of the first column: z or gamma
    monkeypatch.setattr(cli, "_write_csv",
                        lambda path, columns: rows.append(len(next(iter(columns.values())))))
    monkeypatch.setattr(cli, "w_hom_arrays", lambda st, s: (0.0, None, None))
    assert main(["hplot", "--samples", str(MAX_ROWS), "--out", "h.csv"]) == 0
    assert main(["whomgamma", f"--gamma-range=-3:3:{MAX_ROWS}", "--out", "w.csv"]) == 0
    assert rows == [MAX_ROWS, MAX_ROWS]


# classify / laminate argv numbers: the EDGE_NUMBERS and the square root of
# the float range, where |F|^2 starts to overflow
SCALAR_EDGES = (*EDGE_NUMBERS, "1e154", "-1e154", "1e-154")
# --theta at and inside the edges of [pi/4, pi/2), and just outside them
THETA_EDGES = ("0.7853981633974483", repr(math.pi / 4 - 1e-13), repr(math.pi / 4 - 1e-11),
               "1.5707963267948963", "1.5707963267948966", "nan")
TOL_VALUES = ("1e-9", "1e-12", "1e-3", "0.5", "5e-324", "1e308", "0", "-1e-9", "nan", "inf")


@st.composite
def scalar_argv(draw):
    """classify or laminate argv: a --matrix or --bc of ordinary and edge
    numbers, a --theta in [pi/4, pi/2) or at its edges, and sometimes a --tol."""
    def number():
        if draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from(SCALAR_EDGES))
        return repr(draw(st.floats(-3.0, 3.0)))

    if draw(st.booleans()):
        theta = repr(draw(st.floats(math.pi / 4, math.pi / 2, exclude_max=True)))
    else:
        theta = draw(st.sampled_from(THETA_EDGES))
    argv = [f"--theta={theta}"]
    if draw(st.booleans()):
        argv.append(f"--tol={draw(st.sampled_from(TOL_VALUES))}")
    argv.append(draw(st.sampled_from(("classify", "laminate"))))
    if draw(st.booleans()):
        argv.append(f"--matrix={','.join(number() for _ in range(4))}")
    else:
        argv.append(f"--bc={number()},{number()}")
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=scalar_argv())
@example(argv=["--theta=0.7853981633974483", "laminate", "--matrix=1e154,0,0,1e-154"])
@example(argv=["--theta=0.9424777960769379", "classify", "--bc=1e154,1e154"])
def test_scalar_argv_exits_cleanly(argv):
    # every argv ends in exit 0, 2 or 3 with no exception and no warning;
    # stdout is empty or one strict JSON line (one on exit 0), and a rerun
    # says the same
    runs = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(2):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            runs.append((code, stdout.getvalue(), stderr.getvalue()))
    assert runs[0] == runs[1]
    code, stdout, stderr = runs[0]
    assert code in (0, 2, 3)
    if stdout:
        assert stdout.endswith("\n") and stdout.count("\n") == 1
        assert isinstance(strict_json(stdout), dict)
    if code == 0:
        assert stdout and not stderr
    elif not stdout:
        assert stderr.startswith("error: ")


# hplot --zmax: zero, subnormals, either side of the float range's square
# root (1e154 squares to a float, 1e155 does not), nan, inf and ordinary values
ZMAX_VALUES = ("0", "-0", "5e-324", "1e-310", "1e154", "1e155", "nan", "inf", "-inf", "-1",
               "0.5", "3", "1e3")
# --samples: none, one, either side of a write block, and past the row cap,
# where the command exits before allocating.  MAX_ROWS - 1 and MAX_ROWS are
# left out: a 10^6-row table takes seconds and a few hundred MB per run
# (`test_work_cap_admits_its_bound` admits MAX_ROWS with the writer stubbed)
SAMPLE_VALUES = (0, 1, 2, -1, _WRITE_ROWS - 1, _WRITE_ROWS, _WRITE_ROWS + 1,
                 2 * _WRITE_ROWS + 1, MAX_ROWS + 1, 2 * MAX_ROWS)


@st.composite
def hplot_argv(draw):
    """hplot argv: a --theta in [pi/4, pi/2), an edge or ordinary --zmax and
    a --samples count."""
    theta = repr(draw(st.floats(math.pi / 4, math.pi / 2, exclude_max=True)))
    if draw(st.booleans()):
        zmax = draw(st.sampled_from(ZMAX_VALUES))
    else:
        zmax = repr(draw(st.floats(0.0, 10.0)))
    if draw(st.booleans()):
        samples = draw(st.sampled_from(SAMPLE_VALUES))
    else:
        samples = draw(st.integers(0, 50))
    return [f"--theta={theta}", "hplot", f"--zmax={zmax}", f"--samples={samples}"]


@settings(max_examples=120, derandomize=True, deadline=None)
@given(argv=hplot_argv())
@example(argv=["--theta=0.7853981633974483", "hplot", "--zmax=1e154",
               f"--samples={_WRITE_ROWS + 1}"])
@example(argv=["--theta=0.7853981633974483", "hplot", "--zmax=5e-324", "--samples=3"])
def test_hplot_argv_exits_cleanly(argv):
    # every argv ends in exit 0, 2 or 3 with no exception and no warning; an
    # exit-0 CSV holds the header and one row per sample, and a rerun into
    # the same --out writes the same bytes and says the same
    code, csv = run_csv_argv_twice(argv)
    if code == 0:
        lines = csv.decode().split("\n")
        assert lines[0] == "z,h,h_star,h_perp,h_perp_star" and lines[-1] == ""
        assert len(lines) == 2 + int(argv[-1].removeprefix("--samples="))


@contextlib.contextmanager
def config_argv(argv, config):
    """argv, after `--config FILE` with FILE holding `config` (a dict) for the
    span of the block; argv as it is where config is None."""
    if config is None:
        yield argv
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        yield ["--config", str(path), *argv]


def rotated_frame(phi: float) -> dict:
    """Config slip vectors v1 = (cos phi, sin phi), v2 = v1 turned by pi/2."""
    return {"v1": [math.cos(phi), math.sin(phi)], "v2": [-math.sin(phi), math.cos(phi)]}


def traced_peak(argv):
    """argv + --out /dev/null through main under tracemalloc: the exit code
    and the peak bytes traced."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--out", os.devnull])
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


LAMBDA_VALUES = ("0.5", "0.3", "0.8", "1e-300", "0.9999999999999999", "0", "1", "nan")
# whomgamma range ends: the EDGE_NUMBERS and either side of the shear whose
# |F|^2 leaves the float range
GAMMA_ENDS = (*EDGE_NUMBERS, "1e153", "-1e153", "1e154", "-1e154")
# counts: none, one, either side of a write block, and past the row cap
GAMMA_COUNTS = (0, 1, _WRITE_ROWS - 1, _WRITE_ROWS, _WRITE_ROWS + 1, 2 * _WRITE_ROWS + 1,
                MAX_ROWS + 1)


@st.composite
def whomgamma_argv(draw):
    """whomgamma argv of edge or ordinary range ends and a count, at pi/4,
    at 0.3 pi or in a rotated orthogonal frame from a config file, sometimes
    with a --lambda: (argv, config or None, count)."""
    def end():
        if draw(st.booleans()):
            return draw(st.sampled_from(GAMMA_ENDS))
        return repr(draw(st.floats(-5.0, 5.0)))

    if draw(st.booleans()):
        count = draw(st.sampled_from(GAMMA_COUNTS))
    else:
        count = draw(st.integers(0, 40))
    argv = ["whomgamma", f"--gamma-range={end()}:{end()}:{count}"]
    if draw(st.booleans()):
        argv.insert(0, f"--lambda={draw(st.sampled_from(LAMBDA_VALUES))}")
    config = None
    frame = draw(st.sampled_from(("0.7853981633974483", "0.9424777960769379", "rotated")))
    if frame == "rotated":
        config = {"slip": rotated_frame(draw(st.floats(0.0, 2.0 * math.pi)))}
    else:
        argv.insert(0, f"--theta={frame}")
    return argv, config, count


@settings(max_examples=120, derandomize=True, deadline=None)
@given(case=whomgamma_argv())
@example(case=(["--lambda=0.8", "whomgamma", "--gamma-range=-1e154:1e154:3"], None, 3))
@example(case=(["whomgamma", f"--gamma-range=-1e154:1e154:{2 * _WRITE_ROWS + 1}"],
               {"slip": rotated_frame(0.4)}, 2 * _WRITE_ROWS + 1))
def test_whomgamma_argv_exits_cleanly(case):
    # every argv ends in exit 0 or 2 with no exception and no warning (3 only
    # at 0.3 pi or for a --lambda outside (0, 1)), and a rerun into the same
    # --out writes the same bytes and says the same; a count past the cap
    # exits 2 before anything is allocated, and on exit 0 each row's whom is
    # w_hom of its own shear matrix bit for bit (inf where w_hom overflows),
    # so the seams of the evaluation blocks move no value
    argv, config, count = case
    refusable = ("--theta=0.9424777960769379" in argv
                 or any(f"--lambda={lam}" in argv for lam in ("0", "1", "nan")))
    with config_argv(argv, config) as argv:
        if count > MAX_ROWS:
            code, peak = traced_peak(argv)
            assert code == 2 and peak < 2 ** 20
        code, csv = run_csv_argv_twice(argv)
        if code == 0:
            slip = read_settings(build_parser().parse_args([*argv, "--out", os.devnull])).slip
    assert code in ({0, 2, 3} if refusable else {0, 2})
    if code == 0:
        lines = csv.decode().split("\n")
        assert lines[0] == "gamma,whom" and lines[-1] == ""
        assert len(lines) == 2 + count
        for line in lines[1:-1]:
            gamma, whom = line.split(",")
            f = np.array([[1.0, float(gamma) / slip.lam], [0.0, 1.0]])
            try:
                expected = "%.17g" % w_hom(f, slip).value.value
            except DomainError as exc:
                assert "overflows" in str(exc)
                expected = "inf"
            assert whom == expected, line


class GridReached(Exception):
    """Raised by a stubbed grid builder: the command got as far as its grid."""


def grid_builder_calls(argv):
    """argv + --out /dev/null through main with `region_map` and
    `envelope_scan` stubbed to record their grid resolution and stop: the
    exit code (None where a builder was called) and the resolutions."""
    sizes = []

    def builder(slip, bc_range, n, *args, **kwargs):
        sizes.append(n)
        raise GridReached

    with mock.patch.object(cli, "region_map", builder), \
            mock.patch.object(cli, "envelope_scan", builder), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main([*argv, "--out", os.devnull]), sizes
        except GridReached:
            return None, sizes


MAX_N = math.isqrt(MAX_ROWS)
# --range: zero, subnormals, beyond the square root of the float range, its
# edge, nan, both infinities and a negative
RANGE_VALUES = (0.0, -0.0, 5e-324, 1e-310, 3.0, 1e150, 1e308, math.nan, math.inf, -math.inf,
                -1.0)
# --n: none, one, two, three, the cap and past it; --n-dirs: below the
# least, the least, the cap and past it
GRID_N = (0, 1, 2, 3, MAX_N, MAX_N + 1, -1)
N_DIRS = (7, 8, 9, 720, MAX_N_DIRS, MAX_N_DIRS + 1)


@st.composite
def grid_argv(draw):
    """regionmap or verify-envelope argv: a --range and --n, from flags or a
    config file that may also hold a rotated orthogonal frame, a --theta in
    [pi/4, pi/2) or at and beyond its edges, and sometimes --lambda, --tol
    and --n-dirs, each an edge value about one time in four:
    (argv, config or None, n)."""
    def edge_or(edges, ordinary):
        return draw(st.sampled_from(edges)) if draw(st.integers(0, 3)) == 0 else ordinary

    n = edge_or(GRID_N, draw(st.integers(1, 4)))
    bc_range = edge_or(RANGE_VALUES, draw(st.floats(0.5, 5.0)))
    argv, config = [], None
    if draw(st.booleans()):
        config = {"grid": {"range": bc_range, "n": n}}
        if draw(st.booleans()):
            config["slip"] = rotated_frame(draw(st.floats(0.0, 2.0 * math.pi)))
    else:
        argv += [f"--range={bc_range!r}", f"--n={n}"]
    if config is None or "slip" not in config:
        theta = repr(draw(st.floats(math.pi / 4, math.pi / 2, exclude_max=True)))
        argv.append(f"--theta={edge_or((*THETA_EDGES, '0.7', '1.6'), theta)}")
    if draw(st.integers(0, 3)) == 0:
        argv.append(f"--lambda={draw(st.sampled_from(LAMBDA_VALUES))}")
    if draw(st.integers(0, 3)) == 0:
        argv.append(f"--tol={draw(st.sampled_from(TOL_VALUES))}")
    if draw(st.booleans()):
        argv.append(f"--n-dirs={draw(st.sampled_from(N_DIRS))}")
    argv.append(draw(st.sampled_from(("regionmap", "verify-envelope"))))
    return argv, config, n


GRID_HEADERS = {"regionmap": "b,c,region,boundary,whom,lower,upper",
                "verify-envelope": "b,c,region,closed,oracle,discrepancy,slack_lo,slack_hi"}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=grid_argv())
@example(case=(["--n-dirs=8", "verify-envelope"], {"grid": {"range": 1e150, "n": 2},
                                                   "slip": rotated_frame(2.0)}, 2))
@example(case=(["--theta=1.5707963267948963", "--range=3.0", "--n=3", "regionmap"], None, 3))
# branch disagreement at tol 1e-1: exit 3
@example(case=(["--theta=1.413716694115407", "--tol=0.1", "--range=3.0", "--n=61", "regionmap"],
               None, 61))
@example(case=([f"--n={MAX_N}", "regionmap"], None, MAX_N))
@example(case=(["verify-envelope"], {"grid": {"range": 3.0, "n": MAX_N}}, MAX_N))
@example(case=(["--theta=0.9424777960769379", f"--n={MAX_N + 1}", "verify-envelope"], None,
               MAX_N + 1))
def test_grid_argv_exits_cleanly(case):
    # every argv ends in exit 0, 2 or 3 with no exception and no warning; an
    # exit-0 CSV holds the header and one row per grid cell, and a rerun into
    # the same --out writes the same bytes and says the same.  At and past
    # the cap the grid builders are stubbed: the cap may reach them, a larger
    # --n exits 2 before they are called, so the test builds no large grid
    argv, config, n = case
    with config_argv(argv, config) as argv:
        if n < MAX_N:
            code, csv = run_csv_argv_twice(argv)
        else:
            code, sizes = grid_builder_calls(argv)
    if n < MAX_N:
        if code == 0:
            lines = csv.decode().split("\n")
            assert lines[0] == GRID_HEADERS[argv[-1]] and lines[-1] == ""
            assert len(lines) == 2 + n * n
    elif n > MAX_N:
        assert code == 2 and sizes == []
    else:
        assert (code, sizes) in ((None, [MAX_N]), (2, []))
