"""Command-line front door: config parsing, subcommands, CSV/JSON emission.

Slip input by half-angle theta uses the convention v1 = (sin theta, cos theta),
v2 = (-sin theta, cos theta), i.e. the bisector v3 = -(v1+v2)/|v1+v2| points
along -e2 and (v1, v2) is right-handed with mutual angle 2*theta.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .algebra import bc_to_matrix
from .energy import (DEFAULT_TOL, Bounds, Known, SlipSystem, h, h_perp, h_perp_star, h_star,
                     slip_state, w_hom, w_hom_arrays)
from .envelope_oracle import DEFAULT_N_DIRS, MAX_N_DIRS, envelope_scan
from .errors import LamlabError, PreconditionError
from .homogenize import DOMAIN_SIDE, EDGE_TOL, run_sweep
from .laminate import decompose, verify_decomposition
from .regions import adjacent_tags, classify, region_map

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# The most rows one CSV command writes, checked before anything is allocated:
# --n at most 1000 for regionmap and verify-envelope, hplot --samples and the
# whomgamma count at most 10^6.  At the cap a call peaks at 286-489 MiB RSS.
MAX_ROWS = 10 ** 6

DEFAULTS = {
    "slip": {"theta": math.pi / 4},
    "lambda": 0.5,
    "tolerances": {"manifold": DEFAULT_TOL},
    "grid": {"range": 3.0, "n": 61},
    "oracle": {"n_dirs": DEFAULT_N_DIRS},
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


@dataclass(frozen=True)
class Settings:
    """The checked config values the commands run with."""

    slip: SlipSystem
    tol: float
    bc_range: float
    n: int
    n_dirs: int


def _config_float(value, key: str) -> float:
    """float(value) of the config entry `key`; a ValueError that names the
    key for a string that is not a number."""
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"config: {key}: {value!r} is not a number") from None


def _config_vector(value, key: str):
    """A config slip vector with each string in it read by _config_float;
    the other entries are left to SlipSystem's shape and frame checks."""
    if isinstance(value, list):
        return [_config_vector(entry, key) for entry in value]
    return _config_float(value, key) if isinstance(value, str) else value


def read_settings(args) -> Settings:
    """DEFAULTS <- the JSON config file <- the flags, checked.

    A value no command can run with raises ValueError (a usage error, exit 2).
    """
    cfg = DEFAULTS
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config: the top level must be a JSON object")
        cfg = _merge(cfg, loaded)
    flat = {}
    if args.theta is not None:
        flat["slip"] = {"theta": args.theta}
    if args.lam is not None:
        flat["lambda"] = args.lam
    if args.tol is not None:
        flat["tolerances"] = {"manifold": args.tol}
    if args.grid_range is not None:
        flat.setdefault("grid", {})["range"] = args.grid_range
    if args.grid_n is not None:
        flat.setdefault("grid", {})["n"] = args.grid_n
    if args.n_dirs is not None:
        flat["oracle"] = {"n_dirs": args.n_dirs}
    cfg = _merge(cfg, flat)
    try:
        slip, lam = cfg["slip"], _config_float(cfg["lambda"], "lambda")
        if "v1" in slip and "v2" in slip:
            s = SlipSystem.from_vectors(_config_vector(slip["v1"], "slip.v1"),
                                        _config_vector(slip["v2"], "slip.v2"), lam)
        else:
            s = SlipSystem.from_theta(_config_float(slip["theta"], "slip.theta"), lam)
        tol = _config_float(cfg["tolerances"]["manifold"], "tolerances.manifold")
        bc_range = _config_float(cfg["grid"]["range"], "grid.range")
        n = _config_float(cfg["grid"]["n"], "grid.n")
        n_dirs = _config_float(cfg["oracle"]["n_dirs"], "oracle.n_dirs")
    except (LamlabError, TypeError) as exc:
        raise ValueError(f"config: {exc}") from None
    # comparisons with nan are false, so each check also rejects nan
    if not 0.0 < tol < math.inf:
        raise ValueError("config: the manifold tolerance must be positive and finite")
    if not 0.0 < bc_range < math.inf:
        raise ValueError("config: the grid half-range must be positive and finite")
    if not (1.0 <= n < math.inf and n == int(n)):
        raise ValueError("config: the grid resolution must be an integer >= 1")
    if n * n > MAX_ROWS:
        raise ValueError(f"config: the grid resolution must be at most {math.isqrt(MAX_ROWS)}")
    if not (8.0 <= n_dirs < math.inf and n_dirs == int(n_dirs)):
        raise ValueError("config: the oracle direction count must be an integer >= 8")
    if n_dirs > MAX_N_DIRS:
        raise ValueError(f"config: the oracle direction count must be an integer from 8 to "
                         f"{MAX_N_DIRS}")
    return Settings(s, tol, bc_range, int(n), int(n_dirs))


def _parse_floats(text: str, count: int, what: str):
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} expects {count} comma-separated numbers")
    return [_parse_number(p, what) for p in parts]


def _parse_number(token: str, what: str) -> float:
    """A finite number or fraction num/den of the option `what`; a
    ValueError that names the option otherwise."""
    token = token.strip()
    num, slash, den = token.partition("/")
    try:
        x, d = float(num), float(den) if slash else 1.0
    except ValueError:
        raise ValueError(f"{what}: {token!r} is not a number") from None
    if d == 0.0:
        raise ValueError(f"{what}: {token!r} divides by zero")
    x /= d
    if not math.isfinite(x):
        raise ValueError(f"{what}: {token!r} is not a finite number")
    return x


def _matrix_from_args(args):
    if (args.matrix is None) == (args.bc is None):
        raise ValueError("provide exactly one of --matrix or --bc")
    if args.matrix is not None:
        a, b, c, d = _parse_floats(args.matrix, 4, "--matrix")
        return np.array([[a, b], [c, d]])
    b, c = _parse_floats(args.bc, 2, "--bc")
    return bc_to_matrix(b, c)


def _energy_json(record) -> dict:
    if isinstance(record, Known):
        return {"whom": "inf" if not record.value.is_finite else record.value.value}
    assert isinstance(record, Bounds)
    return {"bounds": {"lower": record.lower, "upper": record.upper}}


# Columns of at least this many entries are grouped by value before they are
# formatted.  Grouping costs ~15-20 us a column, about as much as formatting
# 40 values, so a one-row `homogenize` table would pay it for nothing.
_GROUP_MIN = 64

# Rows a CSV block holds while it is formatted, joined, encoded and written:
# ~0.25 MB of regionmap text.  Float values are grouped per block, so mirror
# cells (c <-> -c), which share their values, are formatted once per block
# they fall in; in exchange no whole column's fields and 323 KB sort
# temporaries (~3 MB for a 201^2 regionmap) are ever held at once.
_WRITE_ROWS = 4096


def _format_column(col: np.ndarray) -> list:
    """Every entry of a float array as a 17-significant-digit decimal, nan
    as an empty field and both infinities as inf, with one % over the values
    formatted and the non-finite fields mended after it.

    Grid columns repeat most of their values, so a column of _GROUP_MIN or
    more entries is grouped by the bits of its entries (so -0.0 and 0.0 stay
    apart), each distinct value is formatted once, and every entry takes the
    field of its group: the same fields as formatting every entry.
    """
    values = np.asarray(col, dtype=np.float64)
    group = None
    if len(values) >= _GROUP_MIN:
        bits = values.view(np.int64)
        order = np.argsort(bits)
        ranked = bits[order]
        first = np.empty(len(ranked), dtype=bool)
        first[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
        group = np.empty(len(ranked), dtype=np.intp)
        group[order] = np.cumsum(first) - 1
        values = ranked[first].view(np.float64)
    text = ("%.17g\n" * len(values)) % tuple(values.tolist())
    fields = text.split("\n")[:-1]
    if "n" in text:  # only nan, inf and -inf spell an n
        fields = ["" if x == "nan" else "inf" if x == "-inf" else x for x in fields]
    return fields if group is None else np.array(fields, dtype=object)[group].tolist()


def _write_csv(path: str, columns: dict) -> None:
    """A CSV with one column per entry: a float array (`_format_column`) or
    a list of strings.

    The rows are formatted, joined, encoded and written _WRITE_ROWS at a
    time: the fields and text of one block are held at a time, not those of
    the table and its encoded copy.  A float column is grouped per block, so
    a value that recurs within a block is formatted once there.

    An existing file is overwritten in place and then cut to the length
    written, never truncated to zero first: on ext4 (auto_da_alloc) a file
    truncated to zero and rewritten starts its writeback at close, which
    made writing a 301-byte file take 0.10-0.15 ms instead of 7 us on a
    2-vCPU VM.  Only a regular file is cut; /dev/null and pipes cannot be.
    """
    count = len(next(iter(columns.values())))
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        for k in range(0, count, _WRITE_ROWS):
            part = slice(k, k + _WRITE_ROWS)
            fields = [_format_column(col[part]) if isinstance(col, np.ndarray) else col[part]
                      for col in columns.values()]
            block = list(map(",".join, zip(*fields)))
            block.append("")  # the block's last row ends in a newline too
            fh.write("\n".join(block).encode())
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args, cfg: Settings) -> int:
    f = _matrix_from_args(args)
    label = classify(f, cfg.slip, cfg.tol)
    # on Python floats: past the float range the residual is inf or nan, with no warning
    (a, b), (c, d) = f.tolist()
    residual = abs(a * d - b * c - 1.0)
    out = {"region": label.tag, "boundary": sorted(label.boundary),
           "det_residual": residual if math.isfinite(residual) else "inf"}
    if label.tag != "OffManifold":
        out.update(_energy_json(w_hom(f, cfg.slip, cfg.tol)))
    print(json.dumps(out, sort_keys=True))
    return EXIT_DOMAIN if label.tag == "OffManifold" else EXIT_OK


def cmd_laminate(args, cfg: Settings) -> int:
    f = _matrix_from_args(args)
    d = decompose(f, cfg.slip, cfg.tol)
    out = {
        "kind": d.kind,
        "mu": d.mu,
        "energy": d.energy,
        "f_plus": d.f_plus.tolist(),
        "f_minus": d.f_minus.tolist(),
        "direction": {"a": list(map(float, d.direction[0])),
                      "n": list(map(float, d.direction[1]))},
        "residuals": asdict(verify_decomposition(d, f, cfg.slip)),
    }
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_verify_envelope(args, cfg: Settings) -> int:
    scan = envelope_scan(cfg.slip, cfg.bc_range, cfg.n, n_dirs=cfg.n_dirs, tol=cfg.tol)
    grid = scan.grid
    _write_csv(args.out, {"b": grid.b, "c": grid.c, "region": grid.tags, "closed": scan.closed,
                          "oracle": scan.oracle, "discrepancy": scan.discrepancy,
                          "slack_lo": scan.slack_lo, "slack_hi": scan.slack_hi})
    return EXIT_OK


def cmd_regionmap(args, cfg: Settings) -> int:
    grid = region_map(cfg.slip, cfg.bc_range, cfg.n, tol=cfg.tol)
    boundary = grid.boundary.tolist()
    names = {bits: ";".join(sorted(adjacent_tags(bits))) for bits in set(boundary)}
    _write_csv(args.out, {"b": grid.b, "c": grid.c, "region": grid.tags,
                          "boundary": [names[bits] for bits in boundary],
                          "whom": grid.whom, "lower": grid.lower, "upper": grid.upper})
    return EXIT_OK


def cmd_hplot(args, cfg: Settings) -> int:
    if not (args.zmax >= 0.0 and args.zmax * args.zmax < math.inf):
        raise ValueError("--zmax must be nonnegative with a finite square")
    if args.samples > MAX_ROWS:
        raise ValueError(f"--samples must be at most {MAX_ROWS}")
    theta = cfg.slip.theta
    s, c = math.sin(theta), math.cos(theta)
    z = np.linspace(0.0, args.zmax, args.samples)
    with np.errstate(over="ignore"):  # as on floats, z^2 / s^2 may overflow to inf
        # the starred profiles are nan (an empty field) below their domain floors
        columns = {"z": z, "h": h(z, theta),
                   "h_star": np.where(z >= s, h_star(np.maximum(z, s), theta), np.nan),
                   "h_perp": h_perp(z, theta),
                   "h_perp_star": np.where(z >= c, h_perp_star(np.maximum(z, c), theta), np.nan)}
    _write_csv(args.out, columns)
    return EXIT_OK


def cmd_homogenize(args, cfg: Settings) -> int:
    bands = []
    for chunk in args.gamma_bands.split(","):
        gamma, colon, edge = chunk.partition(":")
        if not colon or ":" in edge:
            raise ValueError(f"--gamma-bands expects comma-separated gamma:right_edge pairs, "
                             f"not {chunk!r}")
        bands.append((_parse_number(gamma, "--gamma-bands"), _parse_number(edge, "--gamma-bands")))
        # the soft layers carry the shear gamma / lambda
        if not math.isfinite(bands[-1][0] / cfg.slip.lam):
            raise ValueError(f"--gamma-bands: band {chunk!r}: gamma / lambda is not finite")
    # the layout MicrostructureSpec requires, checked here as a usage error
    edges = [edge for _, edge in bands]
    if any(b <= a for a, b in zip([0.0] + edges[:-1], edges)):
        raise ValueError("--gamma-bands: the right edges must increase strictly from above 0")
    if abs(edges[-1] - DOMAIN_SIDE) > EDGE_TOL:
        raise ValueError(f"--gamma-bands: the last right edge must be {DOMAIN_SIDE:g}")
    eps_list = [_parse_number(tok, "--eps-list") for tok in args.eps_list.split(",")]
    hlam = _parse_number(args.hlam, "--hlam")
    if not all(0.0 < eps <= DOMAIN_SIDE for eps in eps_list):
        raise ValueError(f"--eps-list entries must lie in (0, {DOMAIN_SIDE:g}]")
    if not hlam > 0.0:
        raise ValueError("--hlam must be positive")
    if args.cells_per_feature < 4:
        raise ValueError("--cells-per-feature must be at least 4, the fewest cells "
                         "a feature may span")
    reports = run_sweep(cfg.slip, np.eye(2), bands, eps_list, laminate_period=hlam,
                        cells_per_feature=args.cells_per_feature)
    table = np.array([[r.epsilon, hlam, r.e_eps, r.target, r.rel_error, r.flagged_area]
                      for r in reports])
    _write_csv(args.out, dict(zip(["epsilon", "hlam", "e_eps", "target", "rel_error",
                                   "flagged_area"], table.T)))
    return EXIT_OK


def cmd_whomgamma(args, cfg: Settings) -> int:
    malformed = (f"--gamma-range expects lo:hi:count, count a nonnegative integer at most "
                 f"{MAX_ROWS}, not {args.gamma_range!r}")
    parts = args.gamma_range.split(":")
    if len(parts) != 3:
        raise ValueError(malformed)
    lo, hi = (_parse_number(end, "--gamma-range") for end in parts[:2])
    try:
        count = int(parts[2])
    except ValueError:
        raise ValueError(malformed) from None
    if count < 0:
        raise ValueError(malformed)
    if count > MAX_ROWS:
        raise ValueError(f"--gamma-range count must be at most {MAX_ROWS}")
    if not math.isfinite(hi - lo):
        raise ValueError("--gamma-range: hi - lo is not finite")
    gammas = np.linspace(lo, hi, count)
    # the soft layers carry the shear gamma / lambda
    with np.errstate(over="ignore"):
        shears = gammas / cfg.slip.lam
    overflow = ~np.isfinite(shears)
    if overflow.any():
        g = gammas[overflow.argmax()].item()
        raise ValueError(f"--gamma-range: gamma {g!r}: gamma / lambda is not finite")
    if count and not cfg.slip.is_orthogonal:  # an empty range writes its header at any angle
        raise PreconditionError("scalar form requires an orthogonal slip system")
    # W_hom of each shear (1, gamma / lambda; 0, 1), a block of rows at a time, at
    # the default tolerance: --tol does not move the curve.  An energy past the
    # float range is written inf, whether |F|^2 or only W_hom overflows
    whom = np.empty(count)
    for k in range(0, count, _WRITE_ROWS):
        with np.errstate(over="ignore"):
            st = slip_state(1.0, shears[k:k + _WRITE_ROWS], 0.0, 1.0, cfg.slip)
        whom[k:k + _WRITE_ROWS] = w_hom_arrays(st, cfg.slip)[0]
    _write_csv(args.out, {"gamma": gammas, "whom": whom})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="lamlab",
        description="Relaxation envelopes, optimal laminates and layered "
                    "homogenization for two-slip rigid plasticity in 2D.")
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--theta", type=float,
                        help="slip half-angle in radians; v1=(sin t, cos t), "
                             "v2=(-sin t, cos t), bisector v3=(0,-1)")
    parser.add_argument("--lambda", dest="lam", type=float, help="soft volume fraction")
    parser.add_argument("--tol", type=float, help="manifold membership tolerance")
    parser.add_argument("--range", dest="grid_range", type=float, help="bc-grid half-range")
    parser.add_argument("--n", dest="grid_n", type=int, help="bc-grid resolution")
    parser.add_argument("--n-dirs", dest="n_dirs", type=int, help="oracle direction count")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="region label and envelope value of a matrix")
    p.add_argument("--matrix", help="entries a,b,c,d row-major")
    p.add_argument("--bc", help="orbit coordinates b,c")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("laminate", help="optimal laminate decomposition of a matrix")
    p.add_argument("--matrix", help="entries a,b,c,d row-major")
    p.add_argument("--bc", help="orbit coordinates b,c")
    p.set_defaults(func=cmd_laminate)

    p = sub.add_parser("verify-envelope", help="oracle certification scan to CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify_envelope)

    p = sub.add_parser("regionmap", help="region/energy map over the bc-grid to CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_regionmap)

    p = sub.add_parser("hplot", help="envelope profile curves to CSV")
    p.add_argument("--zmax", type=float, default=3.0)
    p.add_argument("--samples", type=int, default=301)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hplot)

    p = sub.add_parser("homogenize", help="layer-period energy sweep to CSV")
    p.add_argument("--gamma-bands", required=True,
                   help="comma list gamma:right_edge, edges ending at 1")
    p.add_argument("--eps-list", required=True, help="comma list of layer periods")
    p.add_argument("--hlam", default="0.25",
                   help="laminate period as a fraction of eps*lambda")
    p.add_argument("--cells-per-feature", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_homogenize)

    p = sub.add_parser("whomgamma", help="scalar shear energy curve to CSV")
    p.add_argument("--gamma-range", required=True, help="lo:hi:count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_whomgamma)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, read_settings(args))
    except (ValueError, KeyError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LamlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
