"""Command-line front door: config parsing, subcommands, CSV/JSON emission.

Slip input by half-angle theta uses the convention v1 = (sin theta, cos theta),
v2 = (-sin theta, cos theta), i.e. the bisector v3 = -(v1+v2)/|v1+v2| points
along -e2 and (v1, v2) is right-handed with mutual angle 2*theta.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .algebra import bc_to_matrix, det2
from .energy import (Bounds, Known, SlipSystem, h, h_perp, h_perp_star, h_star,
                     w_hom, w_hom_scalar)
from .envelope_oracle import envelope_scan
from .errors import LamlabError
from .homogenize import run_sweep
from .laminate import decompose, verify_decomposition
from .regions import classify, region_map

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3

DEFAULTS = {
    "slip": {"theta": math.pi / 4},
    "lambda": 0.5,
    "tolerances": {"manifold": 1e-9},
    "grid": {"range": 3.0, "n": 61},
    "oracle": {"n_dirs": 720},
}


def fmt(x) -> str:
    """17-significant-digit decimal; empty for None; 'inf' for infinities."""
    if x is None:
        return ""
    x = float(x)
    if math.isinf(x):
        return "inf"
    return "%.17g" % x


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def load_config(args) -> dict:
    cfg = DEFAULTS
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = _merge(cfg, json.load(fh))
    flat = {}
    if getattr(args, "theta", None) is not None:
        flat["slip"] = {"theta": args.theta}
    if getattr(args, "lam", None) is not None:
        flat["lambda"] = args.lam
    if getattr(args, "tol", None) is not None:
        flat["tolerances"] = {"manifold": args.tol}
    if getattr(args, "grid_range", None) is not None:
        flat.setdefault("grid", {})["range"] = args.grid_range
    if getattr(args, "grid_n", None) is not None:
        flat.setdefault("grid", {})["n"] = args.grid_n
    if getattr(args, "n_dirs", None) is not None:
        flat["oracle"] = {"n_dirs": args.n_dirs}
    cfg = _merge(cfg, flat)
    _check_config(cfg)
    return cfg


def _check_config(cfg: dict) -> None:
    """Reject config values no command can run with, as usage errors (exit 2)."""
    try:
        s = slip_from_config(cfg)
        tol = float(cfg["tolerances"]["manifold"])
        bc_range = float(cfg["grid"]["range"])
        n = float(cfg["grid"]["n"])
        n_dirs = float(cfg["oracle"]["n_dirs"])
    except (LamlabError, TypeError) as exc:
        raise ValueError(f"config: {exc}") from None
    # comparisons with nan are false, so each check also rejects nan
    if not math.isfinite(s.theta):
        raise ValueError("config: the slip frame must be finite")
    if not 0.0 < tol < math.inf:
        raise ValueError("config: the manifold tolerance must be positive and finite")
    if not 0.0 < bc_range < math.inf:
        raise ValueError("config: the grid half-range must be positive and finite")
    if not (1.0 <= n < math.inf and n == int(n)):
        raise ValueError("config: the grid resolution must be an integer >= 1")
    if not (8.0 <= n_dirs < math.inf and n_dirs == int(n_dirs)):
        raise ValueError("config: the oracle direction count must be an integer >= 8")


def slip_from_config(cfg: dict) -> SlipSystem:
    slip = cfg["slip"]
    lam = float(cfg["lambda"])
    if "v1" in slip and "v2" in slip:
        return SlipSystem.from_vectors(slip["v1"], slip["v2"], lam)
    return SlipSystem.from_theta(float(slip["theta"]), lam)


def _parse_floats(text: str, count: int, what: str):
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} expects {count} comma-separated numbers")
    return [_parse_number(p) for p in parts]


def _parse_number(token: str) -> float:
    token = token.strip()
    if "/" in token:
        num, den = token.split("/", 1)
        if float(den) == 0.0:
            raise ValueError(f"{token!r} divides by zero")
        x = float(num) / float(den)
    else:
        x = float(token)
    if not math.isfinite(x):
        raise ValueError(f"{token!r} is not a finite number")
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


def _write_csv(path: str, header: list, rows: list):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args) -> int:
    cfg = load_config(args)
    s = slip_from_config(cfg)
    tol = float(cfg["tolerances"]["manifold"])
    f = _matrix_from_args(args)
    label = classify(f, s, tol)
    out = {"region": label.tag, "boundary": sorted(label.boundary),
           "det_residual": abs(det2(f) - 1.0)}
    if label.tag != "OffManifold":
        out.update(_energy_json(w_hom(f, s, tol)))
    print(json.dumps(out, sort_keys=True))
    return EXIT_DOMAIN if label.tag == "OffManifold" else EXIT_OK


def cmd_laminate(args) -> int:
    cfg = load_config(args)
    s = slip_from_config(cfg)
    tol = float(cfg["tolerances"]["manifold"])
    f = _matrix_from_args(args)
    d = decompose(f, s, tol)
    report = verify_decomposition(d, f, s)
    out = {
        "kind": d.kind,
        "mu": d.mu,
        "energy": d.energy,
        "f_plus": d.f_plus.tolist(),
        "f_minus": d.f_minus.tolist(),
        "direction": {"a": list(map(float, d.direction[0])),
                      "n": list(map(float, d.direction[1]))},
        "degenerate_tie": d.degenerate_tie,
        "residuals": {
            "convex_combination": report.convex_combination,
            "rank_one": report.rank_one,
            "manifold": report.manifold,
            "energy_equality": report.energy_equality,
            "preserved_vector": report.preserved_vector,
        },
    }
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_verify_envelope(args) -> int:
    cfg = load_config(args)
    s = slip_from_config(cfg)
    rows = envelope_scan(s, float(cfg["grid"]["range"]), int(cfg["grid"]["n"]),
                         n_dirs=int(cfg["oracle"]["n_dirs"]),
                         tol=float(cfg["tolerances"]["manifold"]))
    table = []
    for r in rows:
        table.append([fmt(r.b), fmt(r.c), r.region, fmt(r.closed), fmt(r.oracle),
                      fmt(r.discrepancy), fmt(r.slack_lo), fmt(r.slack_hi)])
    _write_csv(args.out, ["b", "c", "region", "closed", "oracle",
                          "discrepancy", "slack_lo", "slack_hi"], table)
    return EXIT_OK


def cmd_regionmap(args) -> int:
    cfg = load_config(args)
    s = slip_from_config(cfg)
    cells = region_map(s, float(cfg["grid"]["range"]), int(cfg["grid"]["n"]),
                       tol=float(cfg["tolerances"]["manifold"]))
    table = []
    for cell in cells:
        whom = lower = upper = None
        if isinstance(cell.energy, Known):
            whom = cell.energy.value.as_float()
        else:
            lower, upper = cell.energy.lower, cell.energy.upper
        table.append([fmt(cell.b), fmt(cell.c), cell.label.tag,
                      ";".join(sorted(cell.label.boundary)),
                      fmt(whom), fmt(lower), fmt(upper)])
    _write_csv(args.out, ["b", "c", "region", "boundary", "whom", "lower", "upper"],
               table)
    return EXIT_OK


def cmd_hplot(args) -> int:
    cfg = load_config(args)
    s = slip_from_config(cfg)
    theta = s.theta
    zs = np.linspace(0.0, args.zmax, args.samples)
    table = []
    for z in zs:
        z = float(z)
        hs = h_star(z, theta) if z >= math.sin(theta) else None
        hps = h_perp_star(z, theta) if z >= math.cos(theta) else None
        table.append([fmt(z), fmt(h(z, theta)), fmt(hs),
                      fmt(h_perp(z, theta)), fmt(hps)])
    _write_csv(args.out, ["z", "h", "h_star", "h_perp", "h_perp_star"], table)
    return EXIT_OK


def cmd_homogenize(args) -> int:
    cfg = load_config(args)
    s = slip_from_config(cfg)
    bands = []
    for chunk in args.gamma_bands.split(","):
        gamma, edge = chunk.split(":")
        bands.append((_parse_number(gamma), _parse_number(edge)))
    eps_list = [_parse_number(tok) for tok in args.eps_list.split(",")]
    hlam = _parse_number(args.hlam)
    if not all(eps > 0.0 for eps in eps_list):
        raise ValueError("--eps-list entries must be positive")
    if not hlam > 0.0:
        raise ValueError("--hlam must be positive")
    if args.cells_per_feature < 4:
        raise ValueError("--cells-per-feature must be at least 4, the fewest cells "
                         "a feature may span")
    reports = run_sweep(s, np.eye(2), bands, eps_list, laminate_period=hlam,
                        cells_per_feature=args.cells_per_feature)
    table = [[fmt(r.epsilon), fmt(hlam), fmt(r.e_eps), fmt(r.target),
              fmt(r.rel_error), fmt(r.flagged_area)] for r in reports]
    _write_csv(args.out, ["epsilon", "hlam", "e_eps", "target", "rel_error",
                          "flagged_area"], table)
    return EXIT_OK


def cmd_whomgamma(args) -> int:
    cfg = load_config(args)
    s = slip_from_config(cfg)
    lo, hi, n = args.gamma_range.split(":")
    lo, hi, n = _parse_number(lo), _parse_number(hi), int(n)
    gammas = np.linspace(lo, hi, n)
    table = [[fmt(float(g)), fmt(w_hom_scalar(float(g), s))] for g in gammas]
    _write_csv(args.out, ["gamma", "whom"], table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
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
                   help="comma list gamma:right_edge, edges ending at the domain side")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LamlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
