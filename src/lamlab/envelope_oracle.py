"""Brute-force first-order lamination oracle.

Independently estimates the lamination envelope of the condensed density by
exhaustive search over determinant-preserving rank-one lines through the
target: for each direction the line meets the slip manifolds in at most four
points, every bracketing pair yields a two-point laminate candidate, and the
best direction is refined by golden-section search.  Used to certify the
closed-form envelopes and bounds.

One NumPy kernel evaluates a stack of matrices against their directions; the
grid scan feeds it every certified cell at once (the coarse scan in chunks of
fixed size, the refinement in lock-step) and `wlc_numeric` is its
single-matrix caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Mat, bc_to_matrix
from .energy import DEFAULT_TOL, Bounds, ExtendedEnergy, Known, SlipSystem
from .errors import OffManifold, PreconditionError
from .laminate import LaminateDecomposition
from .regions import RegionCell, region_map

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

_ROOT_EPS = 1e-13
_REFINE_WIDTH = 1e-8

# Cell x direction elements per coarse-scan chunk (16 cells at 720 directions),
# so that --n-dirs cannot grow the working set.  Oracle time for the 3721 cells
# of a 61^2 grid at 720 directions, theta = 0.3 pi (best of 7, two runs; 2-vCPU
# Xeon VM, NumPy 2.4.6), and peak RSS of the process:
#   cells per chunk  2     4     8     16         32    64    256   3721
#   oracle s         1.10  0.57  0.42  0.39-0.42  0.51  0.50  0.68  1.59
#   peak RSS MB      33    33    33    35         37    42    69    544
_CHUNK_ELEMENTS = 16 * 720


def _direction_energy(fs: np.ndarray, cos, sin, s: SlipSystem, pair: bool = False):
    """Best two-point laminate on the lines F(I + t m (x) m_perp), m = (cos, sin).

    `fs` is a stack [N, 2, 2]; `cos` and `sin` broadcast against [N, 1]: one
    row of directions shared by every matrix, or one column of directions per
    matrix.  The line meets the manifold |F v| = 1 (v = v1, v2) where
    alpha t^2 + beta t + c0 = 0; each root gets one Newton polish step, and
    every pair of roots bracketing t = 0 is a laminate candidate.

    Returns the best candidate energy per (matrix, direction), inf where no
    pair brackets; with `pair` also the roots (lo, hi) of that pair, nan where
    none.  The per-direction quantities come from G = F^T F and the shared
    cos^2, sin cos, sin^2.
    """
    f00, f01, f10, f11 = (fs[:, i, j, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    g00 = f00 * f00 + f10 * f10
    g01 = f00 * f01 + f10 * f11
    g11 = f01 * f01 + f11 * f11
    fro = f00 * f00 + f01 * f01 + f10 * f10 + f11 * f11
    eps = _ROOT_EPS * np.maximum(1.0, fro)
    cc, cs, ss = cos * cos, cos * sin, sin * sin
    am2 = g00 * cc + 2.0 * g01 * cs + g11 * ss       # |F m|^2
    drift2 = 2.0 * ((g11 - g00) * cs + g01 * (cc - ss))  # 2 F m . F m_perp
    w0 = fro - 2.0

    roots, energies = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for v0, v1 in (s.v1, s.v2):
            fv0, fv1 = f00 * v0 + f01 * v1, f10 * v0 + f11 * v1
            c0 = fv0 * fv0 + fv1 * fv1 - 1.0
            mv = cos * v1 - sin * v0  # m_perp . v
            alpha = mv * mv * am2
            # F m . F v = m . (F^T F v)
            beta = 2.0 * mv * (cos * (f00 * fv0 + f10 * fv1) + sin * (f01 * fv0 + f11 * fv1))
            quad = alpha > eps
            # nan outside the quadratic case carries through both roots
            a = np.where(quad, alpha, np.nan)
            q = -0.5 * (beta + np.copysign(np.sqrt(beta * beta - 4.0 * a * c0), beta))
            r1, r2 = q / a, c0 / q
            sym = q == 0.0  # beta == 0: roots +- sqrt(-c0 / alpha)
            if sym.any():
                r = np.sqrt(np.maximum(-c0 / np.where(sym, alpha, 1.0), 0.0))
                r1, r2 = np.where(sym, -r, r1), np.where(sym, r, r2)
            lin = ~quad & (np.abs(beta) > eps)
            if lin.any():
                r1 = np.where(lin, -c0 / beta, r1)
            for t in (r1, r2):
                dg = 2.0 * alpha * t + beta
                t = np.where(dg != 0.0, t - ((alpha * t + beta) * t + c0) / dg, t)
                roots.append(t)
                energies.append(np.maximum(w0 + (drift2 + t * am2) * t, 0.0))

        best = np.full(am2.shape, np.inf)
        lo = hi = np.full(am2.shape, np.nan)
        for i in range(4):
            for j in range(i + 1, 4):
                ta, tb = roots[i], roots[j]
                gap = tb - ta
                # the chord through both endpoints evaluated at t = 0
                cand = (tb * energies[i] - ta * energies[j]) / gap
                better = (ta * tb <= 0.0) & (np.abs(gap) > 1e-15) & (cand < best)
                best = np.where(better, cand, best)
                if pair:
                    lo = np.where(better, np.minimum(ta, tb), lo)
                    hi = np.where(better, np.maximum(ta, tb), hi)
    return (best, lo, hi) if pair else best


def _at(fs: np.ndarray, s: SlipSystem, phi: np.ndarray, pair: bool = False):
    """The kernel at one direction per matrix."""
    out = _direction_energy(fs, np.cos(phi)[:, None], np.sin(phi)[:, None], s, pair)
    return tuple(x[:, 0] for x in out) if pair else out[:, 0]


def _golden(fs: np.ndarray, s: SlipSystem, center: np.ndarray, half: float) -> np.ndarray:
    """Golden-section minimization of the per-direction energy, all matrices in lock-step.

    Every bracket [center - half, center + half] has the same width, so every
    matrix takes the same number of steps: as many as shrink the gap between
    the two interior points to at most _REFINE_WIDTH.  Each step evaluates one
    new direction per matrix.
    """
    a, b = center - half, center + half
    steps, gap = 0, 2.0 * half * (2.0 / GOLDEN - 1.0)
    while gap > _REFINE_WIDTH:
        gap /= GOLDEN
        steps += 1
    c = b - (b - a) / GOLDEN
    d = a + (b - a) / GOLDEN
    fc, fd = _at(fs, s, c), _at(fs, s, d)
    for _ in range(steps):
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - (b - a) / GOLDEN, a + (b - a) / GOLDEN)
        fx = _at(fs, s, x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    return 0.5 * (a + b)


@dataclass(frozen=True)
class _Batch:
    value: np.ndarray     # min(coarse, refined, single), not yet clamped at 0
    single: np.ndarray    # max(|F|^2 - 2, 0) where F lies on a slip manifold, else inf
    phi_best: np.ndarray  # direction of the better of the coarse and refined candidates


def _oracle(fs: np.ndarray, s: SlipSystem, n_dirs: int, tol: float) -> _Batch:
    """Oracle energies of a stack of unit-determinant matrices [N, 2, 2]."""
    if n_dirs < 8:
        raise PreconditionError("the direction grid needs at least 8 points")
    det = fs[:, 0, 0] * fs[:, 1, 1] - fs[:, 0, 1] * fs[:, 1, 0]
    if np.any(np.abs(det - 1.0) > tol):
        raise OffManifold("oracle targets must have unit determinant")

    step = math.pi / n_dirs
    phis = np.arange(n_dirs) * step
    cos, sin = np.cos(phis), np.sin(phis)
    n = len(fs)
    coarse, phi_coarse = np.empty(n), np.empty(n)
    chunk = max(1, _CHUNK_ELEMENTS // n_dirs)
    for start in range(0, n, chunk):
        energy = _direction_energy(fs[start:start + chunk], cos, sin, s)
        i_best = np.argmin(energy, axis=1)
        coarse[start:start + chunk] = energy[np.arange(len(i_best)), i_best]
        phi_coarse[start:start + chunk] = phis[i_best]

    phi_star = _golden(fs, s, phi_coarse, step)
    refined = _at(fs, s, phi_star)
    off = np.minimum(np.abs(np.linalg.norm(fs @ s.v1, axis=-1) - 1.0),
                     np.abs(np.linalg.norm(fs @ s.v2, axis=-1) - 1.0))
    fro = fs[:, 0, 0] ** 2 + fs[:, 0, 1] ** 2 + fs[:, 1, 0] ** 2 + fs[:, 1, 1] ** 2
    single = np.where(off <= tol, np.maximum(fro - 2.0, 0.0), np.inf)
    return _Batch(value=np.minimum(np.minimum(coarse, refined), single), single=single,
                  phi_best=np.where(refined <= coarse, phi_star, phi_coarse))


@dataclass(frozen=True)
class OracleResult:
    value: ExtendedEnergy
    best: Optional[LaminateDecomposition]


def wlc_numeric(f: Mat, s: SlipSystem, n_dirs: int = 720,
                tol: float = DEFAULT_TOL) -> OracleResult:
    """Numeric lamination envelope at a unit-determinant matrix.

    Scans n_dirs uniformly spaced rank-one directions on [0, pi), refines the
    best one by golden-section search, and includes the single-point
    candidate when F itself lies on a slip manifold.
    """
    fs = np.asarray(f, dtype=float)[None]
    batch = _oracle(fs, s, n_dirs, tol)
    value, single = float(batch.value[0]), float(batch.single[0])

    best_dec = None
    if math.isfinite(single) and single <= value:
        best_dec = LaminateDecomposition(
            f_plus=f.copy(), f_minus=f.copy(), mu=0.5,
            direction=(s.v3, s.v3_perp), energy=single, kind="CaseOnManifold")
    else:
        phi = float(batch.phi_best[0])
        energy, lo, hi = (float(x[0]) for x in _at(fs, s, batch.phi_best, pair=True))
        if math.isfinite(energy):
            m = np.array([math.cos(phi), math.sin(phi)])
            mperp = np.array([-m[1], m[0]])
            f_lo = f @ (np.eye(2) + lo * np.outer(m, mperp))
            f_hi = f @ (np.eye(2) + hi * np.outer(m, mperp))
            best_dec = LaminateDecomposition(
                f_plus=f_hi, f_minus=f_lo, mu=-lo / (hi - lo),
                direction=(m, mperp), energy=value, kind="UpperBoundOnly")
    return OracleResult(value=ExtendedEnergy.finite(max(value, 0.0)), best=best_dec)


# ---------------------------------------------------------------------------
# grid certification scan


@dataclass(frozen=True)
class ScanRow:
    b: float
    c: float
    region: str
    skipped: bool
    closed: Optional[float]     # Known envelope value (None on Bounds cells)
    lower: Optional[float]
    upper: Optional[float]
    oracle: Optional[float]
    discrepancy: Optional[float]  # |oracle - closed| on Known cells
    slack_lo: Optional[float]     # oracle - lower on Bounds cells
    slack_hi: Optional[float]     # upper - oracle on Bounds cells


def _skipped(cell: RegionCell) -> bool:
    return cell.label.on_boundary or cell.label.tag == "OffManifold"


def _scan_row(cell: RegionCell, oracle: Optional[float]) -> ScanRow:
    if oracle is None:
        return ScanRow(b=cell.b, c=cell.c, region=cell.label.tag, skipped=True,
                       closed=None, lower=None, upper=None, oracle=None,
                       discrepancy=None, slack_lo=None, slack_hi=None)
    if isinstance(cell.energy, Known):
        closed = cell.energy.value.as_float()
        return ScanRow(b=cell.b, c=cell.c, region=cell.label.tag, skipped=False,
                       closed=closed, lower=None, upper=None, oracle=oracle,
                       discrepancy=abs(oracle - closed), slack_lo=None, slack_hi=None)
    bounds: Bounds = cell.energy
    return ScanRow(b=cell.b, c=cell.c, region=cell.label.tag, skipped=False,
                   closed=None, lower=bounds.lower, upper=bounds.upper, oracle=oracle,
                   discrepancy=None, slack_lo=oracle - bounds.lower,
                   slack_hi=bounds.upper - oracle)


def envelope_scan(s: SlipSystem, bc_range: float, n: int, n_dirs: int = 720,
                  tol: float = DEFAULT_TOL) -> list:
    """Certify the closed-form envelope against the oracle on a (b, c) grid.

    Returns ScanRow entries in the deterministic row-major grid order;
    boundary-band cells are emitted but marked skipped.  The oracle runs once
    over all certified cells; each value equals `wlc_numeric` at that cell.
    """
    cells = region_map(s, bc_range, n, tol)
    live = [cell for cell in cells if not _skipped(cell)]
    fs = np.array([bc_to_matrix(cell.b, cell.c) for cell in live]).reshape(-1, 2, 2)
    values = iter(np.maximum(_oracle(fs, s, n_dirs, tol).value, 0.0).tolist())
    return [_scan_row(cell, None if _skipped(cell) else next(values)) for cell in cells]
