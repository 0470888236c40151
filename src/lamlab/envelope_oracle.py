"""Brute-force first-order lamination oracle.

Independently estimates the lamination envelope of the condensed density by
exhaustive search over determinant-preserving rank-one lines through the
target: for each direction the line meets the slip manifolds in at most four
points, and the best direction is refined by golden-section search.  Used to
certify the closed-form envelopes and bounds.

The determinant stays 1 along each line, so the chord identity of
`_direction_energy` makes the nearest root on each side of t = 0 the best
two-point laminate on it; no other pair of roots is formed.

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

from .algebra import Mat
from .energy import (DEFAULT_TOL, INFINITE, ExtendedEnergy, SlipSystem, off_manifold,
                     slip_state)
from .errors import OffManifold, PreconditionError
from .laminate import LaminateDecomposition
from .regions import CODE, RegionMap, region_map

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

_ROOT_EPS = 1e-13
_REFINE_WIDTH = 1e-8

# Cell x direction elements per coarse-scan chunk (16 cells at 720 directions),
# so that --n-dirs cannot grow the working set.  Oracle time for the 3721 cells
# of a 61^2 grid at 720 directions (fastest of four interleaved sets of 8 runs,
# which spread by up to 35 %; 2-vCPU Xeon VM, NumPy 2.4.6), and peak RSS of the
# process:
#   cells per chunk  2     4     8     16    24    32    64    256   3721
#   pi/4 oracle s    0.35  0.23  0.16  0.14  0.13  0.14  0.13  0.15  0.32
#   0.3 pi oracle s  0.35  0.22  0.16  0.15  0.13  0.14  0.13  0.15  0.26
#   peak RSS MB      31    31    31    32    33    33    36    52    276
# 24 to 64 cells ran up to 19 % faster than 16 within a set, less than the
# spread between sets; 16 keeps the smaller working set.
_CHUNK_ELEMENTS = 16 * 720


def _cross(cos, sin, v0: float, v1: float):
    """v x m = v0 sin - v1 cos = -(m_perp . v) for m = (cos, sin) and a unit v.

    Written as (sin - s v1) v0 - (cos - s v0) v1 with s = sign(m . v): where m
    is nearly parallel to +-v both differences are exact, so the result keeps
    a relative error of a few ulp instead of the eps / |v x m| of the direct
    form.
    """
    sign = np.copysign(1.0, cos * v0 + sin * v1)
    return (sin - sign * v1) * v0 - (cos - sign * v0) * v1


def _nearest(neg, pos, t):
    """Fold the roots t into the nearest root on each side of t = 0."""
    np.fmax(neg, t, out=neg, where=t <= 0.0)
    np.fmin(pos, t, out=pos, where=t >= 0.0)


def _direction_energy(fs: np.ndarray, cos, sin, s: SlipSystem, pair: bool = False):
    """Best two-point laminate on the lines F(I + t m (x) m_perp), m = (cos, sin).

    `fs` is a stack [N, 2, 2]; `cos` and `sin` broadcast against [N, 1]: one
    row of directions shared by every matrix, or one column of directions per
    matrix.

    Along the line F(t) v = F v + t (m_perp . v) F m, so u = (m_perp . v) t
    solves |F m|^2 u^2 + 2 p u + |F v|^2 - 1 = 0 (v = v1, v2) with
    p = F m . F v.  By identity (F1) its reduced discriminant
    p^2 - |F m|^2 (|F v|^2 - 1) is |F m|^2 - det(F)^2 (m_perp . v)^2, free of
    the cancellation of the expanded coefficients at large |F|.  With
    w = p + sign(p) sqrt(disc) the root nearer u = 0 is -(|F v|^2 - 1) / w,
    exact for every m_perp . v != 0 (it is also the root of the linear case
    (m_perp . v)^2 |F m|^2 ~ 0), and the far root is -w / |F m|^2.  The far
    root counts where (m_perp . v)^2 |F m|^2 > 1e-13 max(1, |F|^2) and
    |F v| <= 1: elsewhere it lies beyond the near root on the same side of
    t = 0.  m_perp . v = 0 gives no root.  F m is formed directly, not from
    F^T F, so |F m|^2 stays accurate where |F m| << |F|.

    det F(t) = det F on the line, so E(t) = |F(t)|^2 - 2 = w0 + 2 Fm.Fm_perp t
    + |F m|^2 t^2 with w0 = |F|^2 - 2, and the chord through the endpoints at
    roots ta <= 0 <= tb, evaluated at t = 0, is w0 - |F m|^2 ta tb.  The best
    bracketing pair is therefore the nearest root on each side of t = 0: the
    largest root <= 0 (neg) and the smallest root >= 0 (pos).

    Returns max(w0 - |F m|^2 neg pos, 0) per (matrix, direction), inf where
    no such pair is more than 1e-15 apart; with `pair` also (neg, pos) as
    (lo, hi), nan where none.
    """
    f00, f01, f10, f11 = (fs[:, i, j, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    fro = f00 * f00 + f01 * f01 + f10 * f10 + f11 * f11
    det = f00 * f11 - f01 * f10
    eps = _ROOT_EPS * np.maximum(1.0, fro)
    fm0, fm1 = f00 * cos + f01 * sin, f10 * cos + f11 * sin
    am2 = fm0 * fm0 + fm1 * fm1
    neg = np.full(am2.shape, np.nan)
    pos = np.full(am2.shape, np.nan)

    with np.errstate(divide="ignore", invalid="ignore"):
        for v0, v1 in (s.v1, s.v2):
            fv0, fv1 = f00 * v0 + f01 * v1, f10 * v0 + f11 * v1
            c0 = fv0 * fv0 + fv1 * fv1 - 1.0
            # vm = v x m = -(m_perp . v), nan where F(t) v does not move
            vm = _cross(cos, sin, v0, v1)
            vm = np.where(vm == 0.0, np.nan, vm)
            p = fm0 * fv0 + fm1 * fv1
            w = p + np.copysign(np.sqrt(am2 - (det * det) * (vm * vm)), p)
            near = c0 / (vm * w)
            sym = w == 0.0  # p = disc = 0: a double root at t = 0
            if sym.any():
                near = np.where(sym, w, near)
            _nearest(neg, pos, near)
            # the far root, on the rows with |F v| <= 1
            rows = np.flatnonzero(c0[:, 0] <= 0.0)
            if rows.size:
                vmr, am2r = np.broadcast_to(vm, am2.shape)[rows], am2[rows]
                den = vmr * am2r
                far = np.where(vmr * den > eps[rows], w[rows] / den, np.nan)
                nr, pr = neg[rows], pos[rows]
                _nearest(nr, pr, far)
                neg[rows], pos[rows] = nr, pr

        ok = pos - neg > 1e-15
        best = np.where(ok, np.maximum(fro - 2.0 - am2 * neg * pos, 0.0), np.inf)
    if pair:
        return best, np.where(ok, neg, np.nan), np.where(ok, pos, np.nan)
    return best


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
    value: np.ndarray     # min(coarse, refined, single), >= 0 as each of them is
    single: np.ndarray    # max(|F|^2 - 2, 0) where F lies on a slip manifold, else inf
    phi_best: np.ndarray  # direction of the better of the coarse and refined candidates


def _oracle(fs: np.ndarray, s: SlipSystem, n_dirs: int, tol: float) -> _Batch:
    """Oracle energies of a stack of unit-determinant matrices [N, 2, 2]."""
    if n_dirs < 8:
        raise PreconditionError("the direction grid needs at least 8 points")
    with np.errstate(invalid="ignore", over="ignore"):
        st = slip_state(fs[:, 0, 0], fs[:, 0, 1], fs[:, 1, 0], fs[:, 1, 1], s)
    if np.any(off_manifold(st, tol)):
        raise OffManifold("oracle targets must have unit determinant and a finite |F|^2")

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
    on = np.minimum(np.abs(st.d1), np.abs(st.d2)) <= tol
    single = np.where(on, np.maximum(st.fro - 2.0, 0.0), np.inf)
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
    energy = INFINITE if value == math.inf else ExtendedEnergy.finite(value)
    return OracleResult(value=energy, best=best_dec)


# ---------------------------------------------------------------------------
# grid certification scan


@dataclass(frozen=True)
class EnvelopeScan:
    """Oracle certification of a region map, one array entry per grid cell.

    Boundary-band and off-manifold cells are skipped: nan in every column
    below.  `closed` is the Known envelope value (nan on Bounds cells),
    `discrepancy` = |oracle - closed| on Known cells, and `slack_lo` =
    oracle - lower, `slack_hi` = upper - oracle on Bounds cells.
    """

    grid: RegionMap
    skipped: np.ndarray
    closed: np.ndarray
    oracle: np.ndarray
    discrepancy: np.ndarray
    slack_lo: np.ndarray
    slack_hi: np.ndarray


def envelope_scan(s: SlipSystem, bc_range: float, n: int, n_dirs: int = 720,
                  tol: float = DEFAULT_TOL) -> EnvelopeScan:
    """Certify the closed-form envelope against the oracle on a (b, c) grid.

    The cells come in the deterministic row-major grid order of
    `region_map`.  The oracle runs once over the matrices of all certified
    cells; each value equals `wlc_numeric` at that cell.
    """
    grid = region_map(s, bc_range, n, tol)
    skipped = (grid.boundary != 0) | (grid.code == CODE["OffManifold"])
    oracle = np.full(len(grid), np.nan)
    oracle[~skipped] = _oracle(grid.fs[~skipped], s, n_dirs, tol).value
    closed = np.where(skipped, np.nan, grid.whom)
    with np.errstate(invalid="ignore"):
        return EnvelopeScan(grid=grid, skipped=skipped, closed=closed, oracle=oracle,
                            discrepancy=np.abs(oracle - closed),
                            slack_lo=oracle - grid.lower, slack_hi=grid.upper - oracle)
