"""Brute-force first-order lamination oracle.

Independently estimates the lamination envelope of the condensed density by
exhaustive search over determinant-preserving rank-one lines through the
target: for each direction the line meets the slip manifolds in at most four
points, and the scan zooms in on the best direction.  Used to certify the
closed-form envelopes and bounds.

Every target is first evaluated at the paper's four laminate directions.  The
best of them gives a convex dual lower bound (`dual_lower`); where the value
meets that bound within _CERTIFY_RTOL it is the envelope to that tolerance,
and only the other targets are scanned at the full direction count.

One NumPy kernel evaluates a stack of matrices against their directions, in
three parts: the per-matrix factors (`_prepare`), the per-direction factors
(`_directions`) and the per-pair core (`_core`), which writes into buffers
its caller owns (`_Workspace`).  The grid scan prepares every certified cell
once; one direction scan (`_coarse_scan`), in chunks of fixed size through
one reused workspace, serves the four laminate directions, the rescan and
each level of its zoom.  `_direction_energy` composes the three parts for a
single call, and `wlc_numeric` is the single-matrix caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .algebra import Mat, RankOneLine, perp
from .energy import (DEFAULT_TOL, ExtendedEnergy, SlipSystem, off_manifold, slip_state,
                     w_on_manifold)
from .errors import OffManifold, PreconditionError
from .laminate import LaminateDecomposition, decompose, laminate_on_line
from .regions import CODE, RegionMap, region_map

DEFAULT_N_DIRS = 720

_ROOT_EPS = 1e-13

# The rescan's zoom: intervals per level, and the half-width at which it stops.
# Refining the 36 cells a 61^2 range-3 grid at 0.3 pi rescans took 1.6-1.8 ms
# at 16 intervals, 1.4-2.3 at 32 and 2.0-3.1 at 8 (golden-section search:
# 3.0-4.1 ms), the 624 at 0.45 pi 7.3-10.6, 13.7-16.4 and 6.9-7.9 ms (golden:
# 4.8-8.7): 32 loses where many cells are rescanned, 8 where few are.  Fastest
# of 15, 5 interleaved sets, 2-vCPU VM, NumPy 2.4.6.
_ZOOM = 16
_REFINE_WIDTH = 1e-8

# Cell x direction elements per coarse-scan chunk (16 cells at 720 directions,
# 2880 at the four laminate directions, one cell and a span of as many
# directions beyond them), so that --n-dirs cannot grow the working set.  With
# every cell of a 61^2 grid scanned at 720 directions (2-vCPU Xeon VM, NumPy
# 2.4.6), 16 to 128 cells per chunk lay within 12 % of each other in oracle
# time, less than the spread between sets of runs, 256 cells 24-37 % above
# 16, and peak RSS grew from 32.1 MB at 16 cells to 48.0 MB at 256.
_CHUNK_ELEMENTS = 16 * 720

# The relative gap to the dual bound within which a value stands without the
# n_dirs scan, and the cells per block of the dual bound.  A block pays ~100
# NumPy calls of `_lstsq` and up to _NEWTON_STEPS of `_circle_min` whatever
# its size, and its values do not depend on the size.  The dual of the 3,721
# cells of a 61^2 range-3 grid at pi/4, 0.3 pi and 0.45 pi took 7.1-7.3 ms in
# blocks of 480 cells, 5.3-5.4 at 1,024, 4.2-4.4 at 2,048 and 4.3-4.8 at 4,096
# (fastest of 50, 10 interleaved sets, 2-vCPU VM, NumPy 2.4.6); its
# tracemalloc peak at 0.3 pi is 0.57, 1.03, 1.83 and 3.23 MB.
_CERTIFY_RTOL = 1e-9
_DUAL_CELLS = 2048

# Newton steps of `_circle_min` at most; 7 reach its tolerance on seeded B
# whose entries span twelve decades.
_NEWTON_STEPS = 16


def _cross(cos, sin, v0: float, v1: float):
    """v x m = v0 sin - v1 cos = -(m_perp . v) for m = (cos, sin) and a unit v.

    Written as (sin - s v1) v0 - (cos - s v0) v1 with s = sign(m . v): where m
    is nearly parallel to +-v both differences are exact, so the result keeps
    a relative error of a few ulp instead of the eps / |v x m| of the direct
    form.
    """
    sign = np.copysign(1.0, cos * v0 + sin * v1)
    return (sin - sign * v1) * v0 - (cos - sign * v0) * v1


class _Slip(NamedTuple):
    fv0: np.ndarray  # F v, as [N, 1] columns
    fv1: np.ndarray
    c0: np.ndarray   # |F v|^2 - 1
    low: np.ndarray  # |F v| <= 1 as a flat mask: the rows where the far root counts


class _Cells(NamedTuple):
    """What the kernel needs of each matrix, as [N, 1] columns."""

    f00: np.ndarray
    f01: np.ndarray
    f10: np.ndarray
    f11: np.ndarray
    w0: np.ndarray    # |F|^2 - 2
    det2: np.ndarray  # det(F)^2
    eps: np.ndarray   # the far-root threshold _ROOT_EPS max(1, |F|^2)
    slips: tuple      # one _Slip per slip vector v1, v2

    def rows(self, part) -> "_Cells":
        """The cells at `part`, a slice or an index array."""
        *columns, slips = self
        return _Cells(*(x[part] for x in columns),
                      tuple(_Slip(*(x[part] for x in v)) for v in slips))


def _prepare(fs: np.ndarray, s: SlipSystem) -> _Cells:
    f00, f01, f10, f11 = (fs[:, i, j, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    fro = f00 * f00 + f01 * f01 + f10 * f10 + f11 * f11
    det = f00 * f11 - f01 * f10
    slips = []
    for v0, v1 in (s.v1, s.v2):
        fv0, fv1 = f00 * v0 + f01 * v1, f10 * v0 + f11 * v1
        c0 = fv0 * fv0 + fv1 * fv1 - 1.0
        slips.append(_Slip(fv0, fv1, c0, c0[:, 0] <= 0.0))
    return _Cells(f00, f01, f10, f11, fro - 2.0, det * det,
                  _ROOT_EPS * np.maximum(1.0, fro), tuple(slips))


class _Directions(NamedTuple):
    """The directions m = (cos, sin): a [1, K] row shared by every matrix or
    an [N, K] table, one row per matrix."""

    cos: np.ndarray
    sin: np.ndarray
    vm: tuple   # per slip vector v: v x m = -(m_perp . v), nan where F(t) v does not move
    vm2: tuple  # per slip vector: vm * vm


def _directions(cos, sin, s: SlipSystem) -> _Directions:
    cos, sin = np.atleast_2d(cos, sin)
    vm = [_cross(cos, sin, v0, v1) for v0, v1 in (s.v1, s.v2)]
    vm = tuple(np.where(x == 0.0, np.nan, x) for x in vm)
    return _Directions(cos, sin, vm, tuple(x * x for x in vm))


class _Workspace(NamedTuple):
    """Buffers of the kernel for an [n, K] block, owned by the caller and
    overwritten by each `_core` call.  `energy` and `ok` (a pair more than
    1e-15 apart), `neg` and `pos` hold its result."""

    fm0: np.ndarray
    fm1: np.ndarray
    am2: np.ndarray
    p: np.ndarray
    w: np.ndarray
    near: np.ndarray
    neg: np.ndarray
    pos: np.ndarray
    tmp: np.ndarray
    energy: np.ndarray
    ok: np.ndarray

    @staticmethod
    def of(shape) -> "_Workspace":
        shape = tuple(shape)
        floats = np.empty((len(_Workspace._fields) - 1,) + shape)
        return _Workspace(*floats, np.empty(shape, dtype=bool))

    def block(self, n: int, k: int) -> "_Workspace":
        return _Workspace(*(x[:n, :k] for x in self))


def _nearest(neg, pos, t, mask):
    """Fold the roots t into the nearest root on each side of t = 0."""
    np.fmax(neg, t, out=neg, where=np.less_equal(t, 0.0, out=mask))
    np.fmin(pos, t, out=pos, where=np.greater_equal(t, 0.0, out=mask))


def _core(c: _Cells, d: _Directions, ws: _Workspace) -> None:
    """`_direction_energy` of prepared matrices and directions, into `ws`.

    Each line evaluates an expression of the kernel with the operands and in
    the order of the unbuffered form, only into buffers, so every value keeps
    its bits.  `ok` serves as a scratch mask until it takes the result.
    """
    fm0, fm1, am2, p, w, near, neg, pos, tmp, energy, ok = ws
    np.add(np.multiply(c.f00, d.cos, out=fm0), np.multiply(c.f01, d.sin, out=tmp), out=fm0)
    np.add(np.multiply(c.f10, d.cos, out=fm1), np.multiply(c.f11, d.sin, out=tmp), out=fm1)
    np.add(np.multiply(fm0, fm0, out=am2), np.multiply(fm1, fm1, out=tmp), out=am2)
    neg.fill(np.nan)
    pos.fill(np.nan)

    # a chord beyond the float range is inf, as it should be
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for (fv0, fv1, c0, low), vm, vm2 in zip(c.slips, d.vm, d.vm2):
            np.add(np.multiply(fm0, fv0, out=p), np.multiply(fm1, fv1, out=tmp), out=p)
            np.sqrt(np.subtract(am2, np.multiply(c.det2, vm2, out=w), out=w), out=w)
            np.add(p, np.copysign(w, p, out=w), out=w)
            np.divide(c0, np.multiply(vm, w, out=near), out=near)
            if np.equal(w, 0.0, out=ok).any():  # p = disc = 0: a double root at t = 0
                np.copyto(near, w, where=ok)
            _nearest(neg, pos, near, ok)
            # the far root, on the rows with |F v| <= 1, gathered; a row of
            # directions shared by every matrix serves them as it is
            rows = np.flatnonzero(low)
            if rows.size:
                vmr, am2r = (vm if len(vm) == 1 else vm[rows]), am2[rows]
                den = vmr * am2r
                far = np.where(vmr * den > c.eps[rows], w[rows] / den, np.nan)
                nr, pr = neg[rows], pos[rows]
                _nearest(nr, pr, far, np.empty(far.shape, dtype=bool))
                neg[rows], pos[rows] = nr, pr

        np.greater(np.subtract(pos, neg, out=tmp), 1e-15, out=ok)
        np.subtract(c.w0, np.multiply(np.multiply(am2, neg, out=tmp), pos, out=tmp), out=tmp)
        energy.fill(np.inf)
        np.maximum(tmp, 0.0, out=energy, where=ok)


def _direction_energy(fs: np.ndarray, cos, sin, s: SlipSystem, pair: bool = False):
    """Best two-point laminate on the lines F(I + t m (x) m_perp), m = (cos, sin).

    `fs` is a stack [N, 2, 2]; `cos` and `sin` broadcast against [N, 1]: one
    row of directions shared by every matrix, or one row of directions per
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
    cells, dirs = _prepare(fs, s), _directions(cos, sin, s)
    ws = _Workspace.of(np.broadcast_shapes(cells.w0.shape, dirs.cos.shape))
    _core(cells, dirs, ws)
    if pair:
        return ws.energy, np.where(ws.ok, ws.neg, np.nan), np.where(ws.ok, ws.pos, np.nan)
    return ws.energy


def _coarse_scan(cells: _Cells, s: SlipSystem, directions):
    """The best of `directions` per matrix, as (energy, phi): a count n of the
    uniformly spaced angles k pi / n on [0, pi), an array of angles shared by
    every matrix, or an [N, K] table of them, one row per matrix.

    The scan runs in blocks of at most _CHUNK_ELEMENTS cell x direction
    elements, all in one workspace: as many cells as fit against every
    direction, or, beyond _CHUNK_ELEMENTS directions, one cell at a time
    against one span of directions.  A shared span's direction factors are
    formed once, a table's per block.  The first span sets every best; a
    later one replaces it only where it is strictly lower, so ties keep the
    first direction, as argmin does.
    """
    uniform = np.ndim(directions) == 0
    n_dirs = int(directions) if uniform else np.shape(directions)[-1]
    n = len(cells.w0)
    width = min(n_dirs, _CHUNK_ELEMENTS)
    chunk = max(1, _CHUNK_ELEMENTS // n_dirs)
    coarse, phi_coarse = np.full(n, np.inf), np.zeros(n)
    work = _Workspace.of((min(chunk, n), width))
    for first in range(0, n_dirs, width):
        stop = min(first + width, n_dirs)
        span = (np.arange(first, stop)[None] * (math.pi / n_dirs) if uniform
                else np.atleast_2d(directions)[:, first:stop])
        shared = _directions(np.cos(span), np.sin(span), s) if len(span) == 1 else None
        for start in range(0, n, chunk):
            part = slice(start, min(start + chunk, n))
            phis = span if shared else span[part]
            ws = work.block(part.stop - start, stop - first)
            _core(cells.rows(part), shared or _directions(np.cos(phis), np.sin(phis), s), ws)
            i_best = np.argmin(ws.energy, axis=1)
            k = np.arange(len(i_best))
            best = ws.energy[k, i_best]
            lower = (best < coarse[part]) | (first == 0)
            coarse[part] = np.where(lower, best, coarse[part])
            phi_coarse[part] = np.where(lower, np.broadcast_to(phis, ws.energy.shape)[k, i_best],
                                        phi_coarse[part])
    return coarse, phi_coarse


def _laminate_angles(s: SlipSystem) -> np.ndarray:
    """The angles on [0, pi), ascending, of the directions m of `decompose`'s
    lines: v1_perp, v2_perp (single slip), v3 and v3_perp (the v3 lines and
    the CaseA / CaseAPerp bisectors); m and -m give the same line."""
    ms = np.array([perp(s.v1), perp(s.v2), s.v3, perp(s.v3)])
    phis = np.arctan2(ms[:, 1], ms[:, 0]) % math.pi
    return np.sort(np.where(phis < math.pi, phis, 0.0))  # -tiny % pi rounds to pi


def _scan(cells: _Cells, s: SlipSystem, n_dirs: int):
    """The scan of n_dirs directions, zoomed in on its best, as (energy, phi).

    Each zoom level scans _ZOOM + 1 directions per matrix, evenly spaced
    across +-half around the best so far with that best at the centre, and
    takes their spacing as the next half, until half <= _REFINE_WIDTH (7
    levels after 720 directions).  Every level contains its centre, so its
    best is never above the one before.
    """
    energy, phi = _coarse_scan(cells, s, n_dirs)
    steps = np.arange(-(_ZOOM // 2), _ZOOM // 2 + 1)
    half = math.pi / n_dirs
    while half > _REFINE_WIDTH:
        half *= 2.0 / _ZOOM
        energy, phi = _coarse_scan(cells, s, phi[:, None] + half * steps)
    return energy, phi


# ---------------------------------------------------------------------------
# convex dual lower bound


def _lstsq(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Least-squares solutions of a stack of systems a x = r, with the systems
    last: a [m, n, N], r [m, N], x [n, N].

    Householder QR, so the error of x grows with the condition number of a,
    not with its square as through the normal equations.  An unknown whose
    pivot is at most 1e-12 of the largest pivot of its system is set to 0.
    """
    a, r = a.copy(), r.copy()
    n = a.shape[1]
    for j in range(n):
        h = a[j:, j].copy()
        h[0] += np.copysign(np.sqrt((h * h).sum(axis=0)), h[0])
        hh = (h * h).sum(axis=0)
        scale = np.divide(2.0, hh, out=np.zeros_like(hh), where=hh > 0.0)
        sub = a[j:, j:]
        sub -= h[:, None] * (scale * (h[:, None] * sub).sum(axis=0))
        r[j:] -= h * (scale * (h * r[j:]).sum(axis=0))
    pivot = np.abs(a[range(n), range(n)])
    live = pivot > 1e-12 * pivot.max(axis=0)
    x = np.zeros(a.shape[1:])
    for j in reversed(range(n)):
        rest = r[j] - (a[j, j + 1:] * x[j + 1:]).sum(axis=0)
        x[j] = np.where(live[j], rest / np.where(live[j], a[j, j], 1.0), 0.0)
    return x


def _circle_min(p0, p1, q0, q1):
    """min over unit z of -(p . z) - (q . z)^2 / 4, for arrays p = (p0, p1)
    and q = (q0, q1).

    In the frame (e, e_perp) of e = q / |q| write z = (y1, y2), p = (a, b) and
    k = |q|^2 / 4: the function is -a y1 - b y2 - k y1^2, a quadratic on the
    unit circle as in the trust-region subproblem.  Its stationary points are
    the real roots of a quartic; it is solved here through its dual instead.
    For every u > 0 the Lagrangian with multiplier u + k is convex, and its
    least value over the plane,

        D(u) = -a^2 / (4 u) - b^2 / (4 (u + k)) - (u + k),

    lies below the minimum.  It equals the minimum at the root u* of
    |y(u)| = 1, y(u) = (a / (2 u), b / (2 (u + k))): y(u*) is then the global
    minimizer.  |y(u)| falls on u > 0, so u* lies in
    [max(|a| / 2, |p| / 2 - k), |p| / 2], and Newton's method on
    1 / |y| - 1 climbs to it from the lower end; u* -> 0 in the hard case
    a = 0, |b| <= 2 k.  Every term of D is <= 0, so it carries no
    cancellation, and D(u) stays below the minimum wherever the iteration
    stops.
    """
    tiny = np.finfo(float).tiny
    qn = np.hypot(q0, q1)
    live = qn > 0.0
    qn = np.where(live, qn, 1.0)
    e0, e1 = np.where(live, q0 / qn, 1.0), q1 / qn
    k = 0.25 * (q0 * q0 + q1 * q1)
    a, b = p0 * e0 + p1 * e1, p1 * e0 - p0 * e1
    u = np.maximum(np.maximum(0.5 * np.abs(a), 0.5 * np.hypot(a, b) - k), tiny)
    active = np.ones(u.shape, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        y1, y2 = a / (2.0 * u), b / (2.0 * (u + k))
        n2 = y1 * y1 + y2 * y2
        step = n2 * (np.sqrt(n2) - 1.0) / (y1 * y1 / u + y2 * y2 / (u + k) + tiny)
        # u at its floor with a step down stays there (the hard case)
        pinned = (u == tiny) & (step <= 0.0)
        u = np.where(active, np.maximum(u + step, tiny), u)
        # an entry stops on its own tolerance, so its value does not depend on
        # the other entries of the call
        active &= ~((np.abs(step) <= 1e-12 * (u + k)) | pinned)
        if not active.any():
            break
    return -a * a / (4.0 * u) - b * b / (4.0 * (u + k)) - (u + k)


def _inner_min(b: np.ndarray, s: SlipSystem) -> np.ndarray:
    """min over G in M = M1 u M2 of W(G) - <B, G>, for B given as the rows
    b = [B00, B01, B10, B11] of shape [4, N].

    On M_i, G = R_a (I + g v (x) v_perp) and W = g^2, so the minimum over g is
    -c(a)^2 / 4 with c(a) = (R_a v) . (B v_perp), and what is left is
    -<B, R_a> - c(a)^2 / 4 on the circle (cos a, sin a) (`_circle_min`).
    Both slip vectors go through one call.
    """
    b00, b01, b10, b11 = b
    q0, q1 = [], []
    for v0, v1 in (s.v1, s.v2):
        u0, u1 = b01 * v0 - b00 * v1, b11 * v0 - b10 * v1   # B v_perp
        q0.append(v0 * u0 + v1 * u1)
        q1.append(v0 * u1 - v1 * u0)
    p0, p1 = b00 + b11, b10 - b01
    both = _circle_min(np.concatenate([p0, p0]), np.concatenate([p1, p1]),
                       np.concatenate(q0), np.concatenate(q1))
    return np.minimum(both[:len(p0)], both[len(p0):])


def dual_lower(fs: np.ndarray, f_minus: np.ndarray, f_plus: np.ndarray,
               s: SlipSystem) -> np.ndarray:
    """A lower bound of the lamination envelope at each unit-determinant
    matrix of fs [N, 2, 2], from the endpoints f_minus, f_plus of a laminate
    at it (both F where F is its own laminate).

    W is inf off M, so for any B, <B, F> + min over M of (W - <B, G>) is an
    affine minorant of W: it lies below the convex envelope of W and so below
    the value of every laminate.  B is fitted to the five conditions of a
    supporting hyperplane at the endpoints: with each endpoint written as
    G = R_a (I + g v (x) v_perp) on the manifold of its nearer slip vector v,
    g = (G v) . (G v_perp), they are <B, (G v) (x) v_perp> = 2 g and
    <B, J G> = 0 (W - <B, .> stationary in g and a at both endpoints) and
    <B, G+ - G-> = g+^2 - g-^2 (equal values there).  The least-squares B is
    sought as (G+ + G-) + X, so a single point gets B = 2 F, the gradient of
    |F|^2.  Returns <B, F> + `_inner_min`(B).
    """
    n = len(fs)
    a, r, gammas = np.empty((5, 4, n)), np.zeros((5, n)), []
    for row, g in ((0, f_minus), (2, f_plus)):
        g00, g01, g10, g11 = g.reshape(n, 4).T
        images = [(g00 * v0 + g01 * v1, g10 * v0 + g11 * v1) for v0, v1 in (s.v1, s.v2)]
        d1, d2 = (np.abs(x0 * x0 + x1 * x1 - 1.0) for x0, x1 in images)
        near = d1 <= d2
        gv0, gv1 = (np.where(near, x, y) for x, y in zip(*images))
        vp0, vp1 = (np.where(near, x, y) for x, y in zip(perp(s.v1), perp(s.v2)))
        gamma = gv0 * (g00 * vp0 + g01 * vp1) + gv1 * (g10 * vp0 + g11 * vp1)
        a[row] = gv0 * vp0, gv0 * vp1, gv1 * vp0, gv1 * vp1
        a[row + 1] = -g10, -g11, g00, g01
        r[row] = 2.0 * gamma
        gammas.append(gamma)
    a[4] = (f_plus - f_minus).reshape(n, 4).T
    r[4] = gammas[1] * gammas[1] - gammas[0] * gammas[0]
    base = (f_minus + f_plus).reshape(n, 4).T
    b = base + _lstsq(a, r - (a * base).sum(axis=1))
    return (b * fs.reshape(n, 4).T).sum(axis=0) + _inner_min(b, s)


def _endpoints(fs: np.ndarray, cells: _Cells, s: SlipSystem, phi: np.ndarray,
               point: np.ndarray):
    """The laminate endpoints F (I + t m (x) m_perp) at the nearest roots of
    direction phi, or F itself where `point` is set or no pair exists."""
    ws = _Workspace.of((len(fs), 1))
    _core(cells, _directions(np.cos(phi)[:, None], np.sin(phi)[:, None], s), ws)
    fm = np.stack([ws.fm0, ws.fm1], axis=1)                        # [N, 2, 1]
    mp = np.stack([-np.sin(phi), np.cos(phi)], axis=1)[:, None]    # [N, 1, 2]
    keep = (ws.ok & ~point[:, None])[:, :, None]
    return tuple(fs + np.where(keep, t[:, :, None], 0.0) * fm * mp for t in (ws.neg, ws.pos))


def _scan_dual(fs: np.ndarray, cells: _Cells, s: SlipSystem, phi: np.ndarray,
               point: np.ndarray) -> np.ndarray:
    """`dual_lower` at the laminates of the directions phi (at F itself where
    `point` is set), in blocks of _DUAL_CELLS cells."""
    dual = np.empty(len(fs))
    for start in range(0, len(fs), _DUAL_CELLS):
        part = slice(start, start + _DUAL_CELLS)
        ends = _endpoints(fs[part], cells.rows(part), s, phi[part], point[part])
        dual[part] = dual_lower(fs[part], *ends, s)
    return dual


@dataclass(frozen=True)
class _Batch:
    value: np.ndarray     # min(scanned, single), >= 0 as each of them is
    single: np.ndarray    # W of `w_on_manifold`: finite where F lies on a slip manifold
    phi_best: np.ndarray  # direction of the best laminate scanned


def _oracle(fs: np.ndarray, s: SlipSystem, n_dirs: int, tol: float) -> _Batch:
    """Oracle energies of a stack of unit-determinant matrices [N, 2, 2].

    Every cell is evaluated at the four laminate directions, without
    refinement.  A cell whose value the dual bound at the best of them meets
    within _CERTIFY_RTOL is done; the others get the n_dirs scan with its
    refinement (`_scan`) and keep the smaller value.
    """
    if n_dirs < 8:
        raise PreconditionError("the direction grid needs at least 8 points")
    with np.errstate(invalid="ignore", over="ignore"):
        st = slip_state(fs[:, 0, 0], fs[:, 0, 1], fs[:, 1, 0], fs[:, 1, 1], s)
    if np.any(off_manifold(st, tol)):
        raise OffManifold("oracle targets must have unit determinant and a finite |F|^2")

    cells = _prepare(fs, s)
    single = w_on_manifold(st, tol)
    scanned, phi = _coarse_scan(cells, s, _laminate_angles(s))
    value = np.minimum(scanned, single)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dual = _scan_dual(fs, cells, s, phi, single <= scanned)
        rows = np.flatnonzero(~(value - dual <= _CERTIFY_RTOL * np.maximum(1.0, value)))
    if rows.size:
        full, phi_full = _scan(cells.rows(rows), s, n_dirs)
        phi[rows] = np.where(full < value[rows], phi_full, phi[rows])
        value[rows] = np.minimum(value[rows], full)
    return _Batch(value=value, single=single, phi_best=phi)


@dataclass(frozen=True)
class OracleResult:
    value: ExtendedEnergy
    best: Optional[LaminateDecomposition]


def wlc_numeric(f: Mat, s: SlipSystem, n_dirs: int = DEFAULT_N_DIRS,
                tol: float = DEFAULT_TOL) -> OracleResult:
    """Numeric lamination envelope at a unit-determinant matrix.

    Evaluates the four rank-one directions of the paper's laminates
    (`_laminate_angles`) and includes the single-point candidate when F lies
    on a slip manifold.  If the value exceeds `dual_lower` at its laminate by
    more than 1e-9 max(1, value), n_dirs uniformly spaced directions on
    [0, pi) are scanned, the scan zooms in on the best one (`_scan`), and the
    smaller value is kept; n_dirs is the direction count of that full scan.
    Where F lies on a slip manifold the laminate is `decompose`'s; elsewhere
    it is the best direction's UpperBoundOnly pair.
    """
    fs = np.asarray(f, dtype=float)[None]
    batch = _oracle(fs, s, n_dirs, tol)
    value, single = float(batch.value[0]), float(batch.single[0])

    best_dec = None
    if math.isfinite(single):
        best_dec = decompose(f, s, tol)
    else:
        phi = float(batch.phi_best[0])
        energy, lo, hi = (float(x[0, 0]) for x in _direction_energy(
            fs, np.cos(batch.phi_best)[:, None], np.sin(batch.phi_best)[:, None], s, pair=True))
        if math.isfinite(energy):
            m = np.array([math.cos(phi), math.sin(phi)])
            line = RankOneLine(fs[0], m, perp(m))
            best_dec = laminate_on_line(line, (lo, line.point(lo)), (hi, line.point(hi)),
                                        value, "UpperBoundOnly")
    return OracleResult(value=ExtendedEnergy(value), best=best_dec)


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


def envelope_scan(s: SlipSystem, bc_range: float, n: int, n_dirs: int = DEFAULT_N_DIRS,
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
