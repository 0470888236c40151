"""Periodic bilayer microstructure energy simulator.

Builds the layered rigid/soft gradient pattern at layer period epsilon with a
simple laminate grafted into the soft layers, evaluates its energy on a
uniform grid over the unit square, and compares against the homogenized
target lam * sum_i (t_i - t_{i-1}) * W_hom(N_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Mat
from .energy import Known, SlipSystem, w_condensed, w_hom
from .errors import PreconditionError
from .laminate import decompose

CELL_ENERGY_TOL = 1e-6

# the side of the square domain: every microstructure fills the unit square
DOMAIN_SIDE = 1.0

# the most cells per side of a run_sweep grid
GRID_CAP = 4096

# Cells per step in both passes: the rasterizer's blocks of distinct soft-row
# heights on a band's columns and the interface count's blocks of distinct
# (above, row, below) triples on the grid's, max(1, budget // width) rows a
# block.  Fastest of 25, one band or three at 4096^2, 2 vCPUs, in ms:
#   cells                         2^14   2^15   2^16   2^17   2^18
#   build, eps = 1/64, one band   0.51   0.50   0.49   0.54   0.53
#   build, eps = 1/100, three     21.1   20.9   20.3   24.3   27.6
#   build, grid_1001              2.06   1.83   1.90   2.15   2.57
#   energy, eps = 1/64, one band  0.41   0.31   0.29   0.29   0.26
#   energy, eps = 1/100, three    9.7    8.5    6.8    6.9    8.5
#   energy, grid_1001             1.23   1.01   0.82   0.73   0.74
_BLOCK_ELEMENTS = 2 ** 16

# band k labels its cells 2k + 1 and 2k + 2 in int16 label rows
_LABEL_MAX = np.iinfo(np.int16).max


def _distinct(a: np.ndarray, inverse: bool = False):
    """np.unique(a, return_counts=True) of a 1-D array, or with inverse=True
    np.unique(a, return_inverse=True, return_counts=True): the same arrays,
    entry for entry and dtype for dtype, from one sort and a first-of-run
    mask, without np.unique's fixed cost per call."""
    s = np.sort(a)
    # True where a run of equal values starts, and once past the last run
    first = np.empty(s.size + 1, dtype=bool)
    first[0] = first[-1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:-1])
    # with the inverse at hand bincount counts fastest, without it the run lengths
    if inverse:
        values = s[first[:-1]]
        where = np.searchsorted(values, a)
        return values, where, np.bincount(where, minlength=values.size)
    start = np.flatnonzero(first)
    return s[start[:-1]], np.diff(start)


def shear_from_gamma(gamma: float, lam: float, rotation: Mat) -> Mat:
    """Soft-layer gradient N solving lam N + (1-lam) R = R(I + gamma e1 (x) e2)."""
    # the bits of np.eye(2) + g * np.outer(e1, e2): 0.0 * g is nan at an infinite g
    g, z = gamma / lam, 0.0 * (gamma / lam)
    return rotation @ np.array([[1.0 + z, 0.0 + g], [0.0 + z, 1.0 + z]])


@dataclass(frozen=True)
class MicrostructureSpec:
    """Layered microstructure: bands of constant shear gamma_i over (0, 1).

    gammas lists (gamma_i, t_i) with right band edges 0 < t_1 < ... < t_n = 1.
    laminate_period is the laminate repeat h_lam as a fraction of eps*lam.
    """

    slip: SlipSystem
    rotation: Mat
    gammas: tuple
    epsilon: float
    laminate_period: float
    grid_n: int

    def __post_init__(self):
        if not 0.0 < self.epsilon <= DOMAIN_SIDE:
            raise PreconditionError("layer period must lie in (0, domain side]")
        if not 0.0 < self.laminate_period < math.inf:
            raise PreconditionError("laminate period fraction must be positive and finite")
        edges = [t for _, t in self.gammas]
        if not edges or abs(edges[-1] - DOMAIN_SIDE) > 1e-12:
            raise PreconditionError("band edges must end at the domain side")
        if any(b <= a for a, b in zip([0.0] + edges[:-1], edges)):
            raise PreconditionError("band edges must be strictly increasing")
        if 2 * len(self.gammas) > _LABEL_MAX:
            raise PreconditionError(
                f"{len(self.gammas)} bands: the int16 label rows hold at most "
                f"{_LABEL_MAX // 2}")
        lam = self.slip.lam
        finest = min(self.epsilon * lam, self.laminate_period * self.epsilon * lam)
        if self.grid_n < 4.0 * DOMAIN_SIDE / finest:
            raise PreconditionError(
                f"grid_n={self.grid_n} resolves the finest feature with fewer than 4 cells")


@dataclass(frozen=True)
class GradientField:
    """Cell-centered piecewise-constant gradient pattern, stored by row.

    A grid row's labels depend only on its height within its layer period, so
    each distinct row is stored once: grid row r holds rows[row_of[r]], and
    rows[0] is the all-rigid row.  counts[k] is the number of grid cells with
    label k, tallied as the rows are written, so scoring needs no pass over
    the grid per label.
    """

    rows: np.ndarray          # (1 + distinct soft rows, grid_n) int16 indices into values
    row_of: np.ndarray        # (grid_n,) index into rows of each grid row
    values: list              # label 0 is the rigid gradient R
    counts: np.ndarray        # int64, one cell count per entry of values


def build_gradient_field(spec: MicrostructureSpec, laminates) -> GradientField:
    """Rasterize the layered pattern with grafted laminates, one row per height.

    laminates lists the `decompose` of each band's gradient, as run_sweep
    forms it once for every layer period.  The soft rows that share an
    in-strip height carry the same labels, so the laminate is evaluated once
    per distinct height on each band's column range, a block of heights at a
    time.  Each height's plus cells count once per grid row at that height;
    the band's other soft cells are minus cells and label 0 gets the rest.
    """
    gn, eps, lam = spec.grid_n, spec.epsilon, spec.slip.lam
    xs = (np.arange(gn) + 0.5) * (DOMAIN_SIDE / gn)
    xe = xs / eps
    strip = np.floor(xe)
    soft = xe - strip < lam
    x2_in_strip = xs - strip * eps
    heights, inverse, mult = _distinct(x2_in_strip[soft], inverse=True)
    row_of = np.zeros(gn, dtype=np.int64)
    row_of[soft] = 1 + inverse
    rows = np.zeros((1 + heights.size, gn), dtype=np.int16)
    values = [spec.rotation.copy()]
    counts = np.zeros(1 + 2 * len(spec.gammas), dtype=np.int64)
    h_abs = spec.laminate_period * eps * lam

    left = 0.0
    for band_index, ((_, right), dec) in enumerate(zip(spec.gammas, laminates)):
        values.append(dec.f_plus)
        values.append(dec.f_minus)
        lab_plus = 1 + 2 * band_index
        # snap the band to whole layer periods; snapped-out strips stay rigid
        x_lo = math.ceil(left / eps - 1e-9) * eps
        x_hi = math.floor(right / eps + 1e-9) * eps
        left = right
        # cell centres are sorted: the columns with x_lo <= x1 < x_hi
        i0, i1 = np.searchsorted(xs, [x_lo, x_hi])
        if i1 <= i0:
            continue
        normal = np.asarray(dec.direction[1], dtype=float)
        n_hat = normal / math.sqrt(float(normal.dot(normal)))  # np.linalg.norm's bits
        u1 = (xs[i0:i1] - x_lo) * n_hat[0]
        block = min(max(1, _BLOCK_ELEMENTS // (i1 - i0)), heights.size)
        # per-block scratch, reused by every block of the band; u and its floor
        # share one chunk, which glibc keeps for the next call: as two chunks
        # they were trimmed and faulted in again, ~240 faults an eps = 1/64 call
        u_buf, frac_buf = np.empty((2, block, i1 - i0))
        plus_buf = np.empty(u_buf.shape, dtype=bool)
        n_plus = 0
        for k0 in range(0, heights.size, block):
            k1 = min(k0 + block, heights.size)
            u = np.add(u1, heights[k0:k1, None] * n_hat[1], out=u_buf[:k1 - k0])
            u /= h_abs
            frac = np.floor(u, out=frac_buf[:k1 - k0])
            np.subtract(u, frac, out=frac)
            plus = np.less(frac, dec.mu, out=plus_buf[:k1 - k0])
            # plus cells take lab_plus, minus cells lab_plus + 1
            np.subtract(lab_plus + 1, plus, out=rows[1 + k0:1 + k1, i0:i1], dtype=np.int16)
            # per-row sums run fastest in the narrowest type that holds them
            n_plus += int(plus.sum(axis=1, dtype=np.min_scalar_type(i1 - i0)) @ mult[k0:k1])
        counts[lab_plus] = n_plus
        counts[lab_plus + 1] = (i1 - i0) * inverse.size - n_plus
    # the snapped band column ranges are disjoint: every other cell is rigid
    counts[0] = gn * gn - counts[1:].sum()
    return GradientField(rows=rows, row_of=row_of, values=values, counts=counts)


@dataclass(frozen=True)
class EnergyReport:
    epsilon: float
    e_eps: float
    target: float
    rel_error: float
    avg_gradient: Mat
    avg_gradient_target: Mat
    flagged_area: float


def _whom_value(n_mat: Mat, s: SlipSystem) -> float:
    result = w_hom(n_mat, s)
    if not isinstance(result, Known):
        raise PreconditionError("band gradient lies where the relaxed energy is unknown")
    return result.value.as_float()


def energy_of_field(field: GradientField, spec: MicrostructureSpec, gradients,
                    band_whom) -> EnergyReport:
    """Grid energy of the pattern against the homogenized band-weighted target.

    gradients lists each band's gradient N and band_whom its W_hom
    (`_whom_value`), as run_sweep forms them once for every layer period.

    The label counts come with the field.  A cell is an interface cell when a
    4-neighbour has a different label, so a grid row's interface cells depend
    only on its pattern and the patterns above and below it: each distinct
    (above, row, below) triple is counted once, a block of triples at a time,
    and weighted by how many grid rows it stands for.
    """
    gn = spec.grid_n
    cell_area = (DOMAIN_SIDE / gn) ** 2
    counts = field.counts
    e_eps = 0.0
    for label, value in enumerate(field.values):
        if counts[label] == 0:
            continue
        w = w_condensed(value, spec.slip, tol=CELL_ENERGY_TOL)
        if not w.is_finite:
            raise PreconditionError("pattern cell gradient falls off the slip manifolds")
        e_eps += counts[label] * w.value * cell_area

    # an edge row is its own missing neighbour; one int64 key per triple
    rows, row_of = field.rows, field.row_of
    base = rows.shape[0]
    above = np.concatenate((row_of[:1], row_of[:-1]))
    below = np.concatenate((row_of[1:], row_of[-1:]))
    triples, mult = _distinct((above * base + row_of) * base + below)
    n_flagged = 0
    block = max(1, _BLOCK_ELEMENTS // gn)
    for k0 in range(0, triples.size, block):
        key, n_rows = triples[k0:k0 + block], mult[k0:k0 + block]
        mid = rows[key // base % base]
        flagged = mid != rows[key // (base * base)]
        flagged |= mid != rows[key % base]
        differs = mid[:, 1:] != mid[:, :-1]
        flagged[:, 1:] |= differs
        flagged[:, :-1] |= differs
        n_flagged += int(flagged.sum(axis=1, dtype=np.min_scalar_type(gn)) @ n_rows)
    flagged_area = float(n_flagged) * cell_area

    area = DOMAIN_SIDE * DOMAIN_SIDE
    lam = spec.slip.lam
    target = 0.0
    n_bar = np.zeros((2, 2))
    left = 0.0
    for n_mat, whom, (_, right) in zip(gradients, band_whom, spec.gammas):
        frac = (right - left) / DOMAIN_SIDE
        left = right
        target += lam * area * frac * whom
        n_bar = n_bar + frac * n_mat
    rel_error = abs(e_eps - target) / max(target, 1e-12)

    avg = np.zeros((2, 2))
    for label, value in enumerate(field.values):
        avg = avg + (counts[label] / (gn * gn)) * value
    avg_target = lam * n_bar + (1.0 - lam) * spec.rotation
    return EnergyReport(epsilon=spec.epsilon, e_eps=e_eps, target=target,
                        rel_error=rel_error, avg_gradient=avg,
                        avg_gradient_target=avg_target, flagged_area=flagged_area)


def run_sweep(slip: SlipSystem, rotation: Mat, gammas, eps_list, laminate_period: float,
              cells_per_feature: int = 8):
    """Energy reports over a layer-period sweep at fixed feature resolution.

    The domain is the unit square; each grid has cells_per_feature cells
    across the finest feature, at most GRID_CAP per side.
    """
    gradients = [shear_from_gamma(gamma, slip.lam, rotation) for gamma, _ in gammas]
    # a band whose target is unknown fails here, before any grid is built
    band_whom = [_whom_value(n_mat, slip) for n_mat in gradients]
    laminates = None
    reports = []
    for eps in eps_list:
        lam = slip.lam
        finest = min(eps * lam, laminate_period * eps * lam)
        if not finest > 0.0:
            raise PreconditionError("layer period and laminate period must be positive")
        # compared before dividing: the quotient may overflow, or be too
        # large an int for a float
        gn = (GRID_CAP if cells_per_feature >= GRID_CAP * finest
              else int(math.ceil(cells_per_feature / finest)))
        spec = MicrostructureSpec(slip=slip, rotation=rotation, gammas=tuple(gammas),
                                  epsilon=eps, laminate_period=laminate_period, grid_n=gn)
        if laminates is None:  # after the first spec: its errors come before a laminate's
            laminates = [decompose(n_mat, slip) for n_mat in gradients]
        field = build_gradient_field(spec, laminates)
        reports.append(energy_of_field(field, spec, gradients, band_whom))
    return reports
