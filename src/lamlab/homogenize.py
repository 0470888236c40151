"""Periodic bilayer microstructure energy simulator.

Builds the layered rigid/soft gradient pattern at layer period epsilon with a
simple laminate grafted into the soft layers, evaluates its energy on a
uniform grid, and compares against the homogenized target
lam * |Omega| * sum_i (t_i - t_{i-1})/l * W_hom(N_i).
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

# Grid rows per step in both grid passes: the rasterizer's blocks of soft rows
# (a block never spans two layer periods) and the interface count's blocks of
# label rows.  Best of 7 at 4096^2, one band or three, 2 vCPUs, in ms:
#   rows                    8      16     32     64     128    256    512    2048
#   build, eps = 1/64      27-51  27-43  31-42  32-42  31-40  30-41  28-40  28-38
#   build, eps = 1/8       25-36  25-27  25-26  25-30  32-33  30-41  32     36
#   energy, eps = 1/64     18-23  14-18  13-16  14-17  14-19  18-21  18-28  19-27
# At eps = 1/64 a layer period holds 32 soft rows, so larger blocks build alike.
_ROW_BLOCK = 64


def shear_from_gamma(gamma: float, lam: float, rotation: Mat) -> Mat:
    """Soft-layer gradient N solving lam N + (1-lam) R = R(I + gamma e1 (x) e2)."""
    return rotation @ (np.eye(2) + (gamma / lam) * np.outer([1.0, 0.0], [0.0, 1.0]))


@dataclass(frozen=True)
class MicrostructureSpec:
    """Layered microstructure: bands of constant shear gamma_i over (0, l).

    gammas lists (gamma_i, t_i) with right band edges 0 < t_1 < ... < t_n = l.
    laminate_period is the laminate repeat h_lam as a fraction of eps*lam.
    """

    slip: SlipSystem
    rotation: Mat
    gammas: tuple
    epsilon: float
    laminate_period: float
    domain_side: float
    grid_n: int

    def __post_init__(self):
        l = self.domain_side
        if not 0.0 < self.epsilon <= l:
            raise PreconditionError("layer period must lie in (0, domain side]")
        if not 0.0 < self.laminate_period < math.inf:
            raise PreconditionError("laminate period fraction must be positive and finite")
        edges = [t for _, t in self.gammas]
        if not edges or abs(edges[-1] - l) > 1e-12 * max(1.0, l):
            raise PreconditionError("band edges must end at the domain side")
        if any(b <= a for a, b in zip([0.0] + edges[:-1], edges)):
            raise PreconditionError("band edges must be strictly increasing")
        # band k labels its cells 2k + 1 and 2k + 2 in an int16 grid
        if 2 * len(self.gammas) > np.iinfo(np.int16).max:
            raise PreconditionError(
                f"{len(self.gammas)} bands: the int16 label grid holds at most "
                f"{np.iinfo(np.int16).max // 2}")
        lam = self.slip.lam
        finest = min(self.epsilon * lam, self.laminate_period * self.epsilon * lam)
        if self.grid_n < 4.0 * l / finest:
            raise PreconditionError(
                f"grid_n={self.grid_n} resolves the finest feature with fewer than 4 cells")

    @property
    def band_gradients(self):
        return [shear_from_gamma(g, self.slip.lam, self.rotation) for g, _ in self.gammas]


@dataclass(frozen=True)
class GradientField:
    """Cell-centered piecewise-constant gradient pattern.

    counts[k] is the number of cells with label k, tallied by the rasterizer
    as it writes them, so scoring needs no pass over the grid per label.
    """

    labels: np.ndarray        # (grid_n, grid_n) indices into values
    values: list              # label 0 is the rigid gradient R
    counts: np.ndarray        # int64, one cell count per entry of values
    spec: MicrostructureSpec


def build_gradient_field(spec: MicrostructureSpec) -> GradientField:
    """Rasterize the layered pattern with grafted laminates onto the grid.

    Rigid rows and columns outside every band keep label 0, so the laminate
    is evaluated only on the soft rows of each band's column range, a block
    of rows at a time, and written as a slice of the label grid.  Each block
    adds its plus and minus cells to the label counts; label 0 gets the rest.
    """
    gn, l, eps = spec.grid_n, spec.domain_side, spec.epsilon
    lam = spec.slip.lam
    xs = (np.arange(gn) + 0.5) * (l / gn)
    xe = xs / eps
    soft = xe - np.floor(xe) < lam
    x2_in_strip = xs - np.floor(xs / eps) * eps
    # soft rows come in runs, one per layer period; blocks never straddle two
    run_edges = np.flatnonzero(np.diff(np.concatenate(([False], soft, [False]))))
    blocks = [(r0, min(r0 + _ROW_BLOCK, stop))
              for start, stop in run_edges.reshape(-1, 2).tolist()
              for r0 in range(start, stop, _ROW_BLOCK)]
    labels = np.zeros((gn, gn), dtype=np.int16)
    values = [spec.rotation.copy()]
    counts = np.zeros(1 + 2 * len(spec.gammas), dtype=np.int64)
    h_abs = spec.laminate_period * eps * lam

    left = 0.0
    for band_index, (gamma, right) in enumerate(spec.gammas):
        n_mat = shear_from_gamma(gamma, lam, spec.rotation)
        dec = decompose(n_mat, spec.slip)
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
        n_hat = normal / np.linalg.norm(normal)
        u1 = (xs[i0:i1] - x_lo) * n_hat[0]
        # per-block scratch, reused by every block of the band
        u_buf = np.empty((_ROW_BLOCK, i1 - i0))
        frac_buf = np.empty_like(u_buf)
        plus_buf = np.empty(u_buf.shape, dtype=bool)
        for r0, r1 in blocks:
            u = np.add(u1, x2_in_strip[r0:r1, None] * n_hat[1], out=u_buf[:r1 - r0])
            u /= h_abs
            frac = np.floor(u, out=frac_buf[:r1 - r0])
            np.subtract(u, frac, out=frac)
            plus = np.less(frac, dec.mu, out=plus_buf[:r1 - r0])
            # plus cells take lab_plus, minus cells lab_plus + 1
            np.subtract(lab_plus + 1, plus, out=labels[r0:r1, i0:i1], dtype=np.int16)
            n_plus = np.count_nonzero(plus)
            counts[lab_plus] += n_plus
            counts[lab_plus + 1] += plus.size - n_plus
    # the snapped band column ranges are disjoint: every other cell is rigid
    counts[0] = gn * gn - counts[1:].sum()
    return GradientField(labels=labels, values=values, counts=counts, spec=spec)


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


def energy_of_field(field: GradientField, spec: MicrostructureSpec) -> EnergyReport:
    """Grid energy of the pattern against the homogenized band-weighted target.

    The label counts come with the field; the interface cells are counted
    _ROW_BLOCK rows at a time against a one-row halo above and below, so no
    temporary is as large as the label grid.
    """
    gn, l = spec.grid_n, spec.domain_side
    cell_area = (l / gn) ** 2
    lab = field.labels
    counts = field.counts
    e_eps = 0.0
    for label, value in enumerate(field.values):
        if counts[label] == 0:
            continue
        w = w_condensed(value, spec.slip, tol=CELL_ENERGY_TOL)
        if not w.is_finite:
            raise PreconditionError("pattern cell gradient falls off the slip manifolds")
        e_eps += counts[label] * w.value * cell_area

    # interface cells: any 4-neighbour with a different label
    n_flagged = 0
    for r0 in range(0, gn, _ROW_BLOCK):
        r1 = min(r0 + _ROW_BLOCK, gn)
        top, bottom = max(r0 - 1, 0), min(r1 + 1, gn)
        rows = lab[top:bottom]
        differs = rows[1:] != rows[:-1]
        flagged = np.zeros(rows.shape, dtype=bool)
        flagged[1:] |= differs
        flagged[:-1] |= differs
        flagged = flagged[r0 - top:r1 - top]
        block = lab[r0:r1]
        differs = block[:, 1:] != block[:, :-1]
        flagged[:, 1:] |= differs
        flagged[:, :-1] |= differs
        n_flagged += np.count_nonzero(flagged)
    flagged_area = float(n_flagged) * cell_area

    area = l * l
    lam = spec.slip.lam
    target = 0.0
    n_bar = np.zeros((2, 2))
    left = 0.0
    for n_mat, (_, right) in zip(spec.band_gradients, spec.gammas):
        frac = (right - left) / l
        left = right
        target += lam * area * frac * _whom_value(n_mat, spec.slip)
        n_bar = n_bar + frac * n_mat
    rel_error = abs(e_eps - target) / max(target, 1e-12)

    avg = np.zeros((2, 2))
    for label, value in enumerate(field.values):
        avg = avg + (counts[label] / lab.size) * value
    avg_target = lam * n_bar + (1.0 - lam) * spec.rotation
    return EnergyReport(epsilon=spec.epsilon, e_eps=e_eps, target=target,
                        rel_error=rel_error, avg_gradient=avg,
                        avg_gradient_target=avg_target, flagged_area=flagged_area)


def run_sweep(slip: SlipSystem, rotation: Mat, gammas, eps_list, laminate_period: float,
              domain_side: float = 1.0, cells_per_feature: int = 8, grid_cap: int = 4096):
    """Energy reports over a layer-period sweep at fixed feature resolution."""
    # a band whose target is unknown fails here, before any grid is built
    for gamma, _ in gammas:
        _whom_value(shear_from_gamma(gamma, slip.lam, rotation), slip)
    reports = []
    for eps in eps_list:
        lam = slip.lam
        finest = min(eps * lam, laminate_period * eps * lam)
        if not finest > 0.0:
            raise PreconditionError("layer period and laminate period must be positive")
        gn = min(int(math.ceil(cells_per_feature * domain_side / finest)), grid_cap)
        spec = MicrostructureSpec(slip=slip, rotation=rotation, gammas=tuple(gammas),
                                  epsilon=eps, laminate_period=laminate_period,
                                  domain_side=domain_side, grid_n=gn)
        reports.append(energy_of_field(build_gradient_field(spec), spec))
    return reports


def averaging_check(g, g_mean: float, eps_list, grid_n: int):
    """Deviation of grid means of g(x/eps) over (0,1)^2 from the cell mean of g.

    g must be 1-periodic in both arguments and accept numpy arrays.
    """
    xs = (np.arange(grid_n) + 0.5) / grid_n
    x1, x2 = np.meshgrid(xs, xs)
    rows = []
    for eps in eps_list:
        y1, y2 = x1 / eps, x2 / eps
        vals = g(y1 - np.floor(y1), y2 - np.floor(y2))
        rows.append((eps, abs(float(np.mean(vals)) - g_mean)))
    return rows
