"""Periodic bilayer microstructure energy simulator.

Scores the layered rigid/soft pattern at layer period epsilon, with a simple
laminate grafted into the soft layers, on a uniform grid over the unit
square, and compares it against the homogenized target
lam * sum_i (t_i - t_{i-1}) * W_hom(N_i).

On a band whose relaxed energy is Known both laminate endpoints carry
W_hom(N_i), so a soft cell's energy does not depend on which endpoint it
holds: the grid energy follows from the number of soft grid rows and each
band's snapped column range, and no grid is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Mat
from .energy import Known, SlipSystem, w_condensed, w_hom
from .errors import PreconditionError

CELL_ENERGY_TOL = 1e-6

# the side of the square domain: every microstructure fills the unit square,
# and the last band edge lies within EDGE_TOL of it
DOMAIN_SIDE = 1.0
EDGE_TOL = 1e-12

# the most cells per side of a run_sweep grid
GRID_CAP = 4096


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
        if not edges or abs(edges[-1] - DOMAIN_SIDE) > EDGE_TOL:
            raise PreconditionError("band edges must end at the domain side")
        if any(b <= a for a, b in zip([0.0] + edges[:-1], edges)):
            raise PreconditionError("band edges must be strictly increasing")
        lam = self.slip.lam
        finest = min(self.epsilon * lam, self.laminate_period * self.epsilon * lam)
        if self.grid_n < 4.0 * DOMAIN_SIDE / finest:
            raise PreconditionError(
                f"grid_n={self.grid_n} resolves the finest feature with fewer than 4 cells")


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


def _rigid_energy(rotation: Mat, s: SlipSystem) -> float:
    w = w_condensed(rotation, s, tol=CELL_ENERGY_TOL)
    if not w.is_finite:
        raise PreconditionError("pattern cell gradient falls off the slip manifolds")
    return w.value


def _beside_change(line: np.ndarray) -> np.ndarray:
    """True at each entry of a grid line that differs from an entry next to it."""
    step = line[1:] != line[:-1]
    out = np.zeros(line.size, dtype=bool)
    out[1:] = step
    out[:-1] |= step
    return out


def energy_report(spec: MicrostructureSpec, gradients, band_whom,
                  w_rigid: float) -> EnergyReport:
    """Grid energy of the pattern against the homogenized band-weighted target.

    gradients lists each band's gradient N, band_whom its W_hom
    (`_whom_value`) and w_rigid is W of the rigid gradient, as run_sweep
    forms them once for every layer period.

    A grid row is soft where its centre lies in the lower lam of its layer
    period, and band i covers the columns whose centres lie in its edges
    snapped to whole layer periods.  Band i's soft cells, its column count
    times the soft row count, each carry W_hom(N_i): on a Known band both
    laminate endpoints do.  Every other cell is rigid.

    A cell is flagged where a 4-neighbour lies in a different layer or band.
    With V the rows next to a soft/rigid change and H the columns next to a
    change of band (a snapped-out column belongs to none), the flagged cells
    are (V x in-band) u (soft x H), counted by inclusion-exclusion.
    """
    gn, eps, lam = spec.grid_n, spec.epsilon, spec.slip.lam
    # the cell centres (k + 0.5) / gn of a grid line
    xs = np.arange(0.5, gn) * (DOMAIN_SIDE / gn)
    xe = xs / eps
    soft = xe - np.floor(xe) < lam
    # snap each band to whole layer periods; snapped-out strips stay rigid
    t_hi = np.array([t for _, t in spec.gammas])
    t_lo = np.concatenate(([0.0], t_hi[:-1]))
    # cell centres are sorted: band i holds the columns with x_lo <= x1 < x_hi
    i0 = np.searchsorted(xs, np.ceil(t_lo / eps - 1e-9) * eps)
    i1 = np.maximum(np.searchsorted(xs, np.floor(t_hi / eps + 1e-9) * eps), i0)

    # the columns as runs: before band i those of no band (label 0), which
    # its snapping leaves out, then band i's own (label i + 1)
    runs = np.empty(2 * i0.size + 1, dtype=np.int64)
    runs[0:-1:2] = i0 - np.concatenate(([0], i1[:-1]))
    width = runs[1::2] = i1 - i0
    runs[-1] = gn - i1[-1]
    labels = np.zeros(runs.size, dtype=np.int64)
    labels[1::2] = np.arange(1, i0.size + 1)
    band = np.repeat(labels, runs)
    in_band = band != 0
    v, hz = _beside_change(soft), _beside_change(band)
    n_soft = np.count_nonzero(soft)
    n_flagged = (np.count_nonzero(v) * np.count_nonzero(in_band)
                 + n_soft * np.count_nonzero(hz)
                 - np.count_nonzero(v & soft) * np.count_nonzero(hz & in_band))
    cell_area = (DOMAIN_SIDE / gn) ** 2
    flagged_area = float(n_flagged) * cell_area

    # cell counts: the rigid cells, then each band's soft cells; each area
    # times its energy is at most that energy, and fsum rounds the sum once
    counts = np.concatenate(([0], width * n_soft))
    counts[0] = gn * gn - counts.sum()
    e_eps = math.fsum((counts * cell_area * np.array([w_rigid, *band_whom])).tolist())
    share = counts / (gn * gn)
    avg = (share[:, None, None] * np.stack([spec.rotation, *gradients])).sum(axis=0)

    area = DOMAIN_SIDE * DOMAIN_SIDE
    target = 0.0
    n_bar = np.zeros((2, 2))
    left = 0.0
    for n_mat, whom, (_, right) in zip(gradients, band_whom, spec.gammas):
        frac = (right - left) / DOMAIN_SIDE
        left = right
        target += lam * area * frac * whom
        n_bar = n_bar + frac * n_mat
    rel_error = abs(e_eps - target) / max(target, 1e-12)
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
    # a band whose target is unknown fails here, before any grid is scored
    band_whom = [_whom_value(n_mat, slip) for n_mat in gradients]
    w_rigid = _rigid_energy(rotation, slip)
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
        reports.append(energy_report(spec, gradients, band_whom, w_rigid))
    return reports
