"""Phase-diagram classification of unit-determinant matrices.

Splits the det-1 manifold into SO(2), the single-slip manifolds M1, M2, the
stretched regions A / APerp (both slip norms above 1, split by the sign of
Fv1.Fv2) and the compressed regions built from N_i = {|Fv_i| < 1}, with
explicit tolerance bands on every defining inequality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Mat, bc_to_matrix, frobenius_sq, det2
from .energy import SlipSystem, DEFAULT_TOL, w_hom
from .errors import PreconditionError

TAGS = ("SO2", "M1", "M2", "A", "APerp", "N1capN2", "N1only", "N2only", "OffManifold")


@dataclass(frozen=True)
class RegionLabel:
    """A region tag plus the set of adjacent tags when near a boundary."""

    tag: str
    boundary: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ValueError(f"unknown region tag {self.tag!r}")

    @property
    def on_boundary(self) -> bool:
        return bool(self.boundary)


def classify(f: Mat, s: SlipSystem, tol: float = DEFAULT_TOL) -> RegionLabel:
    """Classify a matrix into the phase diagram of the two-slip model."""
    if tol <= 0.0:
        raise PreconditionError("classification tolerance must be positive")
    if abs(det2(f) - 1.0) > tol:
        return RegionLabel("OffManifold")
    fv1, fv2 = f @ s.v1, f @ s.v2
    d1 = float(np.linalg.norm(fv1)) - 1.0
    d2 = float(np.linalg.norm(fv2)) - 1.0
    dot = float(fv1 @ fv2)
    tol_s = tol * max(1.0, frobenius_sq(f))

    on1, on2 = abs(d1) <= tol, abs(d2) <= tol
    if on1 and on2:
        return RegionLabel("SO2")
    if on1:
        if d2 > 0:
            adj = {"N1only", "A" if dot > tol_s else "APerp"}
            if abs(dot) <= tol_s:
                adj = {"N1only", "A", "APerp"}
        else:
            adj = {"N1capN2", "N2only"}
        return RegionLabel("M1", frozenset(adj))
    if on2:
        if d1 > 0:
            adj = {"N2only", "A" if dot > tol_s else "APerp"}
            if abs(dot) <= tol_s:
                adj = {"N2only", "A", "APerp"}
        else:
            adj = {"N1capN2", "N1only"}
        return RegionLabel("M2", frozenset(adj))
    if d1 > 0 and d2 > 0:
        if abs(dot) <= tol_s:
            # only SO(2) separates A from APerp on the manifold; honest report
            return RegionLabel("A" if dot >= 0 else "APerp", frozenset({"A", "APerp"}))
        return RegionLabel("A" if dot > 0 else "APerp")
    if d1 < 0 and d2 < 0:
        return RegionLabel("N1capN2")
    return RegionLabel("N1only" if d1 < 0 else "N2only")


@dataclass(frozen=True)
class RegionCell:
    b: float
    c: float
    label: RegionLabel
    energy: object  # Known or Bounds


def region_map(s: SlipSystem, bc_range: float, n: int, tol: float = DEFAULT_TOL):
    """Cell-centered n x n grid of region labels and envelope records.

    Covers [-bc_range, bc_range]^2 in (b, c) coordinates, row-major order
    (b varies fastest).
    """
    if n < 1 or bc_range <= 0.0:
        raise PreconditionError("grid requires n >= 1 and a positive range")
    cells = []
    step = 2.0 * bc_range / n
    for j in range(n):
        c = -bc_range + (j + 0.5) * step
        for i in range(n):
            b = -bc_range + (i + 0.5) * step
            f = bc_to_matrix(b, c)
            cells.append(RegionCell(b=b, c=c, label=classify(f, s, tol), energy=w_hom(f, s, tol)))
    return cells
