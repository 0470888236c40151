"""Phase-diagram classification of unit-determinant matrices.

Splits the det-1 manifold into SO(2), the single-slip manifolds M1, M2, the
stretched regions A / APerp (both slip norms above 1, split by the sign of
Fv1.Fv2) and the compressed regions built from N_i = {|Fv_i| < 1}, with
explicit tolerance bands on every defining inequality.

`classify_arrays` is the one decision tree, on the slip state
(`energy.slip_state`) of one matrix or of a stack: `classify` labels one
matrix with it, `region_map` a whole (b, c) grid, block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from numbers import Integral

import numpy as np

from .algebra import Mat, bc_diagonal, select, where
from .energy import (DEFAULT_TOL, SlipState, SlipSystem, matrix_state, off_manifold,
                     slip_state, w_hom_arrays)
from .errors import PreconditionError

TAGS = ("SO2", "M1", "M2", "A", "APerp", "N1capN2", "N1only", "N2only", "OffManifold")
CODE = {tag: i for i, tag in enumerate(TAGS)}
_BIT = {tag: 1 << i for i, tag in enumerate(TAGS)}

# Cells `region_map` evaluates at a time, so that its ~60 temporaries stay
# 32 KB each at any grid size.  Grid-sized ones (323 KB at 201^2, ~7 MB in
# all) come from glibc's heap once its dynamic mmap threshold has risen, and
# how much of them stays resident after the call then depends on what the
# process freed before.
_BLOCK_CELLS = 4096


@dataclass(frozen=True)
class RegionLabel:
    """A region tag plus the set of adjacent tags when near a boundary."""

    tag: str
    boundary: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ValueError(f"unknown region tag {self.tag!r}")


@lru_cache(maxsize=None)
def adjacent_tags(bits: int) -> frozenset:
    """The tags of a boundary bit set (bit i stands for TAGS[i])."""
    return frozenset(tag for tag, bit in _BIT.items() if bits & bit)


def classify(f: Mat, s: SlipSystem, tol: float = DEFAULT_TOL) -> RegionLabel:
    """Classify one matrix: the label of `classify_arrays` on its float SlipState."""
    return region_label(*classify_arrays(matrix_state(f, s), tol))


def region_label(code, bits) -> RegionLabel:
    """The `classify` label of one (code, boundary) entry of `classify_arrays`."""
    return _label(code, int(bits))


@lru_cache(maxsize=None)
def _label(code, bits: int) -> RegionLabel:
    """One frozen label per (code, bits): at most 9 x 2^9 of them."""
    return RegionLabel(TAGS[code], adjacent_tags(bits))


def classify_arrays(st: SlipState, tol: float = DEFAULT_TOL):
    """The phase-diagram decision tree, on one matrix or a stack.

    Takes the SlipState of one matrix (floats) or of a stack (arrays) and
    returns (code, boundary) of the same kind: the TAGS index of each label
    and its adjacent tags as a bit set (see `adjacent_tags`).  The tags are
    tested in the order OffManifold, SO2, M1, M2, A / APerp (by the sign of
    Fv1.Fv2), N1capN2, N1only / N2only.
    """
    off = off_manifold(st, tol)
    d1, d2, dot = st.d1, st.d2, st.dot
    tol_s = tol * where(st.fro > 1.0, st.fro, 1.0)
    on1, on2 = abs(d1) <= tol, abs(d2) <= tol
    up1, up2 = d1 > 0, d2 > 0
    # outside the |dot| <= tol_s band dot > 0 and dot >= 0 agree (tol_s > 0)
    a_or_p = where(dot >= 0, CODE["A"], CODE["APerp"])
    code = select(
        [off, on1 & on2, on1, on2, up1 & up2, (d1 < 0) & (d2 < 0), d1 < 0],
        [CODE["OffManifold"], CODE["SO2"], CODE["M1"], CODE["M2"], a_or_p,
         CODE["N1capN2"], CODE["N1only"]],
        CODE["N2only"])
    # the stretched sides a manifold cell touches: A unless dot < -tol_s,
    # APerp unless dot > tol_s
    sides = where(dot >= -tol_s, _BIT["A"], 0) | where(dot > tol_s, 0, _BIT["APerp"])
    m1 = where(up2, _BIT["N1only"] | sides, _BIT["N1capN2"] | _BIT["N2only"])
    m2 = where(up1, _BIT["N2only"] | sides, _BIT["N1capN2"] | _BIT["N1only"])
    # only SO(2) separates A from APerp on the manifold: both are reported
    boundary = select(
        [off | (on1 & on2), on1, on2, up1 & up2 & (abs(dot) <= tol_s)],
        [0, m1, m2, _BIT["A"] | _BIT["APerp"]], 0)
    return code, boundary


@dataclass(frozen=True)
class RegionMap:
    """Region labels and envelope records of a cell-centered (b, c) grid.

    One entry per cell, row-major with b varying fastest.  `code` holds the
    TAGS index of each label and `boundary` its adjacent tags as a bit set.
    `whom` is the Known envelope value (inf off the manifold) and nan on
    Bounds cells; `lower` and `upper` are nan on Known cells.
    """

    b: np.ndarray
    c: np.ndarray
    code: np.ndarray
    boundary: np.ndarray
    whom: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __len__(self) -> int:
        return len(self.code)

    @cached_property
    def fs(self) -> np.ndarray:
        """The matrices `bc_to_matrix(b, c)` of the cells, (cells, 2, 2),
        formed when first read, with the bits `region_map` classified.

        `regionmap` never reads them.  Built there, a 201^2 map freed 1.3 MB
        in one block, which raised glibc's mmap and trim thresholds enough
        that up to 2.6 MB of freed heap stayed resident after the call.
        """
        with np.errstate(invalid="ignore", over="ignore"):
            f00, f11 = bc_diagonal(self.b, self.c)
        return np.stack([f00, self.c, self.c, f11], axis=-1).reshape(-1, 2, 2)

    @property
    def tags(self) -> list:
        return [TAGS[k] for k in self.code.tolist()]


def region_map(s: SlipSystem, bc_range: float, n: int, tol: float = DEFAULT_TOL) -> RegionMap:
    """Cell-centered n x n grid of region labels and envelope records.

    Covers [-bc_range, bc_range]^2 in (b, c) coordinates, row-major order
    (b varies fastest).  Every cell equals `classify` and `w_hom` of its
    matrix.
    """
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
        raise PreconditionError(f"grid resolution must be an integer >= 1, not {n!r}")
    if not 0.0 < bc_range < math.inf:
        raise PreconditionError(f"grid half-range must be positive and finite, not {bc_range!r}")
    step = 2.0 * bc_range / n
    axis = -bc_range + (np.arange(n) + 0.5) * step
    b, c = np.tile(axis, n), np.repeat(axis, n)
    code, boundary = np.empty(n * n, np.int8), np.empty(n * n, np.int16)
    whom, lower, upper = np.empty(n * n), np.empty(n * n), np.empty(n * n)
    for k in range(0, n * n, _BLOCK_CELLS):
        part = slice(k, k + _BLOCK_CELLS)
        with np.errstate(invalid="ignore", over="ignore"):
            f00, f11 = bc_diagonal(b[part], c[part])
            st = slip_state(f00, c[part], c[part], f11, s)
            code[part], boundary[part] = classify_arrays(st, tol)
        whom[part], lower[part], upper[part] = w_hom_arrays(st, s, tol)
    return RegionMap(b=b, c=c, code=code, boundary=boundary, whom=whom, lower=lower, upper=upper)
