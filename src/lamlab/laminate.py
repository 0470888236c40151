"""Constructive optimal first-order laminates realizing the relaxed energy.

Given a unit-determinant target N, produces rank-one connected endpoints
F+, F- on the slip manifolds with N = mu F+ + (1-mu) F- and, on the regions
where the envelope is known, endpoint energies equal to the envelope value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (Mat, RankOneLine, Vec, det2, frobenius_sq, perp,
                      solve_unit_image_times)
from .energy import DEFAULT_TOL, SlipSystem, matrix_state, off_manifold, w_on_manifold
from .errors import DegenerateTangency, DomainError, OffManifold

KINDS = ("CaseA", "CaseAPerp", "CaseN1lemN2", "CaseN2", "CaseN1capN2",
         "CaseOnManifold", "UpperBoundOnly")


@dataclass(frozen=True)
class LaminateDecomposition:
    """First-order laminate N = mu f_plus + (1-mu) f_minus.

    direction is the (a, n) pair of the rank-one line N(I + t a (x) n);
    energy is the common endpoint energy, except kind = UpperBoundOnly where
    it is the mu-weighted combination (no optimality claim).
    """

    f_plus: Mat
    f_minus: Mat
    mu: float
    direction: tuple
    energy: float
    kind: str
    degenerate_tie: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown laminate kind {self.kind!r}")


def _w_manifold(f: Mat) -> float:
    """Condensed energy of a laminate endpoint, assumed to lie on M."""
    try:
        return max(frobenius_sq(f) - 2.0, 0.0)
    except DomainError:
        raise DomainError("laminate endpoint |F|^2 overflows") from None


def _end(line: RankOneLine, t: float):
    """Laminate endpoint at parameter t: (t, F(t), its energy)."""
    f = line.point(t)
    return t, f, _w_manifold(f)


def laminate_on_line(line: RankOneLine, lo, hi, energy: float, kind: str,
                     tie: bool = False) -> LaminateDecomposition:
    """Laminate of the line points lo = (t, F(t), ...) at t <= 0 and hi at t >= 0."""
    (t_lo, f_lo, *_), (t_hi, f_hi, *_) = lo, hi
    return LaminateDecomposition(
        f_plus=f_hi, f_minus=f_lo, mu=-t_lo / (t_hi - t_lo),
        direction=(line.left, line.normal), energy=energy, kind=kind,
        degenerate_tie=tie,
    )


def _single_slip(n: Mat, v: Vec, kind: str):
    """Laminate along N(I + t v_perp (x) v) with both endpoints on M_v, or None."""
    line = RankOneLine(n, perp(v), v)
    roots = solve_unit_image_times(line, v)
    if len(roots) != 2 or not roots[0] <= 0.0 <= roots[1]:
        return None
    lo, hi = (_end(line, t) for t in roots)
    return laminate_on_line(line, lo, hi, hi[2], kind)


def _equal_energy_pair(line: RankOneLine, va: Vec, vb: Vec, kind: str):
    """Laminate on line with one endpoint on M_va and one on M_vb, or None.

    Among the root pairs (one |F(t) va| = 1 root, one |F(t) vb| = 1 root)
    that bracket the target t = 0 with equal endpoint energies, the one of
    least energy.  For kinds CaseA / CaseAPerp, degenerate_tie flags two
    roots of one slip system with equal energies, where the pairing is
    ambiguous.
    """
    scale = max(1.0, frobenius_sq(line.base))
    ends = []
    for v in (va, vb):
        roots = solve_unit_image_times(line, v)
        if len(roots) != 2:
            return None
        ends.append([_end(line, t) for t in roots])
    best = None
    for a_end in ends[0]:
        for b_end in ends[1]:
            lo, hi = sorted((a_end, b_end), key=lambda end: end[0])
            if not (lo[0] <= 0.0 <= hi[0]) or hi[0] - lo[0] <= 1e-15:
                continue
            if abs(lo[2] - hi[2]) > 1e-6 * scale:
                continue
            energy = max(lo[2], hi[2])
            if best is None or energy < best[0]:
                best = (energy, lo, hi)
    if best is None:
        return None
    energy, lo, hi = best
    tie = kind in ("CaseA", "CaseAPerp") and any(
        abs(e[0][2] - e[1][2]) <= 1e-9 * scale for e in ends)
    return laminate_on_line(line, lo, hi, energy, kind, tie)


def decompose(n: Mat, s: SlipSystem, tol: float = DEFAULT_TOL) -> LaminateDecomposition:
    """Optimal first-order laminate of the unit-determinant target N.

    Both slip norms above 1 (A, A_perp): equal-energy endpoints on M1 and M2
    along the bisector line (v1+v2) (x) (v1-v2), or (v1-v2) (x) (v1+v2) when
    N v1 . N v2 < 0.  Both below 1 (N1 n N2): the same search on the
    v3 (x) v3_perp line.  One below 1: the single-slip laminate, exact for
    orthogonal slips; at other angles the envelope is unknown there and the
    least-energy of the single-slip and the two mixed-manifold laminates is
    returned with kind UpperBoundOnly.
    """
    st = matrix_state(n, s)
    if off_manifold(st, tol):
        raise OffManifold("target |F|^2 overflows" if st.fro == math.inf
                          else "target determinant differs from 1 beyond tolerance")
    w = w_on_manifold(st, tol)
    if w < math.inf:
        return LaminateDecomposition(
            f_plus=n.copy(), f_minus=n.copy(), mu=0.5, direction=(s.v3, s.v3_perp),
            energy=w, kind="CaseOnManifold")
    d1, d2 = st.d1, st.d2
    if d1 > 0.0 and d2 > 0.0:
        bis, bis_perp = s.v1 + s.v2, s.v1 - s.v2
        if st.dot >= 0.0:
            found = _equal_energy_pair(RankOneLine(n, bis, bis_perp), s.v1, s.v2, "CaseA")
        else:
            found = _equal_energy_pair(RankOneLine(n, bis_perp, bis), s.v1, s.v2, "CaseAPerp")
    elif d1 < 0.0 and d2 < 0.0:
        found = _equal_energy_pair(RankOneLine(n, s.v3, s.v3_perp), s.v1, s.v2, "CaseN1capN2")
    else:
        inside, outside = (s.v1, s.v2) if d1 < 0.0 else (s.v2, s.v1)
        if s.is_orthogonal:
            found = _single_slip(n, inside, "CaseN1lemN2" if d1 < 0.0 else "CaseN2")
        else:
            candidates = [
                _single_slip(n, inside, "UpperBoundOnly"),
                _equal_energy_pair(RankOneLine(n, s.v3, s.v3_perp), inside, outside,
                                   "UpperBoundOnly"),
                _equal_energy_pair(RankOneLine(n, s.v3_perp, s.v3), inside, outside,
                                   "UpperBoundOnly"),
            ]
            found = min((c for c in candidates if c is not None), key=lambda d: d.energy,
                        default=None)
    if found is None:
        raise DegenerateTangency("no rank-one line through the target has admissible endpoints")
    return found


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class DecompositionReport:
    convex_combination: float
    rank_one: float
    manifold: float
    energy_equality: float
    preserved_vector: float

    def max_residual(self) -> float:
        return max(self.convex_combination, self.rank_one, self.manifold,
                   self.energy_equality, self.preserved_vector)


def _norm(x: Vec) -> float:
    """Euclidean norm of a float vector, as np.linalg.norm forms it."""
    return math.sqrt(float(x.dot(x)))


def verify_decomposition(d: LaminateDecomposition, n: Mat, s: SlipSystem) -> DecompositionReport:
    """Residuals of the defining identities of a laminate decomposition.

    Raises DomainError when the jump |F+ - F-|^2 overflows.
    """
    scale = max(1.0, math.sqrt(frobenius_sq(n)))
    comb = d.mu * d.f_plus + (1.0 - d.mu) * d.f_minus - n
    conv = math.sqrt(frobenius_sq(comb)) / scale
    diff = d.f_plus - d.f_minus
    try:
        dn = frobenius_sq(diff)
    except DomainError:
        raise DomainError("laminate jump |F+ - F-|^2 overflows") from None
    rank1 = abs(det2(diff)) / dn if dn > 0.0 else 0.0
    man = 0.0
    for f in (d.f_plus, d.f_minus):
        dev = min(abs(_norm(f @ s.v1) - 1.0), abs(_norm(f @ s.v2) - 1.0))
        man = max(man, dev)
    wp, wm = _w_manifold(d.f_plus), _w_manifold(d.f_minus)
    if d.kind == "UpperBoundOnly":
        energy_res = abs(d.mu * wp + (1.0 - d.mu) * wm - d.energy)
    else:
        energy_res = max(abs(wp - d.energy), abs(wm - d.energy))
    a = np.asarray(d.direction[0], dtype=float)
    norm_a = _norm(a)
    pres = 0.0
    if norm_a > 0.0:
        a_hat = a / norm_a
        for f in (d.f_plus, d.f_minus):
            pres = max(pres, _norm((f - n) @ a_hat) / scale)
    return DecompositionReport(convex_combination=conv, rank_one=rank1, manifold=man,
                               energy_equality=energy_res, preserved_vector=pres)
