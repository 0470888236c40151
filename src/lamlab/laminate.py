"""Constructive optimal first-order laminates realizing the relaxed energy.

Given a unit-determinant target N, produces rank-one connected endpoints
F+, F- on the slip manifolds with N = mu F+ + (1-mu) F- and, on the regions
where the envelope is known, endpoint energies equal to the envelope value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Mat, RankOneLine, Vec, _sum_sq, solve_unit_image_times
from .energy import DEFAULT_TOL, SlipSystem, matrix_state, off_manifold, w_on_manifold
from .errors import DegenerateTangency, OffManifold

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

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown laminate kind {self.kind!r}")


def _w_manifold(f: Mat) -> float:
    """Condensed energy of a laminate endpoint, assumed to lie on M."""
    (a, b), (c, d) = f.tolist()
    return max(_sum_sq(a, b, c, d, "laminate endpoint |F|^2") - 2.0, 0.0)


def _end(line: RankOneLine, t: float):
    """Laminate endpoint at parameter t: (t, F(t), its energy)."""
    f = line.point(t)
    return t, f, _w_manifold(f)


def laminate_on_line(line: RankOneLine, lo, hi, energy: float,
                     kind: str) -> LaminateDecomposition:
    """Laminate of the line points lo = (t, F(t), ...) at t <= 0 and hi at t >= 0."""
    (t_lo, f_lo, *_), (t_hi, f_hi, *_) = lo, hi
    return LaminateDecomposition(
        f_plus=f_hi, f_minus=f_lo, mu=-t_lo / (t_hi - t_lo),
        direction=(line.left, line.normal), energy=energy, kind=kind,
    )


def _nearest_ends(line: RankOneLine, s: SlipSystem):
    """The `_end`s at the nearest unit-image roots on each side of t = 0 on
    `line`, or None when a side has none or the two are at most 1e-15 apart.

    The roots are those of |F(t) v1| = 1 and |F(t) v2| = 1.  The determinant
    is constant along the line, so |F(t)|^2 - 2 is a quadratic in t and the
    mu-weighted energy of the roots ta <= 0 <= tb is its chord at t = 0,
    which falls as ta tb shrinks: the largest root <= 0 and the smallest
    root >= 0 are the best pair, as in `envelope_oracle._direction_energy`.
    """
    ts = solve_unit_image_times(line, s.v1) + solve_unit_image_times(line, s.v2)
    t_lo = max((t for t in ts if t <= 0.0), default=None)
    t_hi = min((t for t in ts if t >= 0.0), default=None)
    if t_lo is None or t_hi is None or t_hi - t_lo <= 1e-15:
        return None
    return _end(line, t_lo), _end(line, t_hi)


def _nearest_pair(line: RankOneLine, s: SlipSystem, kind: str):
    """Laminate of a known kind between the `_nearest_ends` of `line`, or None.

    Its energy is max(W-, W+); DegenerateTangency when the endpoint energies
    differ by more than 1e-6 max(1, |N|^2).
    """
    ends = _nearest_ends(line, s)
    if ends is None:
        return None
    lo, hi = ends
    if abs(lo[2] - hi[2]) > 1e-6 * max(1.0, line.base_fro_sq()):
        raise DegenerateTangency("the laminate endpoint energies differ on a known region")
    return laminate_on_line(line, lo, hi, max(lo[2], hi[2]), kind)


def _upper_bound(lines, s: SlipSystem):
    """UpperBoundOnly laminate of the least mu W+ + (1-mu) W- over `lines`
    (as `verify_decomposition` forms it; the first line on a tie), or None."""
    best = None
    for line in lines:
        ends = _nearest_ends(line, s)
        if ends is not None:
            (t_lo, _, w_lo), (t_hi, _, w_hi) = ends
            mu = -t_lo / (t_hi - t_lo)  # as laminate_on_line forms it
            energy = mu * w_hi + (1.0 - mu) * w_lo
            if best is None or energy < best[0]:
                best = (energy, line, ends)
    if best is None:
        return None
    energy, line, (lo, hi) = best
    return laminate_on_line(line, lo, hi, energy, "UpperBoundOnly")


def decompose(n: Mat, s: SlipSystem, tol: float = DEFAULT_TOL) -> LaminateDecomposition:
    """Optimal first-order laminate of the unit-determinant target N.

    Every laminate off the manifolds is the pair of `_nearest_ends` of one
    rank-one line.  Both slip norms above 1 (A, A_perp): the bisector line
    (v1+v2) (x) (v1-v2), or (v1-v2) (x) (v1+v2) when N v1 . N v2 < 0.  Both
    below 1 (N1 n N2): the v3 (x) v3_perp line.  One below 1: the single-slip
    line v_perp (x) v of that system, exact for orthogonal slips; at other
    angles the envelope is unknown there and the least-energy laminate of
    that line and the v3 (x) v3_perp and v3_perp (x) v3 lines is returned
    with kind UpperBoundOnly.
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
        bis, bis_perp = s.bisectors
        if st.dot >= 0.0:
            found = _nearest_pair(RankOneLine(n, bis, bis_perp), s, "CaseA")
        else:
            found = _nearest_pair(RankOneLine(n, bis_perp, bis), s, "CaseAPerp")
    elif d1 < 0.0 and d2 < 0.0:
        found = _nearest_pair(RankOneLine(n, s.v3, s.v3_perp), s, "CaseN1capN2")
    else:
        inside, inside_perp = (s.v1, s.perps[0]) if d1 < 0.0 else (s.v2, s.perps[1])
        single = RankOneLine(n, inside_perp, inside)
        if s.is_orthogonal:
            found = _nearest_pair(single, s, "CaseN1lemN2" if d1 < 0.0 else "CaseN2")
        else:
            found = _upper_bound((single, RankOneLine(n, s.v3, s.v3_perp),
                                  RankOneLine(n, s.v3_perp, s.v3)), s)
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
    # the combination, the jump and the endpoint energies entry by entry on
    # Python floats, which round each +, - and * as NumPy's elementwise
    # arithmetic does; the products with vectors stay NumPy's
    (p00, p01), (p10, p11) = d.f_plus.tolist()
    (m00, m01), (m10, m11) = d.f_minus.tolist()
    (n00, n01), (n10, n11) = n.tolist()
    scale = max(1.0, math.sqrt(_sum_sq(n00, n01, n10, n11, "|M|^2")))
    mu, nu = d.mu, 1.0 - d.mu
    conv = math.sqrt(_sum_sq(mu * p00 + nu * m00 - n00, mu * p01 + nu * m01 - n01,
                             mu * p10 + nu * m10 - n10, mu * p11 + nu * m11 - n11,
                             "|M|^2")) / scale
    j00, j01, j10, j11 = p00 - m00, p01 - m01, p10 - m10, p11 - m11
    dn = _sum_sq(j00, j01, j10, j11, "laminate jump |F+ - F-|^2")
    rank1 = abs(j00 * j11 - j01 * j10) / dn if dn > 0.0 else 0.0
    man = 0.0
    for f in (d.f_plus, d.f_minus):
        dev = min(abs(_norm(f @ s.v1) - 1.0), abs(_norm(f @ s.v2) - 1.0))
        man = max(man, dev)
    wp = max(_sum_sq(p00, p01, p10, p11, "laminate endpoint |F|^2") - 2.0, 0.0)
    wm = max(_sum_sq(m00, m01, m10, m11, "laminate endpoint |F|^2") - 2.0, 0.0)
    if d.kind == "UpperBoundOnly":
        energy_res = abs(d.mu * wp + (1.0 - d.mu) * wm - d.energy)
    else:
        energy_res = max(abs(wp - d.energy), abs(wm - d.energy))
    a_hat = s.unit_directions.get(id(d.direction[0]))
    if a_hat is None:
        a = np.asarray(d.direction[0], dtype=float)
        norm_a = _norm(a)
        a_hat = a / norm_a if norm_a > 0.0 else None
    pres = 0.0
    if a_hat is not None:
        for f in (d.f_plus, d.f_minus):
            pres = max(pres, _norm((f - n) @ a_hat) / scale)
    return DecompositionReport(convex_combination=conv, rank_one=rank1, manifold=man,
                               energy_equality=energy_res, preserved_vector=pres)
