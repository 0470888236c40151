"""Acceptance gate: one test (and one pass/fail line) per criterion.

Run with `pytest -v tests/test_acceptance.py`; each test also prints a
summary line with the measured worst-case numbers.
"""

import math

import numpy as np
import pytest

from lamlab.algebra import bc_to_matrix, perp
from lamlab.cli import main
from lamlab.energy import Known, SlipSystem, h, h_perp, w_condensed, w_hom
from lamlab.envelope_oracle import envelope_scan
from lamlab.homogenize import run_sweep
from lamlab.laminate import decompose, verify_decomposition
from lamlab.regions import classify

from references import (averaging_check, chi, f_majorant, identity_f1, identity_f2,
                        lemma_fad_check, make_fad_pair, random_det1, rotation, w_hom_scalar)

ORTHO = SlipSystem.from_theta(math.pi / 4, 0.5)
FAD_CONSTANT = 32.0  # certified by pre-build sampling; observed need is ~0.51


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_01_envelope_certification_orthogonal():
    scan = envelope_scan(ORTHO, 3.0, 61, n_dirs=720)
    discs = scan.discrepancy[~scan.skipped]
    assert not np.isnan(discs).any()
    worst = float(discs.max())
    report(1, worst <= 1e-5,
           f"orthogonal 61x61 scan, max |oracle - closed form| = {worst:.3e} (<= 1e-5)")


def test_criterion_02_envelope_certification_general():
    worst_known = 0.0
    worst_slack = 0.0
    for frac in (0.30, 0.35, 0.45):
        s = SlipSystem.from_theta(frac * math.pi, 0.5)
        scan = envelope_scan(s, 3.0, 61, n_dirs=720)
        for k in np.flatnonzero(~scan.skipped):
            if not math.isnan(scan.discrepancy[k]):
                worst_known = max(worst_known, float(scan.discrepancy[k]))
            else:
                worst_slack = max(worst_slack, -float(scan.slack_lo[k]),
                                  -float(scan.slack_hi[k]))
    ok = worst_known <= 1e-5 and worst_slack <= 1e-5
    report(2, ok, f"general-angle scans: max known-region discrepancy = "
                  f"{worst_known:.3e}, max bound violation = {worst_slack:.3e} (<= 1e-5)")


def test_criterion_03_laminate_exactness():
    rng = np.random.default_rng(1003)
    worst = {"conv": 0.0, "rank": 0.0, "man": 0.0, "energy": 0.0}
    for _ in range(10**4):
        n = random_det1(rng, spread=2.0)
        d = decompose(n, ORTHO)
        rep = verify_decomposition(d, n, ORTHO)
        worst["conv"] = max(worst["conv"], rep.convex_combination)
        worst["rank"] = max(worst["rank"], rep.rank_one)
        worst["man"] = max(worst["man"], rep.manifold)
        ref = w_hom(n, ORTHO).value.as_float()
        worst["energy"] = max(worst["energy"],
                              abs(d.energy - ref) / max(1.0, ref),
                              rep.energy_equality / max(1.0, ref))
    for _ in range(10**4):
        theta = rng.uniform(math.pi / 4 + 0.05, math.pi / 2 - 0.05)
        s = SlipSystem.from_theta(theta, 0.5)
        n = random_det1(rng, spread=2.0)
        d = decompose(n, s)
        rep = verify_decomposition(d, n, s)
        worst["conv"] = max(worst["conv"], rep.convex_combination)
        worst["rank"] = max(worst["rank"], rep.rank_one)
        worst["man"] = max(worst["man"], rep.manifold)
        res = w_hom(n, s)
        if isinstance(res, Known):
            ref = res.value.as_float()
            worst["energy"] = max(worst["energy"], abs(d.energy - ref) / max(1.0, ref))
    ok = (worst["conv"] <= 1e-10 and worst["rank"] <= 1e-10
          and worst["man"] <= 1e-9 and worst["energy"] <= 1e-8)
    report(3, ok, "2x10^4 laminates: residuals conv={conv:.2e} rank={rank:.2e} "
                  "manifold={man:.2e} energy={energy:.2e}".format(**worst))


def test_criterion_04_majorant_convexity_and_coincidence():
    rng = np.random.default_rng(1004)
    worst_conv = 0.0
    for _ in range(10**5):
        a = rng.normal(size=(2, 2)) * 2
        b = rng.normal(size=(2, 2)) * 2
        mu = rng.uniform()
        gap = f_majorant(mu * a + (1 - mu) * b, ORTHO) \
            - mu * f_majorant(a, ORTHO) - (1 - mu) * f_majorant(b, ORTHO)
        worst_conv = max(worst_conv, gap)
    worst_m = 0.0
    for _ in range(10**4):
        gamma = rng.uniform(-3, 3)
        v = ORTHO.v1 if rng.integers(0, 2) == 0 else ORTHO.v2
        f = rotation(rng.uniform(0, 2 * math.pi)) @ (np.eye(2) + gamma * np.outer(v, perp(v)))
        w = w_condensed(f, ORTHO).as_float()
        worst_m = max(worst_m, abs(f_majorant(f, ORTHO) - w) / max(1.0, w))
    worst_n = 0.0
    for _ in range(10**4):
        f = random_det1(rng, spread=2.0)
        w = w_hom(f, ORTHO).value.as_float()
        worst_n = max(worst_n, abs(f_majorant(f, ORTHO) - w) / max(1.0, w))
    ok = worst_conv <= 1e-10 and worst_m <= 1e-10 and worst_n <= 1e-10
    report(4, ok, f"majorant: convexity slack {worst_conv:.2e}, |f-W| on M "
                  f"{worst_m:.2e}, |f-W_hom| on det-1 {worst_n:.2e} (<= 1e-10)")


def test_criterion_05_algebraic_identities():
    rng = np.random.default_rng(1005)
    worst1 = worst2 = 0.0
    sign_ok = True
    s = SlipSystem.from_theta(0.3 * math.pi, 0.5)
    for _ in range(10**4):
        f = random_det1(rng, spread=2.0)
        phi, psi = rng.uniform(0, 2 * math.pi, size=2)
        a = np.array([math.cos(phi), math.sin(phi)])
        b = np.array([math.cos(psi), math.sin(psi)])
        lhs, rhs = identity_f1(f, a, b)
        worst1 = max(worst1, abs(lhs - rhs) / max(1.0, abs(lhs)))
        # the second identity divides by (a_perp . b)^2, so keep the frame
        # well-conditioned; near-parallel pairs only measure rounding noise
        if abs(perp(a) @ b) > 0.1:
            val = identity_f2(f, a, b)
            fro = float(np.sum(f * f))
            worst2 = max(worst2, abs(val - fro) / max(1.0, fro))
        dot = float((f @ s.v1) @ (f @ s.v2))
        alt = math.cos(s.theta) * np.linalg.norm(f @ s.v3) \
            - math.sin(s.theta) * np.linalg.norm(f @ s.v3_perp)
        if abs(dot) > 1e-9 and math.copysign(1, dot) != math.copysign(1, alt):
            sign_ok = False
    ok = worst1 <= 1e-10 and worst2 <= 1e-10 and sign_ok
    report(5, ok, f"identities on 10^4 trials: rel errors {worst1:.2e}, {worst2:.2e}; "
                  f"sign equivalence {'holds' if sign_ok else 'fails'}")


def test_criterion_06_scalar_whom():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(10**4):
        phi = rng.uniform(0, 2 * math.pi)
        lam = rng.uniform(0.1, 0.9)
        s = SlipSystem.orthogonal(v1=(math.cos(phi), math.sin(phi)), lam=lam)
        gamma = rng.uniform(-3, 3)
        n = rotation(rng.uniform(0, 2 * math.pi)) @ (
            np.eye(2) + (gamma / lam) * np.outer([1, 0], [0, 1]))
        ref = w_hom(n, s).value.as_float()
        worst = max(worst, abs(w_hom_scalar(gamma, s) - ref) / max(1.0, ref))
    lip_ok = True
    s = SlipSystem.orthogonal(v1=(math.cos(0.4), math.sin(0.4)), lam=0.5)
    for _ in range(10**4):
        g1, g2 = rng.uniform(-3, 3, size=2)
        bound = (2.0 / s.lam**2) * (1 + abs(g1) + abs(g2)) * abs(g1 - g2)
        if abs(w_hom_scalar(g1, s) - w_hom_scalar(g2, s)) > bound + 1e-12:
            lip_ok = False
    ok = worst <= 1e-12 and lip_ok
    report(6, ok, f"scalar/matrix agreement rel error {worst:.2e} (<= 1e-12); "
                  f"Lipschitz bound 2/lambda^2 {'holds' if lip_ok else 'fails'}")


def test_criterion_07_structured_split_inequality():
    rng = np.random.default_rng(1007)
    failures = 0
    for _ in range(10**5):
        g1, g2 = rng.uniform(-10, 10, size=2)
        ang = rng.uniform(0, 2 * math.pi)
        which = int(rng.integers(1, 3))
        a, d = make_fad_pair(g1, g2, ang, ORTHO, which=which)
        if not lemma_fad_check(a, d, FAD_CONSTANT, ORTHO):
            failures += 1
    report(7, failures == 0,
           f"split inequality with c = {FAD_CONSTANT:g}: {failures} failures in 10^5 samples")


def test_criterion_08_homogenization_sweep():
    slip = SlipSystem.orthogonal(v1=(1 / math.sqrt(2), 1 / math.sqrt(2)), lam=0.5)
    r = np.eye(2)
    reports = run_sweep(slip, r, [(0.4, 1.0)], [1 / 4, 1 / 8, 1 / 16, 1 / 32],
                        laminate_period=0.25, cells_per_feature=8)
    errs = [rep.rel_error for rep in reports]
    mono = all(late <= early * 1.1 + 1e-12 for early, late in zip(errs, errs[1:]))
    single_ok = mono and errs[-1] <= 0.02
    bands = [(0.2, 9 / 32), (0.5, 23 / 32), (-0.3, 1.0)]
    multi = run_sweep(slip, r, bands, [1 / 8, 1 / 32], laminate_period=0.25)
    multi_ok = multi[-1].rel_error <= 0.03
    ratios = []
    for rep in reports:
        dev = float(np.abs(rep.avg_gradient - rep.avg_gradient_target).max())
        ratios.append(dev / rep.epsilon)
    c_fit = max(ratios)
    avg_ok = c_fit <= 0.25
    ok = single_ok and multi_ok and avg_ok
    report(8, ok, f"sweep rel errors {['%.4f' % e for e in errs]} (final <= 0.02: "
                  f"{single_ok}); 3-band final {multi[-1].rel_error:.4f} (<= 0.03); "
                  f"avg-gradient C = {c_fit:.4f} (<= 0.25)")


def test_criterion_09_chi_reduction():
    zs = np.linspace(0.0, 3.0, 1000)
    worst = 0.0
    for z in zs:
        z = float(z)
        worst = max(worst, abs(h(z, math.pi / 4) - chi(z)),
                    abs(h_perp(z, math.pi / 4) - chi(z)))
    report(9, worst <= 1e-12, f"theta = pi/4: max |h - chi|, |h_perp - chi| = "
                              f"{worst:.2e} over 10^3 points (<= 1e-12)")


def test_criterion_10_averaging_check():
    ok1 = all(dev == 0.0 for _, dev in
              averaging_check(lambda y1, y2: np.ones_like(y1), 1.0, [1 / 4, 1 / 8, 1 / 16], 256))
    rows = averaging_check(lambda y1, y2: np.sin(2 * np.pi * y1), 0.0,
                           [0.31, 0.17, 0.086], 512)
    ok2 = all(dev <= eps for eps, dev in rows)
    ok3 = True
    lam = 0.5
    for eps in (1 / 4, 1 / 8, 1 / 16):
        (_, dev), = averaging_check(lambda y1, y2: (y2 < lam).astype(float), lam,
                                    [eps], int(64 / eps))
        ok3 = ok3 and dev <= 2 * eps
    ok = ok1 and ok2 and ok3
    report(10, ok, f"averaging examples: constant exact = {ok1}, sine O(eps) = {ok2}, "
                   f"soft-layer indicator within 2 eps = {ok3}")


def test_criterion_11_determinism(tmp_path):
    scan_a, scan_b = tmp_path / "scan_a.csv", tmp_path / "scan_b.csv"
    for out in (scan_a, scan_b):
        assert main(["--range", "3", "--n", "61", "--n-dirs", "720",
                     "verify-envelope", "--out", str(out)]) == 0
    scan_same = scan_a.read_bytes() == scan_b.read_bytes()
    hom_a, hom_b = tmp_path / "hom_a.csv", tmp_path / "hom_b.csv"
    slip_args = ["--lambda", "0.5"]
    for out in (hom_a, hom_b):
        assert main(slip_args + ["homogenize", "--gamma-bands", "0.4:1",
                                 "--eps-list", "1/4,1/8,1/16,1/32", "--hlam", "0.25",
                                 "--out", str(out)]) == 0
    hom_same = hom_a.read_bytes() == hom_b.read_bytes()
    map_a, map_b = tmp_path / "map_a.csv", tmp_path / "map_b.csv"
    for out in (map_a, map_b):
        assert main(["--theta", repr(0.3 * math.pi), "--range", "3", "--n", "61",
                     "regionmap", "--out", str(out)]) == 0
    rows = [line.split(",") for line in map_a.read_text().splitlines()[1:]]
    assert any(row[4] == "" and row[5] != "" for row in rows)  # Bounds cells present
    map_same = map_a.read_bytes() == map_b.read_bytes()
    ok = scan_same and hom_same and map_same
    report(11, ok, f"byte-identical reruns: envelope scan = {scan_same}, "
                   f"homogenization sweep = {hom_same}, general-angle region map = {map_same}")
