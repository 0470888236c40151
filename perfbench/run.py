#!/usr/bin/env python3
"""lamlab benchmark: the certify, maps and queries workloads.

Run from the root of a lamlab checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Each workload is one closed-loop client calling lamlab at its defaults (the
thread pool size is whatever the program picks).  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` runs the same work once
untraced and once traced and reports the per-layer metrics.  ``--smoke``
shrinks every input and runs a single round with no timing bound; it exists
for the benchmark's own tests.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for what each workload and metric measures.
"""

from __future__ import annotations

import argparse
import collections
import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

THETAS = (math.pi / 4, 0.3 * math.pi)
QUERY_THETAS = (math.pi / 4, 0.3 * math.pi, 0.35 * math.pi, 0.45 * math.pi)
LAM = 0.5
TOL = 1e-9                 # the CLI's default manifold tolerance
WIDE_SHARE = 0.02          # queries with |b| log-uniform in [1e2, 1e6]
WIDE_STRATUM_SEED = 0      # the wide-|b| points are the same for every --seed
TAGS = ("SO2", "M1", "M2", "A", "APerp", "N1capN2", "N1only", "N2only", "OffManifold")
SINGLE_BAND = "0.4:1"      # the criterion-08 layout

SPAN_MODULES = ["lamlab.cli", "lamlab.envelope_oracle", "lamlab.regions",
                "lamlab.energy", "lamlab.laminate", "lamlab.homogenize"]
COUNT_MODULES = ["lamlab.algebra"]
EXPECTED = ["cli.main", "envelope_oracle.envelope_scan", "envelope_oracle.wlc_numeric",
            "regions.region_map", "regions.classify", "energy.w_hom", "energy.w_condensed",
            "laminate.decompose", "laminate.verify_decomposition",
            "homogenize.build_gradient_field", "homogenize.energy_of_field",
            "algebra.bc_to_matrix"]


@dataclass(frozen=True)
class Sizes:
    certify_n: int = 61
    n_dirs: int = 720
    map_n: int = 201
    single_eps: tuple = ("1/4", "1/8", "1/16", "1/32", "1/64")
    multi_eps: tuple = ("1/8", "1/16", "1/32", "1/64")
    query_pool: int = 2048      # distinct query points, evaluated pass after pass
    trace_passes: int = 8       # passes over the pool in the traced run
    setup_repeats: int = 9


FULL = Sizes()
SMOKE = Sizes(certify_n=7, n_dirs=90, map_n=9, single_eps=("1/4", "1/8"),
              multi_eps=("1/8",), query_pool=40, trace_passes=1, setup_repeats=1)


class Lamlab:
    """The lamlab modules, looked up by attribute at call time so that the
    tracer's wrappers are seen."""

    def __init__(self):
        if not (SRC / "lamlab" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no lamlab sources under {SRC}")
        sys.path.insert(0, str(SRC))
        import lamlab
        if Path(lamlab.__file__).resolve().parent != (SRC / "lamlab").resolve():
            raise SystemExit(f"perfbench: imported lamlab from {lamlab.__file__}, not {SRC}")
        import lamlab.algebra
        import lamlab.cli
        import lamlab.energy
        import lamlab.errors
        import lamlab.laminate
        import lamlab.regions
        self.algebra, self.cli, self.energy = lamlab.algebra, lamlab.cli, lamlab.energy
        self.errors, self.laminate, self.regions = lamlab.errors, lamlab.laminate, lamlab.regions


# ---------------------------------------------------------------------------
# operations and their checks


@dataclass(slots=True)
class Outcome:
    key: tuple                       # the same key for every repetition of one operation
    kind: str
    wall: float
    ok: bool
    reason: str = ""
    wide: bool = False               # a query from the wide-|b| stratum
    cells: int = 0                   # certified / mapped cells of an ok CSV
    skipped: int = 0
    csv_bytes: int = 0
    tags: collections.Counter | None = None   # region tags seen in an ok CSV
    boundary: int = 0


def run_cli(lam: Lamlab, argv) -> tuple[float, int | str]:
    """Wall time of one lamlab.cli.main call and its exit code (or the crash)."""
    t0 = time.perf_counter()
    try:
        rc = lam.cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        return time.perf_counter() - t0, f"crash {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc


def _read_csv(path: Path, header: list) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"bad header {rows[:1]}")
    return rows[1:]


def _grid_ok(rows, bc_range: float, n: int) -> str:
    if len(rows) != n * n:
        return f"{len(rows)} rows, expected {n * n}"
    step = 2.0 * bc_range / n
    for k, row in enumerate(rows):
        b = -bc_range + (k % n + 0.5) * step
        c = -bc_range + (k // n + 0.5) * step
        if abs(float(row[0]) - b) > 1e-12 * bc_range or abs(float(row[1]) - c) > 1e-12 * bc_range:
            return f"row {k} at ({row[0]}, {row[1]}), expected ({b!r}, {c!r})"
    return ""


CERTIFY_HEADER = ["b", "c", "region", "closed", "oracle", "discrepancy", "slack_lo", "slack_hi"]
MAP_HEADER = ["b", "c", "region", "boundary", "whom", "lower", "upper"]
SWEEP_HEADER = ["epsilon", "hlam", "e_eps", "target", "rel_error", "flagged_area"]


def check_certify(path: Path, bc_range: float, n: int, out: Outcome):
    """Row count and grid, discrepancy <= 1e-5 on Known cells, bound violation
    <= 1e-5 on Bounds cells (the criterion 01/02 tolerances)."""
    rows = _read_csv(path, CERTIFY_HEADER)
    bad = _grid_ok(rows, bc_range, n)
    if bad:
        return bad
    out.tags = collections.Counter()
    for k, (_, _, region, closed, oracle, _, slack_lo, slack_hi) in enumerate(rows):
        if region not in TAGS:
            return f"row {k}: unknown region {region!r}"
        out.tags[region] += 1
        if oracle == "":
            out.skipped += 1
            continue
        value = float(oracle)
        if not math.isfinite(value):
            return f"row {k}: oracle {oracle}"
        if closed != "":
            if not abs(value - float(closed)) <= 1e-5:
                return f"row {k} ({region}): |oracle - closed| = {abs(value - float(closed)):.3e}"
        elif not max(-float(slack_lo), -float(slack_hi)) <= 1e-5:
            return f"row {k} ({region}): bound violation {slack_lo}, {slack_hi}"
        out.cells += 1
    if out.cells == 0:
        return "no cell certified"
    return ""


def check_map(path: Path, bc_range: float, n: int, out: Outcome):
    """Every tag valid, every Known whom finite and >= 0, Bounds rows complete."""
    rows = _read_csv(path, MAP_HEADER)
    bad = _grid_ok(rows, bc_range, n)
    if bad:
        return bad
    out.tags = collections.Counter()
    for k, (_, _, region, boundary, whom, lower, upper) in enumerate(rows):
        adjacent = boundary.split(";") if boundary else []
        if region not in TAGS or any(t not in TAGS for t in adjacent):
            return f"row {k}: unknown tag in {region!r} / {boundary!r}"
        out.tags[region] += 1
        out.boundary += bool(adjacent)
        if whom != "":
            value = float(whom)
            if not (math.isfinite(value) and value >= 0.0):
                return f"row {k} ({region}): whom {whom}"
        elif lower == "" or upper == "":
            return f"row {k} ({region}): neither whom nor bounds"
    out.cells = len(rows)
    return ""


def check_sweep(path: Path, eps_list, targets, final_rel_error, out: Outcome):
    """One row per epsilon, target equal to the benchmark's own band-weighted
    sum of w_hom, and (single band) the criterion-08 final error bound."""
    rows = _read_csv(path, SWEEP_HEADER)
    if len(rows) != len(eps_list):
        return f"{len(rows)} rows, expected {len(eps_list)}"
    for (eps, _, e_eps, target, rel_error, _), want_eps in zip(rows, eps_list):
        if float(eps) != want_eps:
            return f"epsilon {eps}, expected {want_eps!r}"
        if not (math.isfinite(float(e_eps)) and float(e_eps) >= 0.0
                and math.isfinite(float(rel_error))):
            return f"eps {eps}: e_eps {e_eps}, rel_error {rel_error}"
        if not abs(float(target) - targets) <= 1e-9 * max(1.0, abs(targets)):
            return f"eps {eps}: target {target}, expected {targets!r}"
    if final_rel_error is not None and not float(rows[-1][4]) <= final_rel_error:
        return f"final rel_error {rows[-1][4]} > {final_rel_error}"
    return ""


def csv_op(lam: Lamlab, key: tuple, argv, path: Path, check) -> Outcome:
    wall, rc = run_cli(lam, list(argv) + ["--out", str(path)])
    out = Outcome(key=key, kind=key[0], wall=wall, ok=False)
    if rc != 0:
        out.reason = f"exit {rc}"
        return out
    try:
        out.reason = check(path, out)
    except (OSError, ValueError, IndexError) as exc:
        out.reason = f"unreadable output: {exc}"
    out.ok = not out.reason
    out.csv_bytes = path.stat().st_size if path.exists() else 0
    if not out.ok:
        out.cells = 0
    return out


def _frac(text: str) -> float:
    num, _, den = text.partition("/")
    return float(num) / float(den) if den else float(num)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A fixed set of operations, made from the seed, split into steps.

    ``steps()`` lists zero-argument callables that each run some of the
    operations once and return their outcomes; ``first_steps()`` lists steps
    that a timed run makes once, before repeating ``steps()``.  One round
    runs every step of both.
    """

    def first_steps(self):
        return []

    def round(self) -> list:
        return [out for step in self.first_steps() + self.steps() for out in step()]


class Certify(Workload):
    """verify-envelope on a 61^2 grid with 720 directions at two angles."""

    name = "certify"

    def __init__(self, lam, sizes, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        self.lam, self.sizes, self.workdir = lam, sizes, workdir
        self.bc_range = 3.0 + float(rng.uniform(-0.05, 0.05))

    def op(self, theta: float, n=None, n_dirs=None) -> Outcome:
        n = n or self.sizes.certify_n
        argv = ["--theta", repr(theta), "--range", repr(self.bc_range), "--n", str(n),
                "--n-dirs", str(n_dirs or self.sizes.n_dirs), "verify-envelope"]
        return csv_op(self.lam, ("verify-envelope", theta, n), argv, self.workdir / "scan.csv",
                      lambda p, o: check_certify(p, self.bc_range, n, o))

    def warm_up(self):
        for theta in THETAS:
            self.op(theta, n=SMOKE.certify_n, n_dirs=SMOKE.n_dirs)

    def steps(self):
        return [lambda theta=theta: [self.op(theta)] for theta in THETAS]


class Maps(Workload):
    """regionmap on a 201^2 grid at two angles plus two homogenize sweeps."""

    name = "maps"

    def __init__(self, lam, sizes, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        self.lam, self.sizes, self.workdir = lam, sizes, workdir
        self.bc_range = 3.0 + float(rng.uniform(-0.05, 0.05))
        gammas = rng.choice([-1.0, 1.0], size=3) * rng.uniform(0.1, 0.5, size=3)
        edges = [float(rng.uniform(0.2, 0.4)), float(rng.uniform(0.6, 0.8)), 1.0]
        self.single = ([(0.4, 1.0)], SINGLE_BAND)
        self.multi = (list(zip(gammas.tolist(), edges)),
                      ",".join(f"{g!r}:{t!r}" for g, t in zip(gammas.tolist(), edges)))
        # targets come from the public w_hom, computed before any tracing starts
        self.targets = {text: self.target(bands) for bands, text in (self.single, self.multi)}

    def target(self, bands) -> float:
        slip = self.lam.energy.SlipSystem.from_theta(math.pi / 4, LAM)
        total, left = 0.0, 0.0
        for gamma, right in bands:
            shear = np.eye(2) + (gamma / LAM) * np.outer([1.0, 0.0], [0.0, 1.0])
            total += LAM * (right - left) * self.lam.energy.w_hom(shear, slip).value.as_float()
            left = right
        return total

    def regionmap(self, theta: float, n=None) -> Outcome:
        n = n or self.sizes.map_n
        argv = ["--theta", repr(theta), "--range", repr(self.bc_range), "--n", str(n),
                "regionmap"]
        return csv_op(self.lam, ("regionmap", theta, n), argv, self.workdir / "map.csv",
                      lambda p, o: check_map(p, self.bc_range, n, o))

    def sweep(self, layout, eps_text, kind, final_eps) -> Outcome:
        """One ``homogenize`` call over ``eps_text``: a piece of a sweep whose
        last layer period is ``final_eps``."""
        bands_text = layout[1]
        eps_list = [_frac(e) for e in eps_text]
        argv = ["--theta", repr(math.pi / 4), "--lambda", repr(LAM), "homogenize",
                f"--gamma-bands={bands_text}", "--eps-list", ",".join(eps_text),
                "--hlam", "0.25", "--cells-per-feature", "8"]
        # criterion 08: the single band's error at the sweep's finest period
        final = (0.02 if layout is self.single and eps_text[-1] == final_eps
                 and eps_list[-1] <= 1 / 32 else None)
        return csv_op(self.lam, (kind, ",".join(eps_text)), argv, self.workdir / f"{kind}.csv",
                      lambda p, o: check_sweep(p, eps_list, self.targets[bands_text],
                                               final, o))

    def warm_up(self):
        for theta in THETAS:
            self.regionmap(theta, n=SMOKE.map_n)
        self.sweep(self.single, SMOKE.single_eps, "sweep_single", SMOKE.single_eps[-1])

    def first_steps(self):
        return [lambda theta=theta: [self.regionmap(theta)] for theta in THETAS]

    def steps(self):
        """Each sweep one layer period per call, so that each period's wall is
        timed on its own."""
        steps = []
        for layout, eps_text, kind in ((self.single, self.sizes.single_eps, "sweep_single"),
                                       (self.multi, self.sizes.multi_eps, "sweep_multi")):
            steps += [lambda layout=layout, eps=eps, kind=kind, last=eps_text[-1]:
                      [self.sweep(layout, (eps,), kind, last)] for eps in eps_text]
        return steps


class Queries(Workload):
    """A seeded pool of det-1 points through the public scalar API.

    The pool holds ``query_pool`` points; one step is one pass over all of
    them.  2% of the points (the wide-|b| stratum) come from a generator of
    their own that ignores the seed, so that every run attempts the same
    wide-|b| points and counts the same known failures among them; the seed
    draws the other points and where the wide ones sit in the pool.
    """

    name = "queries"

    def __init__(self, lam, sizes, seed, workdir):
        self.lam, self.sizes = lam, sizes
        self.slips = [lam.energy.SlipSystem.from_theta(t, LAM) for t in QUERY_THETAS]
        self.labels = None   # classify results, collected only in the traced run
        n = sizes.query_pool
        n_wide = round(WIDE_SHARE * n)
        rng = np.random.default_rng([seed, 3])
        which = rng.integers(len(self.slips), size=n)
        b = rng.uniform(-3.0, 3.0, n)
        c = rng.uniform(-3.0, 3.0, n)
        wide = np.zeros(n, dtype=bool)
        wide[rng.choice(n, size=n_wide, replace=False)] = True
        fixed = np.random.default_rng([WIDE_STRATUM_SEED, 3])
        b[wide] = np.copysign(10.0 ** fixed.uniform(2.0, 6.0, n_wide),
                              fixed.uniform(-1.0, 1.0, n_wide))
        c[wide] = fixed.uniform(-3.0, 3.0, n_wide)
        which[wide] = fixed.integers(len(self.slips), size=n_wide)
        self.pool = list(zip(which.tolist(), b.tolist(), c.tolist(), wide.tolist()))

    def query(self, index: int) -> Outcome:
        """bc_to_matrix -> classify -> w_hom -> decompose -> verify_decomposition,
        the sequence of the classify and laminate commands."""
        which, b, c, wide = self.pool[index]
        key = ("query", index)
        s = self.slips[which]
        lam = self.lam
        t0 = time.perf_counter()
        try:
            f = lam.algebra.bc_to_matrix(b, c)
            label = lam.regions.classify(f, s, TOL)
            if self.labels is not None:
                self.labels.append(label)
            if label.tag == "OffManifold":
                wall = time.perf_counter() - t0
                return Outcome(key, "query", wall, False, "classify: OffManifold", wide=wide)
            record = lam.energy.w_hom(f, s, TOL)
            dec = lam.laminate.decompose(f, s, TOL)
            rep = lam.laminate.verify_decomposition(dec, f, s)
        except lam.errors.LamlabError as exc:
            return Outcome(key, "query", time.perf_counter() - t0, False,
                           f"error {type(exc).__name__}", wide=wide)
        except Exception as exc:  # a crash always counts against correctness
            return Outcome(key, "query", time.perf_counter() - t0, False,
                           f"crash {type(exc).__name__}: {exc}", wide=wide)
        wall = time.perf_counter() - t0
        reason = check_query(lam, record, dec, rep)
        return Outcome(key, "query", wall, not reason, reason, wide=wide)

    def warm_up(self):
        for index in range(min(20, len(self.pool))):
            self.query(index)

    def one_pass(self) -> list:
        return [self.query(index) for index in range(len(self.pool))]

    def steps(self):
        return [self.one_pass]


def check_query(lam: Lamlab, record, dec, rep) -> str:
    """Criterion-03 tolerances: conv/rank <= 1e-10, manifold <= 1e-9, laminate
    energy equal to a Known w_hom within 1e-8 (relative to max(1, w_hom))."""
    if rep.convex_combination > 1e-10 or rep.rank_one > 1e-10:
        return "check: conv or rank residual > 1e-10"
    if rep.manifold > 1e-9:
        return "check: manifold residual > 1e-9"
    if isinstance(record, lam.energy.Known):
        ref = record.value.as_float()
        if not math.isfinite(ref):
            return "check: w_hom infinite"
        if not abs(dec.energy - ref) <= 1e-8 * max(1.0, ref):
            return "check: laminate energy != w_hom"
    return ""


WORKLOADS = {cls.name: cls for cls in (Certify, Maps, Queries)}


# ---------------------------------------------------------------------------
# measurement


class Ledger:
    """Attempted / failed counts over distinct operations.

    Each operation (one key) counts once, by its first outcome; every
    repetition of it is checked again, and one whose outcome differs from the
    first makes the run incorrect.  A failure outside the wide-|b| query
    stratum, or any crash, also makes the run incorrect; wide-|b| failures
    (the known bc_to_matrix cancellation) are counted in ``failed`` like
    every other failure.
    """

    def __init__(self):
        self.first = {}          # key -> first Outcome
        self.failed = 0
        self.unexpected = 0
        self.reasons = collections.Counter()

    @property
    def attempted(self) -> int:
        return len(self.first)

    def add(self, outcomes):
        for out in outcomes:
            first = self.first.setdefault(out.key, out)
            if first is out:
                if not out.ok:
                    self.failed += 1
                    expected = out.wide and not out.reason.startswith("crash")
                    self.unexpected += not expected
                    self.reasons[("wide-|b| " if out.wide else "") + out.reason] += 1
            elif (first.ok, first.reason) != (out.ok, out.reason):
                self.unexpected += 1
                self.reasons[f"changed on a repeat: {first.reason or 'ok'} -> "
                             f"{out.reason or 'ok'}"] += 1
        return outcomes


def measure_setup(repeats: int) -> float:
    """Median wall time of a fresh interpreter importing lamlab.cli and
    building its parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-c", "import lamlab.cli as c; c.build_parser()"]
    times = []
    for k in range(repeats + 1):   # the first, untimed run fills the bytecode cache
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=60)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: importing lamlab.cli failed: {proc.stderr.decode()}")
        if k:
            times.append(wall)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


@dataclass
class Timings:
    """What a closed-loop run saw: every wall of every operation, by key, and
    the wall and correct-operation count of every step."""

    walls: dict
    steps: list      # (wall, correct operations) per step run


def run_steps(work, ledger: Ledger, seconds: float, smoke: bool) -> Timings:
    """Closed loop: the workload's first steps once, then its steps in order,
    round after round, until ``seconds`` have passed and every step ran at
    least once (one round in smoke mode)."""
    timings = Timings(collections.defaultdict(list), [])

    def run(step):
        t0 = time.perf_counter()
        outs = ledger.add(step())
        timings.steps.append((time.perf_counter() - t0, sum(o.ok for o in outs)))
        for out in outs:
            timings.walls[out.key].append(out.wall)

    start = time.perf_counter()
    for step in work.first_steps():
        run(step)
    steps = work.steps()
    k = 0
    while True:
        run(steps[k % len(steps)])
        k += 1
        if k >= len(steps) and (smoke or time.perf_counter() - start >= seconds):
            return timings


def end_to_end(work, ledger: Ledger, seconds: float, smoke: bool, setup_s: float) -> dict:
    """The bounded metrics, from the fastest repetition of each operation.

    The same operations run again and again, so each has many walls.  The
    host this runs on slows down by a third or more for seconds at a time,
    from load no run controls, and that load only ever adds time; the fastest
    wall of an operation is the one least disturbed by it.  ``latency_ms``
    and ``throughput_per_s`` are built from those fastest walls: the
    throughput is the correct work of one round over the sum of the fastest
    walls of its operations.  On maps both come from the homogenize calls
    alone; the two 201^2 regionmaps run once and are only printed, because
    2-second pure-Python calls do not read the same from run to run on a
    shared host.  The lines before the JSON also print plain medians over
    every wall.
    """
    t = run_steps(work, ledger, seconds, smoke)
    first = ledger.first
    best = {key: min(walls) for key, walls in t.walls.items()}
    report = {}
    if isinstance(work, Queries):
        good = [key for key in best if first[key].ok]
        every = np.array([w for key in good for w in t.walls[key]]) * 1e6
        report["query_p50_us"] = (float(np.median(every)), "us")
        report["query_p99_us"] = (float(np.percentile(every, 99)), "us")
        report["query_samples"] = (len(every), "count")
        report["queries_per_s"] = (statistics.median(n / wall for wall, n in t.steps), "1/s")
        report["passes"] = (len(t.steps), "count")
        latency = statistics.median(best[key] for key in good)
        throughput = len(good) / sum(best.values())
    else:
        keys = collections.defaultdict(list)     # operation kind -> its keys
        for key in best:
            keys[key[0]].append(key)

        def fastest(kind):
            return sum(best[key] for key in keys[kind])

        def cells(kind):
            return sum(first[key].cells for key in keys[kind])

        def median_rate(kind):
            return statistics.median(first[key].cells / wall for key in keys[kind]
                                     for wall in t.walls[key])

    if isinstance(work, Certify):
        report["certify_cells_per_s"] = (median_rate("verify-envelope"), "1/s")
        report["verify_envelope_p50_s"] = (
            statistics.median(w for key in keys["verify-envelope"] for w in t.walls[key]), "s")
        latency = fastest("verify-envelope")
        throughput = cells("verify-envelope") / latency
    elif isinstance(work, Maps):
        report["regionmap_cells_per_s"] = (median_rate("regionmap"), "1/s")
        for kind in ("sweep_single", "sweep_multi"):
            report[f"{kind}_s"] = (sum(statistics.median(t.walls[key]) for key in keys[kind]),
                                   "s")
        latency = fastest("sweep_single") + fastest("sweep_multi")
        periods = [key for kind in ("sweep_single", "sweep_multi") for key in keys[kind]]
        throughput = sum(first[key].ok for key in periods) / latency
    rss = peak_rss_mb()
    report.update(peak_rss_mb=(rss, "MB"), setup_s=(setup_s, "s"),
                  error_rate=(ledger.failed / max(ledger.attempted, 1), "ratio"))
    metrics = {"setup_s": (setup_s, "s"),
               "throughput_per_s": (throughput, "1/s"),
               "latency_ms": (latency * 1e3, "ms"),
               "peak_rss_mb": (rss, "MB")}
    for name, (value, unit) in {**report, **metrics}.items():
        print(f"{name} = {value:.6g} {unit}")
    return metrics


def traced(work, ledger: Ledger, dump: Path) -> dict:
    """One untraced and one traced pass over the same inputs; per-layer metrics."""
    if isinstance(work, Queries):
        one_round = lambda: [out for _ in range(work.sizes.trace_passes)  # noqa: E731
                             for out in work.one_pass()]
    else:
        one_round = work.round
    t0 = time.perf_counter()
    ledger.add(one_round())
    untraced_wall = time.perf_counter() - t0
    if isinstance(work, Queries):
        work.labels = []

    def grid_probe(args, kwargs, result):
        labels = getattr(result, "labels", None)
        shape = getattr(labels, "shape", None)
        return (int(shape[0]), int(labels.size), int(labels.nbytes)) if shape else None

    with Tracer(SPAN_MODULES, COUNT_MODULES,
                probes={"homogenize.build_gradient_field": grid_probe}) as tracer:
        tracer.install(EXPECTED)
        run_round = tracer.wrap(one_round, f"{work.name}.round")
        t0 = time.perf_counter()
        outcomes = ledger.add(run_round())
        traced_wall = time.perf_counter() - t0

    single_s = 0.0
    if isinstance(work, Certify):
        # the same scans with one worker: the single-thread baseline
        saved = os.environ.get("LAMLAB_THREADS")
        os.environ["LAMLAB_THREADS"] = "1"
        try:
            t0 = time.perf_counter()
            ledger.add(work.round())
            single_s = time.perf_counter() - t0
        finally:
            if saved is None:
                del os.environ["LAMLAB_THREADS"]
            else:
                os.environ["LAMLAB_THREADS"] = saved

    t = tracer.table()
    tracer.dump(str(dump))
    scans = t.top_level("envelope_oracle")
    scan_s = float(t.dur[scans].sum())
    busy = t.total_s("envelope_oracle.wlc_numeric")
    in_cli = t.in_layer("cli")
    tags = collections.Counter()
    boundary = 0
    for o in outcomes:
        tags.update(o.tags or {})
        boundary += o.boundary + o.skipped
    if isinstance(work, Queries):
        for label in work.labels:
            tags[label.tag] += 1
            boundary += bool(label.boundary)
    grids = [g for g in tracer.probe_values.get("homogenize.build_gradient_field", []) if g]
    certified = sum(o.cells for o in outcomes if o.kind == "verify-envelope")

    m = {
        "envelope_oracle.scan_s": (scan_s, "s"),
        "envelope_oracle.self_s": (t.self_time(scans, t.children_of(scans)), "s"),
        "envelope_oracle.wlc_numeric.calls": (t.calls("envelope_oracle.wlc_numeric"), "count"),
        "envelope_oracle.wlc_numeric.busy_s": (busy, "s"),
        "envelope_oracle.wlc_numeric.p50_us": (t.p50_us("envelope_oracle.wlc_numeric"), "us"),
        "envelope_oracle.workers": (t.threads_per_owner(scans, "envelope_oracle.wlc_numeric"),
                                    "count"),
        "envelope_oracle.concurrency": (busy / scan_s if scan_s > 0 else 0.0, "ratio"),
        "envelope_oracle.single_worker_s": (single_s, "s"),
        "envelope_oracle.directions": (certified * work.sizes.n_dirs
                                       if isinstance(work, Certify) else 0, "count"),
        "regions.region_map.s": (t.total_s("regions.region_map"), "s"),
        "regions.classify.calls": (t.calls("regions.classify"), "count"),
        "regions.classify.p50_us": (t.p50_us("regions.classify"), "us"),
    }
    for tag in TAGS:
        m[f"regions.cells.{tag}"] = (tags[tag], "count")
    m.update({
        "regions.boundary_cells": (boundary, "count"),
        "energy.w_hom.calls": (t.calls("energy.w_hom"), "count"),
        "energy.w_hom.p50_us": (t.p50_us("energy.w_hom"), "us"),
        "energy.w_condensed.calls": (t.calls("energy.w_condensed"), "count"),
        "laminate.decompose.calls": (t.calls("laminate.decompose"), "count"),
        "laminate.decompose.p50_us": (t.p50_us("laminate.decompose"), "us"),
        "laminate.verify_decomposition.p50_us": (t.p50_us("laminate.verify_decomposition"), "us"),
        "laminate.off_manifold": (t.errors_in("laminate", "OffManifold"), "count"),
        "homogenize.build_gradient_field.s": (t.total_s("homogenize.build_gradient_field"), "s"),
        "homogenize.energy_of_field.s": (t.total_s("homogenize.energy_of_field"), "s"),
        "homogenize.grid_cells": (sum(g[1] for g in grids), "count"),
        "homogenize.label_bytes": (sum(g[2] for g in grids), "B_computed"),
        "homogenize.max_grid_n": (max((g[0] for g in grids), default=0), "count"),
        "cli.self_s": (t.self_time(t.top_level("cli"), ~in_cli & t.children_of(in_cli)), "s"),
        "cli.csv_bytes": (sum(o.csv_bytes for o in outcomes), "B"),
        "algebra.bc_to_matrix.calls": (tracer.count("algebra.bc_to_matrix"), "count"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
    })
    print(f"traced round {traced_wall:.3f} s, untraced {untraced_wall:.3f} s, "
          f"{len(t.sid)} spans -> {dump.name}")
    if tracer.absent:
        print("absent: " + ", ".join(tracer.absent))
    return m


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git (or 'unknown')."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one round, no timing bound")
    args = parser.parse_args(argv)

    lam = Lamlab()
    sizes = SMOKE if args.smoke else FULL
    threads_env = os.environ.get("LAMLAB_THREADS")
    workers = getattr(sys.modules.get("lamlab.envelope_oracle"), "_worker_count", None)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "cpu_count": os.cpu_count(),
            "pool_workers": workers() if callable(workers) else None,
            "LAMLAB_THREADS": threads_env, "python": platform.python_version(),
            "numpy": np.__version__, "commit": git_commit()}
    print("meta " + json.dumps(meta, sort_keys=True))

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        work = WORKLOADS[args.workload](lam, sizes, args.seed, workdir)
        work.warm_up()   # untimed: NumPy's first-call set-up and lazy imports
        ledger = Ledger()
        if args.trace:
            dump = WORK / f"trace-{args.workload}-seed{args.seed}.npz"
            metrics = traced(work, ledger, dump)
        else:
            metrics = end_to_end(work, ledger, args.seconds, args.smoke,
                                 measure_setup(sizes.setup_repeats))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for reason, count in ledger.reasons.most_common(8):
        print(f"failed x{count}: {reason}", file=sys.stderr)
    result = {"correct": ledger.unexpected == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
