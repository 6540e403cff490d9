#!/usr/bin/env python3
"""Benchmark of the `tripods` command line.

    python3 bench/run.py --workload census-exact --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout: the package is imported from
`src/`, and every operation calls `tripods.cli.main` with the arguments a
user would type, reads the JSON report back and checks it (see checks.py).
A run repeats whole rounds of its workload's operations until `--seconds`
have passed, then prints a run record (machine facts, seed, per-operation
timings) and, as the last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs one round
untraced and one round with the span recorder of spans.py installed, and
reports the per-layer metrics together with the tracing overhead; the
spans are written to `.bench_out/`.  `--smoke` runs every operation at toy
sizes in a few seconds.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import checks
import reference
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NPROC = max(1, len(os.sched_getaffinity(0)))

WORKLOADS = ("census-exact", "exact-tripod", "float-mc")
SEARCH_BUDGET_S = 2.0
SEARCH_STEPS = 5
MAX_EXTRA_STEPS = 8
SETUP_STARTS = 10
CALIBRATION_OPS = 150
CALIBRATION_RADIUS = 5
NOMINAL_CALIBRATION_S = 0.010  # the calibration job's time at the speed inspect latency is reported at
INSPECT_SAMPLE = 1000          # probes: the tail percentile needs ten samples beyond p99
INSPECT_SAMPLE_EXACT = 1500    # exact-tripod: fifteen beyond, for a steadier p99
SURVEY_RADIUS = 10
MC_SAMPLES = 1_000_000

class BenchError(Exception):
    """The checkout cannot be benchmarked (no package source)."""


def load_package() -> dict:
    """Import tripods from the checkout's src/, never from anywhere else."""
    if not (SRC / "tripods" / "cli.py").is_file():
        raise BenchError(f"no tripods package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    tripods = importlib.import_module("tripods")
    if Path(tripods.__file__).resolve().parent != (SRC / "tripods").resolve():
        raise BenchError(f"imported tripods from {tripods.__file__}, not from {SRC}")
    # by module path: the package re-exports a function named `census`
    pkg = {layer: importlib.import_module(f"tripods.{layer}") for layer in spans.LAYERS}
    pkg["tripods"] = tripods
    return pkg


# -- operations ----------------------------------------------------------------


@dataclass
class Op:
    """One command-line invocation and the checks on its report.

    `counts` names the end-to-end metrics this operation's time feeds:
    census, census_mt, inspect, survey, volume (none: verification only).
    An op with `search` set is one step of the round's radius search.
    A `scaled` op does pure-Python work on one thread; its time is reported
    at nominal machine speed (see Speed).
    """

    key: str
    argv: list[str]
    check: object = None             # env -> list of failure messages
    counts: tuple[str, ...] = ()
    tag: str = "op"
    search: "Search | None" = None
    local: object = None             # a benchmark-side callable run instead of the CLI;
                                     # it may return a dict of measurements
    scaled: bool = False


@dataclass
class Search:
    """Largest radius whose census finishes within the budget.

    The search owns `steps` slots spread over the round, one census each.
    A step measures the start radius, then a radius predicted by a power law
    through the measurements nearest the budget, until two adjacent radii
    bracket the budget; the remaining steps measure the bracket again.  A
    radius's time is its fastest measurement.  The result comes from a
    power law fitted through all of them, so it moves continuously with
    speed and averages the noise of single measurements.
    """

    lattice: str
    reduced: bool
    start: int
    budget_s: float
    steps: int


class SearchState:
    def __init__(self, cfg: Search):
        self.cfg = cfg
        self.times: dict[int, list[float]] = {}

    def best(self, r: int) -> float:
        return min(self.times[r])

    def bracket(self) -> int | None:
        b = self.cfg.budget_s
        for r in sorted(self.times, reverse=True):
            if r + 1 in self.times and self.best(r) <= b < self.best(r + 1):
                return r
        return None

    def next_radius(self) -> int:
        b = self.cfg.budget_s
        lo = self.bracket()
        if lo is not None:
            return lo if len(self.times[lo]) <= len(self.times[lo + 1]) else lo + 1
        if not self.times:
            return self.cfg.start
        under = [r for r in self.times if self.best(r) <= b]
        over = [r for r in self.times if self.best(r) > b]
        if under and over and max(under) > min(over):
            # noise made the times non-monotone: measure the inversion again
            return min((max(under), min(over)), key=lambda r: len(self.times[r]))
        near = sorted(self.times, key=lambda r: abs(math.log(self.best(r) / b)))[:2]
        r0 = near[0]
        expo = 3.0
        if len(near) == 2 and self.best(near[1]) != self.best(r0):
            fit = math.log(self.best(near[1]) / self.best(r0)) / math.log(near[1] / r0)
            expo = fit if fit > 0.5 else expo
        guess = int(r0 * (b / self.best(r0)) ** (1 / expo))
        low = max(under) + 1 if under else 1
        high = min(over) - 1 if over else max(low, guess)
        return min(max(guess, low), max(high, low))

    def record(self, r: int, wall: float) -> None:
        self.times.setdefault(r, []).append(wall)

    def result(self) -> float | None:
        """The radius where a power law fitted (least squares in log-log)
        through every measured radius's best time meets the budget; with a
        non-increasing fit, linear interpolation across the bracket."""
        if len(self.times) >= 2:
            xs = [math.log(r) for r in self.times]
            ys = [math.log(self.best(r)) for r in self.times]
            mx, my = statistics.fmean(xs), statistics.fmean(ys)
            slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                     / sum((x - mx) ** 2 for x in xs))
            if slope > 0.5:
                return math.exp(mx + (math.log(self.cfg.budget_s) - my) / slope)
        lo = self.bracket()
        if lo is None:
            return None
        t_lo, t_hi = self.best(lo), self.best(lo + 1)
        return lo + (self.cfg.budget_s - t_lo) / (t_hi - t_lo)


class Timed(NamedTuple):
    start: float          # perf_counter at the start
    wall: float
    op: Op
    env: dict             # the parsed report; for a set-up start, its times


@dataclass
class Round:
    walls: dict[str, list[Timed]] = field(default_factory=dict)
    radius: float | None = None
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)   # checks that rejected a report
    errors: list[str] = field(default_factory=list)     # operations that did not complete
    search: SearchState | None = None
    op_wall: float = 0.0                                # all timed command time


def census_argv(lattice: str, radius, mode: str | None = None, reduced: bool = False,
                threads: int = 1) -> list[str]:
    argv = ["census", "--lattice", lattice, "--radius", str(radius), "--threads", str(threads)]
    if mode:
        argv += ["--mode", mode]
    if reduced:
        argv.append("--reduced")
    return argv


def census_op(key, lattice, radius, mode="lemma", reduced=False, threads=1, counts=(),
              extra_check=None, scaled=False) -> Op:
    def check(env):
        fails = checks.census_report(env, lattice, radius, mode, reduced, threads)
        return fails + (extra_check(env) if extra_check else [])
    return Op(key, census_argv(lattice, radius, mode, reduced, threads), check, counts,
              tag="census", scaled=scaled)


def nonreduced_op(key, lattice, radius, threads, counts) -> Op:
    return Op(key, ["nonreduced", "--lattice", lattice, "--radius", str(radius),
                    "--threads", str(threads)],
              lambda env: checks.nonreduced_report(env, lattice, radius), counts, tag="census")


def inspect_ops(pool: list[tuple[str, tuple]], rng: random.Random, k: int) -> list[Op]:
    """A stratified sample: the pool sorted by ell^2 is cut into k equal strata
    and one tripod is drawn from each, so every seed sees the same size mix."""
    ops = []
    for lattice, coords in stratified(rng, pool, k):
        ops.append(Op(f"inspect {lattice} {coords}",
                      ["inspect", "--lattice", lattice, "--coords=" + ",".join(map(str, coords))],
                      lambda env, lat=lattice, c=coords: checks.inspect_report(env, lat, c),
                      ("inspect",), tag="inspect", scaled=True))
    return ops


def stratified(rng: random.Random, items: list, k: int) -> list:
    n = len(items)
    if k >= n:
        return list(items)
    return [items[rng.randrange(i * n // k, (i + 1) * n // k)] for i in range(k)]


def inspect_pool(max_length: int) -> list[tuple[str, tuple]]:
    """Lemma-canonical tripods with ell <= max_length on both lattices, from
    the reference counter, ordered by ell^2."""
    keyed = []
    for lattice in reference.LATTICES:
        for coords in reference.enumerate_lemma(lattice, max_length, include_boundary=True):
            alpha, beta, den = reference.length_sq(lattice, *coords)
            keyed.append(((alpha + beta * math.sqrt(3.0)) / den, lattice, coords))
    keyed.sort()
    return [(lattice, coords) for _l, lattice, coords in keyed]


def survey_lattices(rng: random.Random, k: int) -> list[str]:
    """k general tau = s + it: t at the midpoints of k equal strata of
    [0.5, 1.5), s seeded uniform in the strata of [0, 1) in a seeded order.
    Census cost grows like 1/t^2 and moves by up to a third with s, so
    stratifying both keeps the work of a survey nearly the same from seed
    to seed."""
    out = []
    order = list(range(k))
    rng.shuffle(order)
    for i in range(k):
        t = 0.5 + (i + 0.5) / k
        s = (order[i] + rng.random()) / k
        out.append(f"tau={round(s, 5):g},{round(t, 5):g}")
    return out


def survey_ops(taus: list[str], radius: int, threads: int, counts: tuple[str, ...]) -> list[Op]:
    """General-tau censuses; most of their time goes to the float heuristic
    classifier in Python, so on one thread they are scaled."""
    return [census_op(f"survey {tau} t{threads}", tau, radius, reduced=True, threads=threads,
                      counts=counts, scaled=threads == 1) for tau in taus]


def volume_ops(rng: random.Random, k: int, samples: int) -> list[Op]:
    ops = []
    for _ in range(k):
        seed = rng.randrange(1, 2 ** 31)
        ops.append(Op(f"volume {seed}", ["volume", "--samples", str(samples), "--seed", str(seed)],
                      lambda env, s=seed: checks.volume_report(env, samples, s),
                      ("volume",), tag="volume"))
    return ops


def reference_ops(radius: int) -> list[Op]:
    """Small censuses on both lattices compared with the reference counter."""
    ops = []
    for lattice in reference.LATTICES:
        expected = reference.count(lattice, radius)
        modes = ("lemma", "appendix") if lattice == "gaussian" else ("lemma",)
        for mode in modes:
            ops.append(census_op(f"reference {lattice} {mode} R={radius}", lattice, radius, mode,
                                 extra_check=lambda env, e=expected[mode]:
                                 checks.matches_reference(env, e)))
    return ops


def search_ops(cfg: Search) -> list[Op]:
    return [Op(f"search step {i}", [], search=cfg, tag="census") for i in range(cfg.steps)]


def calibrate() -> None:
    reference.count("eisenstein", CALIBRATION_RADIUS)


def calibration_ops(k: int) -> list[Op]:
    """A fixed pure-Python job (the reference counter at a small radius) run
    between the operations.  Its time tracks the speed the machine gives the
    run at each moment, and the times of scaled operations are divided by it
    (see `Speed`)."""
    return [Op(f"calibration {i}", [], tag="calibration", local=calibrate) for i in range(k)]


def setup_ops(k: int) -> list[Op]:
    """k fresh interpreters started over the round (see `start_interpreter`)."""
    return [Op(f"setup {i}", [], tag="setup", local=start_interpreter) for i in range(k)]


def interleave(groups: list[list[Op]]) -> list[Op]:
    """Spread each group evenly over the round, so that every metric samples
    the whole run rather than one stretch of it (the machine's speed drifts)."""
    keyed = [((i + 0.5) / len(g), gi, i, op) for gi, g in enumerate(groups) for i, op in enumerate(g)]
    return [op for *_k, op in sorted(keyed, key=lambda x: x[:3])]


@dataclass
class Workload:
    warm: list[Op]          # once per run, before the first round
    ops: list[Op]           # one round, in execution order
    cross: list[tuple]      # (check, key a, key b) on two reports of the round


def build_workload(name: str, seed: int, smoke: bool, out_dir: Path) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    n = NPROC
    budget = 0.2 if smoke else SEARCH_BUDGET_S
    steps = 3 if smoke else SEARCH_STEPS
    survey_radius = 6 if smoke else SURVEY_RADIUS
    mc = 10_000 if smoke else MC_SAMPLES
    k_inspect = 20 if smoke else INSPECT_SAMPLE
    # criterion 5's set; its largest tripods make the tail, so a burst of
    # machine noise rarely pushes an ordinary tripod past the p99
    pool = inspect_pool(6 if smoke else 12)
    warm = [census_op("warm census", "gaussian", 5),
            Op("warm inspect", ["inspect", "--lattice", "gaussian", "--coords", "1,0,0,1"],
               lambda env: checks.inspect_report(env, "gaussian", (1, 0, 0, 1)), tag="inspect")]
    cross: list[tuple] = []
    if name == "census-exact":
        r35, r40 = (12, 12) if smoke else (35, 40)
        radii = [6, 9, 12] if smoke else [10, 20, 35]
        plot = out_dir / f"convergence-{seed}.svg"
        warm += reference_ops(6 if smoke else rng.randint(8, 12))
        single = [
            census_op("appendix", "gaussian", r35, "appendix", counts=("census",),
                      extra_check=checks.appendix_golden if r35 == 35 else None),
            nonreduced_op("nonreduced t1", "eisenstein", r40, 1, ("census",)),
            Op("convergence", ["convergence", "--lattice", "gaussian", "--radii",
                               ",".join(map(str, radii)), "--mode", "appendix", "--threads", "1",
                               "--plot", str(plot)],
               lambda env: _convergence_check(env, radii, plot), ("census",), tag="census"),
            census_op("lemma", "gaussian", r35, "lemma", counts=("census",)),
        ]
        multi = [nonreduced_op(f"nonreduced t{n}", "eisenstein", r40, n, ("census_mt",))]
        cross = [(checks.modes_differ_by_ties, "lemma", "appendix"),
                 (checks.threads_agree, "nonreduced t1", f"nonreduced t{n}")]
        groups = [single, multi, inspect_ops(pool, rng, k_inspect),
                  survey_ops(survey_lattices(rng, 2 if smoke else 8), survey_radius, 1, ("survey",)),
                  volume_ops(rng, 4, mc),
                  search_ops(Search("gaussian", False, 10 if smoke else 45, budget, steps))]
    elif name == "exact-tripod":
        r35, r25 = (12, 10) if smoke else (35, 25)
        groups = [
            inspect_ops(pool, rng, 20 if smoke else INSPECT_SAMPLE_EXACT),
            [census_op("reduced t1", "gaussian", r35, reduced=True, counts=("census",),
                       extra_check=_nonreduced_between)],
            [census_op(f"reduced t{n}", "gaussian", r25, reduced=True, threads=n,
                       counts=("census_mt",), extra_check=_nonreduced_between)],
            survey_ops(survey_lattices(rng, 2 if smoke else 8), survey_radius, 1, ("survey",)),
            volume_ops(rng, 4, mc),
            search_ops(Search("gaussian", True, 8 if smoke else 21, budget, steps)),
        ]
    elif name == "float-mc":
        rl_seed = rng.randrange(1, 2 ** 31)
        rl_samples = 2 if smoke else 4
        groups = [
            # the survey is this workload's census: it feeds both rates
            survey_ops(survey_lattices(rng, 3 if smoke else 24), survey_radius, 1,
                       ("survey", "census")),
            survey_ops(survey_lattices(rng, 2 if smoke else 8), survey_radius, n, ("census_mt",)),
            [Op("random-lattice", ["random-lattice", "--samples", str(rl_samples), "--radius",
                                   str(survey_radius), "--seed", str(rl_seed), "--threads", "1"],
                lambda env: checks.random_lattice_report(env, rl_samples, survey_radius, rl_seed),
                tag="survey")],
            volume_ops(rng, 2 if smoke else 4, mc),
            inspect_ops(pool, rng, k_inspect),
            search_ops(Search("tau=0.3,0.9", True, 6 if smoke else 17, budget, steps)),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    groups.append(calibration_ops(4 if smoke else CALIBRATION_OPS))
    groups.append(setup_ops(2 if smoke else SETUP_STARTS))
    return Workload(warm, interleave(groups), cross)


def _convergence_check(env: dict, radii: list[int], plot: Path) -> list[str]:
    svg = plot.read_text() if plot.is_file() else ""
    plot.unlink(missing_ok=True)
    return checks.convergence_report(env, radii, svg)


def _nonreduced_between(env: dict) -> list[str]:
    c = env["payload"]["counts"]
    if not 0 < c["nonreduced_primitive"] < c["primitive"]:
        return [f"expected 0 < nonreduced < primitive, got {c}"]
    return []


# -- running -------------------------------------------------------------------


class Runner:
    def __init__(self, pkg: dict, tracer: spans.Tracer | None = None):
        self.cli = pkg["cli"]
        self.tracer = tracer

    def _invoke(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:           # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, buf.getvalue()

    def call(self, argv: list[str], tag: str) -> tuple[dict, float]:
        """Run one command; the wall time covers cli.main only."""
        t0 = time.perf_counter()
        if self.tracer is None:
            rc, text = self._invoke(argv)
        else:
            rc, text = self.tracer.op(tag, self._invoke, argv)
        wall = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        return json.loads(text), wall

    def run_op(self, op: Op, rnd: Round, results: dict) -> None:
        if op.local is not None:
            t0 = time.perf_counter()
            env = op.local() or {}
            rnd.walls.setdefault(op.tag, []).append(Timed(t0, time.perf_counter() - t0, op, env))
            return
        rnd.attempted += 1
        try:
            if op.search is not None:
                self._search_step(op.search, rnd)
                return
            start = time.perf_counter()
            env, wall = self.call(op.argv, op.tag)
        except Exception as exc:  # an operation that fails is counted, not fatal
            rnd.failed += 1
            rnd.errors.append(f"{op.key}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return
        rnd.op_wall += wall
        rnd.failures += [f"{op.key}: {f}" for f in op.check(env)]
        results[op.key] = env
        for kind in op.counts:
            rnd.walls.setdefault(kind, []).append(Timed(start, wall, op, env))

    def _search_step(self, cfg: Search, rnd: Round) -> None:
        if rnd.search is None:
            rnd.search = SearchState(cfg)
        state = rnd.search
        r = state.next_radius()
        env, wall = self.call(census_argv(cfg.lattice, r, reduced=cfg.reduced), "census")
        rnd.failures += [f"search R={r}: {f}" for f in
                         checks.census_report(env, cfg.lattice, r, "lemma", cfg.reduced)]
        state.record(r, wall)

    def run_round(self, ops: list[Op], cross) -> Round:
        rnd = Round()
        results: dict[str, dict] = {}
        for op in ops:
            self.run_op(op, rnd, results)
        state = rnd.search
        # a search that has not bracketed the budget in its slots goes on
        extra = 0
        while state is not None and state.bracket() is None and extra < MAX_EXTRA_STEPS:
            self.run_op(Op("search extra step", [], search=state.cfg), rnd, results)
            extra += 1
        if state is not None:
            # not an operation: a search without a result leaves the metric at 0
            rnd.radius = state.result()
            if rnd.radius is None:
                rnd.errors.append(f"radius search found no result: {state.times}")
        for fn, a, b in cross:
            if a in results and b in results:
                rnd.failures += [f"{a} / {b}: {f}" for f in fn(results[a], results[b])]
        return rnd


def start_interpreter() -> dict:
    """Interpreter start to `tripods.cli` imported and its parser built
    (`setup_s`), and the import alone (`import_s`), in a fresh process."""
    code = ("import time; t0 = time.monotonic_ns(); from tripods import cli; "
            "cli.build_parser(); print(t0, time.monotonic_ns())")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.monotonic_ns()
    cp = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                        text=True, timeout=120, check=True)
    t_import, t_ready = (int(x) for x in cp.stdout.split())
    return {"setup_s": (t_ready - start) / 1e9, "import_s": (t_ready - t_import) / 1e9}


# -- metrics ---------------------------------------------------------------------


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile (with n samples, n/100 lie above it)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(0.99 * len(s)) - 1)]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _tripods(env: dict) -> int:
    p = env["payload"]
    if "rows" in p:
        return sum(r["total"] for r in p["rows"])
    return p["counts"]["all_tripods"]


class Speed:
    """How much slower than nominal the machine ran at an operation: the
    mean time of the calibration runs just before and just after it, over
    NOMINAL_CALIBRATION_S."""

    def __init__(self, cal: list[Timed]):
        self.cal = sorted(cal, key=lambda c: c.start)
        self.starts = [c.start for c in self.cal]

    def __call__(self, t: Timed) -> float:
        i = bisect.bisect_left(self.starts, t.start)
        near = [c.wall for c in self.cal[max(0, i - 1):i + 1]]
        return statistics.fmean(near) / NOMINAL_CALIBRATION_S if near else 1.0


def _pooled(rounds: list[Round], kind: str) -> list[Timed]:
    return [t for r in rounds for t in r.walls.get(kind, [])]


def end_to_end(rounds: list[Round], scale: bool = True) -> dict[str, float]:
    """The time of a scaled operation is divided by the machine's slowness
    at it (see Speed and README.md); other times are as measured, and with
    scale=False all are."""
    speed = Speed(_pooled(rounds, "calibration"))

    def wall(t):
        return t.wall / speed(t) if scale and t.op.scaled else t.wall

    def rate(kind, amount):
        rows = _pooled(rounds, kind)
        total = sum(wall(t) for t in rows)
        return sum(amount(t.env) for t in rows) / total if total else 0.0

    inspect = [wall(t) * 1000 for t in _pooled(rounds, "inspect")]
    radii = [r.radius for r in rounds if r.radius is not None]
    return {
        "setup_s": _median([t.env["setup_s"] for t in _pooled(rounds, "setup")]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "census_tripods_per_s": rate("census", _tripods),
        "census_mt_tripods_per_s": rate("census_mt", _tripods),
        "census_max_radius": _median(radii),
        "inspect_ms": _median(inspect),
        "inspect_ms_p99": p99(inspect),
        "random_lattices_per_s": rate("survey", lambda env: 1),
        "mc_samples_per_s": rate("volume", lambda env: env["payload"]["samples"]),
    }


def per_layer(tr: spans.Tracer, inspects: int, imports: list[float],
              overhead_pct: float) -> dict[str, float]:
    exact = [(p, n) for tag, p, n in tr.census_results if tag == "census-exact"]
    flt = [p for tag, p, _n in tr.census_results if tag == "census-float"]
    pairs = sum(p for p, _n in exact)
    tripods = sum(n for _p, n in exact)
    exact_self = tr.layer_self_s("census", "census-exact")
    float_self = tr.layer_self_s("census", "census-float")
    si = tr.durations_ms("topology.self_intersections")
    return {
        "census.pairs_scanned": pairs,
        "census.pairs_per_s": pairs / exact_self if exact_self else 0.0,
        "census.accept_ratio": tripods / pairs if pairs else 0.0,
        "census.self_s": tr.layer_self_s("census"),
        "census.disk_s": tr.total_s("census.lattice_points_in_disk"),
        "census.float_pairs_per_s": sum(flt) / float_self if float_self else 0.0,
        "geometry.from_coords_ms": _median(tr.durations_ms("geometry.Tripod.from_coords")),
        "geometry.classify_ms": _median(tr.durations_ms("geometry.classify")),
        "geometry.classify_calls": tr.calls("geometry.classify", "census-exact"),
        "geometry.classify_heuristic_ms": _median(tr.durations_ms("geometry.classify_heuristic")),
        "geometry.classify_heuristic_calls": tr.calls("geometry.classify_heuristic"),
        "geometry.self_s": tr.layer_self_s("geometry"),
        "lattice.segment_query_ms": _median(tr.durations_ms("lattice.lattice_points_on_open_segment")),
        "lattice.segment_queries": tr.calls("lattice.lattice_points_on_open_segment"),
        "lattice.heuristic_segment_query_ms":
            _median(tr.durations_ms("lattice.heuristic_points_on_open_segment")),
        "lattice.self_s": tr.layer_self_s("lattice"),
        "topology.self_intersections_ms": _median(si),
        "topology.self_intersections_ms_p99": p99(si),
        "topology.self_s": tr.layer_self_s("topology"),
        "quadratic.numbers_per_tripod":
            tr.calls("quadratic.QuadraticNumber.__init__", "inspect") / inspects if inspects else 0.0,
        "quadratic.self_s": tr.layer_self_s("quadratic"),
        "analytics.self_s": tr.layer_self_s("analytics"),
        "cli.import_s": _median(imports),
        "reporting.self_s": tr.layer_self_s("reporting"),
        "trace.overhead_pct": overhead_pct,
    }


def _op_summary(rounds: list[Round]) -> dict:
    out = {}
    for kind in ("census", "census_mt", "inspect", "survey", "volume", "calibration"):
        walls = [t.wall for t in _pooled(rounds, kind)]
        if walls:
            out[kind] = {"ops": len(walls), "wall_s": sum(walls), "min_s": min(walls),
                         "median_s": statistics.median(walls), "max_s": max(walls)}
    out["setup_s"] = [t.env["setup_s"] for t in _pooled(rounds, "setup")]
    out["search_steps"] = [r.search.times if r.search else None for r in rounds]
    return out


def machine_facts() -> dict:
    import numpy
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "cpu": cpu}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the tripods command line")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy sizes, for testing the benchmark")
    args = ap.parse_args(argv)
    try:
        pkg = load_package()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    wl = build_workload(args.workload, args.seed, args.smoke, OUT)
    runner = Runner(pkg)
    warm_round = Round()
    for op in wl.warm:
        runner.run_op(op, warm_round, {})
    rounds: list[Round] = []
    record: dict = {}
    if args.trace:
        # the radius search depends on timing, so it stays out of the traced
        # comparison; its census layer is the same as the other censuses'
        ops = [op for op in wl.ops if op.search is None]
        untraced = runner.run_round(ops, wl.cross)
        tracer = spans.Tracer()
        tracer.install(pkg)
        try:
            traced = Runner(pkg, tracer).run_round(ops, wl.cross)
        finally:
            tracer.uninstall()
        rounds = [untraced, traced]
        overhead = 100.0 * (traced.op_wall / untraced.op_wall - 1) if untraced.op_wall else 0.0
        inspects = len(traced.walls.get("inspect", []))
        imports = [t.env["import_s"] for t in _pooled(rounds, "setup")]
        metrics = per_layer(tracer, inspects, imports, overhead)
        kind = "per_layer"
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(str(trace_path))
        record["trace"] = {
            "file": str(trace_path.relative_to(ROOT)), "stored_spans": len(tracer.spans),
            "dropped_spans": tracer.dropped,
            "untraced": end_to_end([untraced]), "traced": end_to_end([traced])}
    else:
        while True:
            rounds.append(runner.run_round(wl.ops, wl.cross))
            if time.perf_counter() - started >= args.seconds:
                break
        metrics = end_to_end(rounds)
        record["as_measured"] = end_to_end(rounds, scale=False)
        kind = "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    all_rounds = [warm_round] + rounds
    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    failures = [f for r in all_rounds for f in r.failures]
    errors = [e for r in all_rounds for e in r.errors]
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": record.get("trace"), "smoke": args.smoke, "machine": machine_facts(),
        "rounds": len(rounds),
        "attempted": attempted, "failed": failed, "check_failures": failures[:50], "errors": errors[:50],
        "operations": _op_summary(rounds),
        "wall_s": time.perf_counter() - started,
    })
    for msg in failures[:50]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
