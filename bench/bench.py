#!/usr/bin/env python3
"""Benchmark of the dephasim Monte Carlo experiments.

Run from the repository root:

    python3 bench/bench.py --workload memory_sweep --seed 3 --seconds 40 --trace 0

One run drives ``dephasim.cli.main`` from this process, one config at a
time, for ``--seconds`` seconds, and checks every output the CLI writes.
Its last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
layer functions with span recorders on every other config run and reports
the per-layer metrics, derived from the spans kept in memory and written
to ``.bench_out/<workload>-trace1/`` at the end.
``--record-reference`` rewrites ``bench/reference/`` for the default seed.
See ``bench/README.md`` for what each metric means and what should move it.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from array import array
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference"
OUT = ROOT / ".bench_out"

# Every run also repeats the config at this seed and compares the CSVs with
# the ones recorded under bench/reference/.
DEFAULT_SEED = 1
# CSVs carry 12 significant digits; a last-digit change stays well below.
REFERENCE_TOL = 1e-9
# Averages must lie within this many standard errors of their closed forms.
# At 6 SE a correct run fails a single check with probability about 2e-9.
K_SE = 6.0
SETUP_REPEATS = 10
# Timings are reported in seconds on a reference host, on which
# calibration_loop() takes CAL_REF_S; see calibration_loop().
CAL_REF_S = 0.010

J_HZ = 215.5

# Parameter shapes of configs/transmission.json, configs/memory.json and
# configs/memory_pulsed.json, with trial counts sized so that one config run
# takes a quarter to half a second: many runs fit in one benchmark run.
WORKLOADS = {
    "transmission_free": {
        "experiment": "transmission",
        "params": {"j_hz": J_HZ, "total_time": 6e-3, "noise_start": 1e-3, "trials": 5000},
    },
    "memory_sweep": {
        "experiment": "memory",
        "params": {
            "j_hz": J_HZ,
            "mean_interval": 2e-3,
            "interval_spread": [0.1, 0.15, 0.2, 0.25],
            "observation_times": {"max_time": 100e-3},
            "trials": 125,
        },
    },
    "memory_pulsed": {
        "experiment": "memory",
        "params": {
            "j_hz": J_HZ,
            "mean_interval": 2e-3,
            "interval_spread": 0.25,
            "observation_times": {"max_time": 60e-3},
            "trials": 250,
            "bang_bang": True,
            "pulse_spacing": 0.5e-3,
        },
    },
}

SETUP_CHILD = (
    "import sys, time\n"
    "import dephasim.cli as cli\n"
    "cli.load_config(sys.argv[1])\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC), cli.__file__)\n"
)


class CheckFailed(Exception):
    """An output of the CLI is missing, malformed or wrong."""


def calibration_loop() -> float:
    """Seconds taken by a fixed loop of 4-element numpy operations.

    This is the kind of work the experiments do per trial.  On a shared
    host the CPU speed changes with the other tenants' load, by up to 1.8x
    for minutes at a time, and this loop slows down with it.  Every timing
    is divided by this loop's time, measured right before and after it, and
    multiplied by CAL_REF_S.  Over 40 s windows that kept the median of a
    memory_pulsed config run within 1.1% (quartile spread over median),
    where the raw median moved by 8.5% and the raw best by 4.3%.
    """
    import numpy as np

    signs = np.array([1.0, -1.0, -1.0, 1.0])
    swap = np.eye(4, dtype=complex)[[1, 0, 3, 2]]
    psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    start = time.perf_counter()
    for i in range(2000):
        psi = swap @ (psi * np.exp(-0.25j * 1e-3 * i * signs))
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Spans and work counts recorded around calls into the layers.

    Span ``i`` has a name, start, end, parent span (-1 at the top) and the
    config run it belongs to.  It also keeps the wrapper's own entry and exit
    times, which enclose the tracer's bookkeeping for the span: a parent's
    self time subtracts its children's wrapper times, so the bookkeeping is
    charged to neither.  Spans are kept in flat arrays, because a traced run
    records hundreds of thousands of them.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("H")
        self.runs = array("q")
        self.parents = array("q")
        self.entries = array("d")
        self.starts = array("d")
        self.ends = array("d")
        self.exits = array("d")
        self.counts: dict = defaultdict(int)   # work counts of the current config run
        self.run = 0
        self._stack: list[int] = []

    def start_run(self) -> None:
        self.run += 1
        self.counts.clear()

    def __len__(self) -> int:
        return len(self.ends)

    def wrap(self, name, fn, count=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        def traced(*args, **kwargs):
            entry = time.perf_counter()
            if count is not None:
                for key, n in count(*args, **kwargs).items():
                    self.counts[key] += n
            sid = len(self.ends)
            self.name_ids.append(name_id)
            self.runs.append(self.run)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.entries.append(entry)
            self.ends.append(0.0)
            self.exits.append(0.0)
            self._stack.append(sid)
            self.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[sid] = time.perf_counter()
                self._stack.pop()
                self.exits[sid] = time.perf_counter()
        return traced

    def profile(self, first_span: int) -> dict:
        """Per-name totals, self times and calls of the spans from ``first_span`` on."""
        spans = range(first_span, len(self))
        children = defaultdict(float)
        for i in spans:
            children[self.parents[i]] += self.exits[i] - self.entries[i]
        prof = defaultdict(float)
        for i in spans:
            name = self.names[self.name_ids[i]]
            took = self.ends[i] - self.starts[i]
            prof[name + ".total"] += took
            prof[name + ".self"] += took - children[i]
            prof[name + ".calls"] += 1
        prof.update(self.counts)
        return prof

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            f.write("run,span,parent,name,start,end,wrapper_entry,wrapper_exit\n")
            f.writelines(
                f"{self.runs[i]},{i},{self.parents[i]},{self.names[self.name_ids[i]]},"
                f"{self.starts[i]!r},{self.ends[i]!r},{self.entries[i]!r},{self.exits[i]!r}\n"
                for i in range(len(self)))


def _trials(config, *args, **kwargs):
    return {"experiments.trials": config.trials}


def _intervals(config, intervals, *args, **kwargs):
    return {"experiments.intervals_drawn": len(intervals)}


def _kernel_work(schedule, times, *args, **kwargs):
    return {"pulse.events": len(schedule.events), "pulse.snapshots": len(times)}


def layer_patches(traced: bool):
    """(owner, attribute, span name, counter) for every wrapped layer call.

    The ``run_*`` calls are always wrapped: their one timer per call gives
    trials_per_s.  The rest only in traced config runs.
    """
    import numpy as np
    from dephasim import experiments

    patches = [
        (experiments, "run_transmission", "experiments.run", _trials),
        (experiments, "run_memory", "experiments.run", _trials),
    ]
    if traced:
        patches += [
            # experiments is the only caller of default_rng during a run
            (np.random, "default_rng", "experiments.rng_init", None),
            (experiments, "transmission_schedule", "experiments.schedule", None),
            (experiments, "memory_trial_schedule", "experiments.schedule", _intervals),
            (experiments, "simulate_amplitudes", "pulse.kernel", _kernel_work),
            (experiments, "_group_averages", "experiments.reduce", None),
            (experiments, "fit_exponential", "experiments.reduce", None),
        ]
    return patches


@contextlib.contextmanager
def patched(tracer: Tracer, patches):
    saved = []
    try:
        for owner, attr, name, count in patches:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, count))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> tuple[str, list[list[float]]]:
    if not path.is_file():
        raise CheckFailed(f"missing output {path.name}")
    lines = path.read_text().splitlines()
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: {exc}")
    if any(not math.isfinite(v) for row in rows for v in row):
        raise CheckFailed(f"{path.name}: non-finite value")
    return (lines[0] if lines else ""), rows


def check_transmission(out: Path, params: dict) -> None:
    """Per-trial amplitudes on the unit circle, consistent group averages,
    and a grand average within K_SE standard errors of zero."""
    n = params["trials"]
    header, rows = read_csv(out / "amplitudes.csv")
    if header != "trial,amplitude_re,amplitude_im" or len(rows) != n:
        raise CheckFailed(f"amplitudes.csv: header {header!r}, {len(rows)} rows for {n} trials")
    amps = [complex(re, im) for _, re, im in rows]
    if any(row[0] != k for k, row in enumerate(rows)):
        raise CheckFailed("amplitudes.csv: trial column out of order")
    worst = max(abs(abs(a) - 1.0) for a in amps)
    if worst > REFERENCE_TOL:
        raise CheckFailed(f"amplitudes.csv: |amplitude| off the unit circle by {worst:.3g}")
    # every trial has |a| = 1 and the exact mean is 0, so one trial has variance 1
    grand = abs(sum(amps) / n)
    if grand > K_SE / math.sqrt(n):
        raise CheckFailed(f"|grand average| = {grand:.4g} exceeds {K_SE} SE = {K_SE / math.sqrt(n):.4g}")
    header, groups = read_csv(out / "group_averages.csv")
    size = 16   # the CLI's default group_size
    if header != "group,amplitude_re,amplitude_im,magnitude" or len(groups) != -(-n // size):
        raise CheckFailed(f"group_averages.csv: header {header!r}, {len(groups)} rows")
    for g, re, im, mag in groups:
        block = amps[int(g) * size:(int(g) + 1) * size]
        mean = sum(block) / len(block)
        if abs(mean - complex(re, im)) > REFERENCE_TOL or abs(abs(mean) - mag) > REFERENCE_TOL:
            raise CheckFailed(f"group_averages.csv: group {int(g)} does not match its trials")


def _retention(params: dict, spread: float) -> float:
    j = 2.0 * math.pi * params["j_hz"]
    if params.get("bang_bang"):
        x = j * params["pulse_spacing"] / 2.0
        return (math.sin(x) / x) ** 2
    return math.exp(-((j * params["mean_interval"] * spread) ** 2) / 4.0)


def check_memory(out: Path, params: dict) -> None:
    """Each decay point within K_SE standard errors of retention^n, and the
    fit column equal to a least-squares fit of the points above the floor."""
    n_trials = params["trials"]
    cycle = 2.0 * params["mean_interval"]
    n_points = int(params["observation_times"]["max_time"] / cycle + 1e-9)
    raw = params["interval_spread"]
    for spread in raw if isinstance(raw, list) else [raw]:
        name = f"decay_a{round(spread * 100):03d}.csv"
        header, rows = read_csv(out / name)
        if header != "time_s,magnitude,fit_magnitude" or len(rows) != n_points:
            raise CheckFailed(f"{name}: header {header!r}, {len(rows)} rows for {n_points} times")
        retention = _retention(params, spread)
        for k, (t, mag, _) in enumerate(rows, start=1):
            if abs(t - k * cycle) > 1e-12:
                raise CheckFailed(f"{name}: time {t} is not {k} toggle cycles")
            expected = retention**k
            # each trial has |a| = 1, so one trial has variance 1 - expected^2
            se = math.sqrt(max(1.0 - expected**2, 0.0) / n_trials)
            if abs(mag - expected) > K_SE * se + REFERENCE_TOL:
                raise CheckFailed(
                    f"{name}: magnitude {mag:.6g} at t = {t:.6g} s is "
                    f"{abs(mag - expected) / se:.1f} SE from retention^{k} = {expected:.6g}")
        kept = [(t, math.log(m), f) for t, m, f in rows if m > 0.02]
        tm = sum(t for t, _, _ in kept) / len(kept)
        ym = sum(y for _, y, _ in kept) / len(kept)
        slope = (sum((t - tm) * (y - ym) for t, y, _ in kept)
                 / sum((t - tm) ** 2 for t, _, _ in kept))
        for t, _, f in rows:
            fit = math.exp(ym + slope * (t - tm))
            if abs(fit - f) > 1e-7 * max(fit, 1.0):
                raise CheckFailed(f"{name}: fit_magnitude {f:.6g} at t = {t:.6g} s, expected {fit:.6g}")
    if not (out / "summary.txt").is_file():
        raise CheckFailed("missing output summary.txt")


def compare_reference(out: Path, ref: Path) -> tuple[float, int]:
    """Largest absolute difference between the CSVs and their references."""
    if not ref.is_dir():
        raise CheckFailed(f"no reference outputs at {ref}")
    worst, count = 0.0, 0
    for ref_file in sorted(ref.glob("*.csv")):
        ref_header, ref_rows = read_csv(ref_file)
        header, rows = read_csv(out / ref_file.name)
        if header != ref_header or [len(r) for r in rows] != [len(r) for r in ref_rows]:
            raise CheckFailed(f"{ref_file.name}: shape differs from the reference")
        for row, ref_row in zip(rows, ref_rows):
            for v, r in zip(row, ref_row):
                worst = max(worst, abs(v - r))
                count += 1
    return worst, count


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def import_cli():
    """Import dephasim.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "dephasim" / "cli.py").is_file():
        raise SystemExit(f"bench: no dephasim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dephasim.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "dephasim").resolve():
        raise SystemExit(f"bench: imported {cli.__file__}, not the checkout's sources")
    return cli


def write_config(workload: str, seed: int, path: Path) -> dict:
    spec = WORKLOADS[workload]
    params = dict(spec["params"])
    path.write_text(json.dumps({"experiment": spec["experiment"], "seed": seed, "params": params}))
    return params


def measure_setup(config: Path) -> float:
    """Seconds from spawning a fresh interpreter to dephasim.cli imported and
    the config loaded, read from the child's monotonic clock and scaled to
    the reference host."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cal = calibration_loop()
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(config)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    loaded, where = proc.stdout.split()
    if Path(where).resolve().parent != (SRC / "dephasim").resolve():
        raise SystemExit(f"bench: set-up imported {where}, not the checkout's sources")
    took = float(loaded) - start
    return took * 2.0 * CAL_REF_S / (cal + calibration_loop())


class Runner:
    """Config runs of one workload through dephasim.cli.main, each checked."""

    def __init__(self, cli, workload: str, work: Path):
        self.cli = cli
        self.workload = workload
        self.work = work
        self.out = work / "cli"
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, seed: int, traced: bool, reference: Path | None = None) -> dict | None:
        """Run one config; return its profile, or None if it failed.

        Span times in the profile are raw seconds; ``host.cal_s`` is the
        calibration loop's time around the config run.  While tracemalloc is
        on, ``alloc.peak_bytes`` is the peak of what ``cli.main`` allocated
        above what was allocated when it started.
        """
        self.attempted += 1
        self.tracer.start_run()
        config = self.work / "config.json"
        params = write_config(self.workload, seed, config)
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()   # start every config run with the same heap
        first_span = len(self.tracer)
        main = self.tracer.wrap("cli.main", self.cli.main)
        track_alloc = tracemalloc.is_tracing()
        peak = None
        try:
            cal = calibration_loop()
            with patched(self.tracer, layer_patches(traced)), \
                    contextlib.redirect_stdout(io.StringIO()):
                if track_alloc:
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                code = main([str(config), "--out", str(self.out)])
                if track_alloc:
                    peak = tracemalloc.get_traced_memory()[1] - base
            cal += calibration_loop()
            if code != 0:
                raise CheckFailed(f"dephasim exited with code {code}")
            if WORKLOADS[self.workload]["experiment"] == "transmission":
                check_transmission(self.out, params)
            else:
                check_memory(self.out, params)
            prof = self.tracer.profile(first_span)
            prof["host.cal_s"] = cal / 2.0
            prof["cli.bytes_written"] = sum(f.stat().st_size for f in self.out.iterdir())
            if peak is not None:
                prof["alloc.peak_bytes"] = peak
            if reference is not None:
                diff, count = compare_reference(self.out, reference)
                print(f"reference: max |diff| = {diff:.3e} over {count} values "
                      f"(tolerance {REFERENCE_TOL:g}), seed {seed}")
                if diff > REFERENCE_TOL:
                    raise CheckFailed(f"outputs differ from the reference by {diff:.3e}")
            return prof
        except CheckFailed as exc:
            problem = str(exc)
        except Exception:
            # the CLI must never raise; a crash is a failed config run
            problem = traceback.format_exc()
        self.failed += 1
        self.problems.append(f"seed {seed}: {problem}")
        print(f"check failed, seed {seed}: {problem}", file=sys.stderr)
        return None

    def reference_run(self, traced: bool) -> dict | None:
        return self.run(DEFAULT_SEED, traced, REFERENCE / self.workload)


def scaled(prof: dict, key: str) -> float:
    """A span time of one config run, in seconds on the reference host."""
    return prof.get(key, 0.0) * CAL_REF_S / prof["host.cal_s"]


def summarise(values: list[float], better: str = "lower") -> tuple[float, str]:
    """The median, which is what a run reports, and a line that adds the
    highest percentile with at least ten samples beyond it."""
    ordered = sorted(values, reverse=(better == "higher"))
    n = len(ordered)
    median = statistics.median(ordered)
    text = f"median {median:.6g}"
    if n >= 11:
        text += f", p{100 * (n - 10) // n} {ordered[n - 11]:.6g}"
    return median, text + f" (n={n})"


def run_record(workload: str, seed: int) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "trials": {w: spec["params"]["trials"] for w, spec in WORKLOADS.items()},
    }


def end_to_end(runner: Runner, seed: int, seconds: float, config: Path) -> tuple[dict, dict]:
    # The untimed reference run also measures memory: tracemalloc slows
    # Python down, and numpy reports its array buffers to it.
    tracemalloc.start()
    try:
        ref = runner.reference_run(traced=False)
    finally:
        tracemalloc.stop()
    setups, profs = [], []
    start = time.perf_counter()
    i = 0
    while True:
        # set-ups are spread over the run, like the config runs
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(measure_setup(config))
        prof = runner.run(seed * 100_000 + i, traced=False)
        i += 1
        if prof is not None:
            profs.append(prof)
        if time.perf_counter() - start >= seconds:
            break
    if ref is None or not profs:
        return {}, {}
    walls = [scaled(p, "cli.main.total") for p in profs]
    rates = [p["experiments.trials"] / scaled(p, "experiments.run.total") for p in profs]
    metrics, detail = {}, {}
    for name, values, unit, better in (("setup_s", setups, "s", "lower"),
                                       ("wall_s", walls, "s", "lower"),
                                       ("trials_per_s", rates, "1/s", "higher")):
        value, detail[name] = summarise(values, better)
        metrics[name] = (value, unit)
    metrics["peak_alloc_mb"] = (ref["alloc.peak_bytes"] / 1e6, "MB")
    _, detail["wall_s unscaled"] = summarise([p["cli.main.total"] for p in profs])
    _, detail["calibration_s"] = summarise([p["host.cal_s"] for p in profs])
    return metrics, detail


COUNTS = [
    # (metric, profile key, unit)
    ("experiments.rng_init_calls", "experiments.rng_init.calls", "count"),
    ("experiments.schedule_calls", "experiments.schedule.calls", "count"),
    ("experiments.reduce_calls", "experiments.reduce.calls", "count"),
    ("experiments.trials", "experiments.trials", "count"),
    ("experiments.intervals_drawn", "experiments.intervals_drawn", "count"),
    ("pulse.kernel_calls", "pulse.kernel.calls", "count"),
    ("pulse.events", "pulse.events", "count"),
    ("pulse.snapshots", "pulse.snapshots", "count"),
    ("cli.bytes_written", "cli.bytes_written", "B"),
]
TIMES = [
    ("experiments.rng_init_s", "experiments.rng_init.self"),
    ("experiments.schedule_s", "experiments.schedule.self"),
    ("experiments.self_s", "experiments.run.self"),
    ("experiments.reduce_s", "experiments.reduce.self"),
    ("pulse.kernel_s", "pulse.kernel.self"),
    ("cli.self_s", "cli.main.self"),
]


def per_layer(runner: Runner, seed: int, seconds: float) -> tuple[dict, dict]:
    # Counts come from the traced default-seed run, so they repeat exactly
    # from run to run; times are medians over the traced runs of this seed.
    ref = runner.reference_run(traced=True)
    traced, plain = [], []
    start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - start < seconds:
        prof = runner.run(seed * 100_000 + i, traced=(i % 2 == 1))
        if prof is not None:
            (traced if i % 2 == 1 else plain).append(prof)
        i += 1
    if ref is None or not traced or not plain:
        return {}, {}
    metrics = {name: (int(ref.get(key, 0)), unit) for name, key, unit in COUNTS}
    detail = {}
    for name, key in TIMES:
        value, detail[name] = summarise([scaled(p, key) for p in traced])
        metrics[name] = (value, "s")
    # a kernel that the experiments no longer call has no rate
    value, detail["pulse.events_per_s"] = summarise(
        [p.get("pulse.events", 0) / (scaled(p, "pulse.kernel.self") or math.inf) for p in traced],
        "higher")
    metrics["pulse.events_per_s"] = (value, "1/s")
    traced_wall, detail["wall_s traced"] = summarise([scaled(p, "cli.main.total") for p in traced])
    plain_wall, detail["wall_s untraced"] = summarise([scaled(p, "cli.main.total") for p in plain])
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return metrics, detail


def record_reference(cli) -> None:
    for workload in WORKLOADS:
        work = OUT / f"reference-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runner = Runner(cli, workload, work)
        if runner.run(DEFAULT_SEED, traced=False) is None:
            raise SystemExit(f"bench: {workload} failed its checks: {runner.problems}")
        target = REFERENCE / workload
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for csv in sorted(runner.out.glob("*.csv")):
            shutil.copy(csv, target / csv.name)
        print(f"recorded {workload}: {sorted(p.name for p in target.iterdir())}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite bench/reference/ from the default seed and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    cli = import_cli()
    if args.record_reference:
        record_reference(cli)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    work = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = run_record(args.workload, args.seed)
    print("record: " + json.dumps(record))
    runner = Runner(cli, args.workload, work)
    if args.trace:
        metrics, detail = per_layer(runner, args.seed, args.seconds)
        runner.tracer.write(work / "spans.csv")
    else:
        setup_config = work / "setup_config.json"
        write_config(args.workload, args.seed, setup_config)
        metrics, detail = end_to_end(runner, args.seed, args.seconds, setup_config)
    for name, text in detail.items():
        print(f"{name}: {text}")
    print(f"failed_frac: {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} config runs)")
    correct = runner.failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(
        {"record": record, "detail": detail, "problems": runner.problems, **result}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
