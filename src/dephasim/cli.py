"""Command-line front end: config-driven runs with CSV outputs.

Usage::

    dephasim CONFIG.json [--seed N] [--out DIR]

The config is a single JSON document::

    {
      "experiment": "transmission" | "memory" | "channel-demo" | "verify",
      "seed": 12345,            // required for the Monte Carlo experiments
      "out_dir": "results",     // optional, default "."
      "params": { ... }         // experiment-specific, see below
    }

Any other top-level key, or an out_dir that is not a string, is a config
error.

transmission params: j_hz, total_time, noise_start, trials, and optionally
bang_bang, pulse_spacing, pulses_per_trial, random_train_phase, group_size,
remove_trivial_phase.  memory params: j_hz, mean_interval, interval_spread
(number or list; one run and one CSV per value), observation_times (three or
more: a list of seconds, or {"max_time": t} for the grid of toggle cycles),
trials, and optionally bang_bang with pulse_spacing.  Frequencies enter as cyclic
j_hz and are converted to rad/s internally.  Times are seconds.  Any other
params key, or a key of the grid object other than max_time, is a config
error; an option that is missing or null keeps the library default.

Exit codes: 0 success, 1 config error, 2 runtime error (such as an unwritable
output directory) or a failed verify check.
Identical config and seed produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import channels, experiments, pulse

TWO_PI = 2.0 * math.pi


class ConfigError(Exception):
    """Invalid configuration document; carries the offending location."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{message} (at {location})" if location else message)


# a number as 12 significant digits; the same bytes as f"{float(x):.12g}",
# which `_csv_block` writes itself but for the cells it passes to this
_fmt = "%.12g".__mod__


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", str(path))
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object", str(path))
    return doc


def _require(params, key, kind, location: str):
    """``params[key]`` checked to be of type ``kind``; floats must be finite.

    ``params`` is a JSON object with string keys, or a list with indices.
    """
    if isinstance(params, dict) and key not in params:
        raise ConfigError(f"missing required key '{key}'", location)
    value = params[key]
    where = f"{location}[{key}]" if isinstance(key, int) else f"{location}.{key}"
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"'{key}' must be a finite number", where)
        return number
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is bool and isinstance(value, bool):
        return value
    raise ConfigError(f"'{key}' must be of type {kind.__name__}", where)


def _options(params: dict, kinds: dict, location: str) -> dict:
    """The optional ``params`` that are set (present and not null), checked
    against their ``kinds``; unset ones keep the config's defaults."""
    return {key: _require(params, key, kind, location)
            for key, kind in kinds.items() if params.get(key) is not None}


def _refuse_unknown(mapping: dict, known, location: str) -> None:
    """Refuse a key of ``mapping`` not in ``known``; ``location`` is where
    ``mapping`` sits, empty for the document itself."""
    for key in mapping:
        if key not in known:
            raise ConfigError(f"unknown key '{key}'", f"{location}.{key}" if location else key)


def _positive(value: float, key: str, location: str) -> float:
    if value <= 0:
        raise ConfigError(f"{key} must be positive", f"{location}.{key}")
    return value


_TRANSMISSION_OPTIONS = {"bang_bang": bool, "pulse_spacing": float, "pulses_per_trial": int,
                         "random_train_phase": bool, "group_size": int, "remove_trivial_phase": bool}
_MEMORY_OPTIONS = {"bang_bang": bool, "pulse_spacing": float}
_VERIFY_OPTIONS = {"omega_2_hz": float, "j_hz": float, "t": float}
# largest omega_2 or j, rad/s, of the verify check: its residual matrix's
# entries stay under about 1.2 times the larger, and four of their squares
# must sum below the largest float
_MAX_FRAME_RATE = math.sqrt(sys.float_info.max) / 16
# the frame's residual per rad/s of omega_2 at the third step, the smallest a shrink ratio
# reads: sqrt(2 sum (a - sin(a dt) / dt)^2) over R(t)'s rates a = (5/8, 3/8) omega_2, to
# leading order, at the angle omega_2 dt that the scaled steps fix; about 3.63e-8
_FRAME_RESIDUAL = ((TWO_PI * 500.0 * pulse.FRAME_CHECK_STEPS[2]) ** 2 / 6
                   * math.sqrt(2 * ((5 / 8) ** 6 + (3 / 8) ** 6)))

# the keys of the config document and those each experiment reads from
# params; any other key is refused
_TOP_KEYS = {"experiment", "seed", "out_dir", "params"}
_PARAM_KEYS = {
    "transmission": {"j_hz", "total_time", "noise_start", "trials", *_TRANSMISSION_OPTIONS},
    "memory": {"j_hz", "mean_interval", "interval_spread", "observation_times", "trials",
               *_MEMORY_OPTIONS},
    "channel-demo": {"flip_probabilities"},
    "verify": set(_VERIFY_OPTIONS),
}


# where a config field sits in the document, where it is not params.<field>
_FIELD_LOCATIONS = {"j": "params.j_hz", "seed": "seed"}


def _location(field: str, locations: dict) -> str:
    """Where ``field`` sits: from ``locations``, then ``_FIELD_LOCATIONS``."""
    return locations.get(field) or _FIELD_LOCATIONS.get(field, f"params.{field}")


def _build(cls, locations: dict, **fields):
    """``cls(**fields)``; a refusal is a config error at its field's `_location`."""
    try:
        return cls(**fields)
    except experiments.FieldError as exc:
        raise ConfigError(str(exc), _location(exc.field, locations)) from None


def _build_transmission(params: dict, seed: int) -> experiments.TransmissionConfig:
    loc = "params"
    return _build(
        experiments.TransmissionConfig, {},
        j=TWO_PI * _require(params, "j_hz", float, loc),
        total_time=_require(params, "total_time", float, loc),
        noise_start=_require(params, "noise_start", float, loc),
        trials=_require(params, "trials", int, loc),
        seed=seed,
        **_options(params, _TRANSMISSION_OPTIONS, loc),
    )


def _floats(raw: list, location: str) -> list[float]:
    return [_require(raw, i, float, location) for i in range(len(raw))]


def _spreads(params: dict, location: str) -> list[tuple[float, str]]:
    """Each interval spread with its location; two spreads may not share a CSV."""
    raw = params.get("interval_spread")
    where = f"{location}.interval_spread"
    if not isinstance(raw, list):
        return [(_require(params, "interval_spread", float, location), where)]
    if not raw:
        raise ConfigError("interval_spread list is empty", where)
    spreads = _floats(raw, where)
    first = {}   # each CSV suffix and the index of the first spread that writes it
    for i, spread in enumerate(spreads):
        if not math.isfinite(100 * spread):
            continue   # too large to name; out of MemoryConfig's range, which refuses it
        suffix = _spread_suffix(spread)
        if first.setdefault(suffix, i) != i:
            raise ConfigError(f"interval_spread {_fmt(spread)} writes decay_{suffix}.csv, "
                              f"as interval_spread[{first[suffix]}] does", f"{where}[{i}]")
    return [(spread, f"{where}[{i}]") for i, spread in enumerate(spreads)]


def _observation_times(params: dict, mean_interval: float, location: str) -> tuple[tuple[float, ...], str]:
    """The observation times and their location."""
    raw = params.get("observation_times")
    if raw is None:
        raise ConfigError("missing required key 'observation_times'", location)
    where = f"{location}.observation_times"
    if isinstance(raw, dict):
        _refuse_unknown(raw, {"max_time"}, where)
        cycle = 2.0 * _positive(mean_interval, "mean_interval", location)
        cycles = _require(raw, "max_time", float, where) / cycle + 1e-9
        where += ".max_time"
        # one time per toggle cycle: bound the grid before building it
        if cycles > experiments.MAX_TRIAL_EVENTS:
            raise ConfigError(
                f"max_time spans more than {experiments.MAX_TRIAL_EVENTS} toggle cycles", where)
        return tuple(cycle * k for k in range(1, int(cycles) + 1)), where
    if isinstance(raw, list):
        return tuple(_floats(raw, where)), where
    raise ConfigError("observation_times must be a list or {'max_time': t}", where)


def _build_memory(params: dict, seed: int) -> list[experiments.MemoryConfig]:
    """One config per interval spread."""
    loc = "params"
    mean_interval = _require(params, "mean_interval", float, loc)
    times, times_at = _observation_times(params, mean_interval, loc)
    fields = dict(
        j=TWO_PI * _require(params, "j_hz", float, loc),
        mean_interval=mean_interval,
        observation_times=times,
        trials=_require(params, "trials", int, loc),
        seed=seed,
        **_options(params, _MEMORY_OPTIONS, loc),
    )
    return [_build(experiments.MemoryConfig, {"observation_times": times_at, "interval_spread": at},
                   interval_spread=spread, **fields)
            for spread, at in _spreads(params, loc)]


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

# rows formatted at a time, so the writer's memory does not grow with the row count
_CSV_ROWS = 512
# a block of fewer cells is formatted one `_fmt` call a cell: below this the
# fixed cost of `_csv_block`, about 80 us a block, outweighs what it saves
_VECTOR_CELLS = 240


def _kernel_tables():
    """`_csv_block`'s tables, built with array ops to keep the import cheap:
    powers of ten, 4-digit groups, their trailing zeros and the cell templates."""
    powers = np.array([float(10**k) for k in range(17)])   # exact doubles up to 10**22
    groups = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)   # "d.d.d.d." for "0000".."9999"
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    groups[..., 0], groups[..., 2] = digit[:, None, None, None], digit[:, None, None]
    groups[..., 4], groups[..., 6] = digit[:, None], digit
    trailing = np.zeros((10, 10, 10, 10), np.intp)   # trailing zeros of "0000".."9999"
    trailing[..., 0] = 1
    trailing[..., 0, 0] = 2
    trailing[..., 0, 0, 0] = 3
    trailing[0, 0, 0, 0] = 4
    # a cell is 32 bytes: "\0\0-0.000", then digit j at byte 8 + 2j with a "."
    # after it.  Its template by (e, trailing zeros, sign) keeps the prefix
    # bytes it prints, and 0xff over the digits and the point it prints.
    keep = np.zeros((16, 12, 2, 32), bool)
    e = np.arange(-4, 12)[:, None, None, None]
    last = 11 - np.arange(12)[:, None, None]   # the last significant digit
    j = np.arange(12)
    keep[:, :, 1, 2] = True                        # "-"
    keep[..., 3:5] = e < 0                         # "0."
    keep[..., 5:8] = np.arange(3) < -1 - e         # the zeros after it
    keep[..., 8::2] = j <= np.maximum(last, e)     # digit j
    keep[..., 9::2] = (j == e) & (last > e)        # the point after digit e
    template = np.frombuffer(b"\0\0-0.000" + b"\xff" * 24, np.uint8)
    return (powers, groups.view(np.uint64).ravel(), trailing.ravel(),
            (keep * template).view(np.uint64).reshape(-1, 4))


_POW10, _GROUPS, _TRAILING, _CELLS = _kernel_tables()


def _csv_block(cells: np.ndarray) -> bytes:
    """The CSV text of a (rows, columns) block of numbers: each cell the bytes
    of ``"%.12g" % v``, with "," between cells and a newline after each row.

    Each cell is rounded to 12 digits ``n`` and an exponent ``e`` and laid out
    in fixed columns, whose dropped bytes are zeroed and deleted at the end.
    A cell whose bytes this cannot prove goes through `_fmt`: zero, inf and
    NaN, exponent form (``e < -4`` or ``e >= 12``) and near-ties.
    """
    v = cells.ravel()
    with np.errstate(all="ignore"):
        # log10 only guesses e, one off at worst: the scaled value shows which
        # way.  Zero, inf and NaN get no meaningful e and fail the checks below,
        # as does an e off the power table, which `take` clips.
        a = np.abs(v)
        e = np.floor(np.log10(a)).astype(np.intp)
        scaled = a * _POW10.take(11 - e, mode="clip")
        e += scaled >= 1e12
        e -= scaled < 1e11
        # one rounding of a product with an exact power of ten, so within 2**-14
        # of a * 10**(11 - e): its nearest integer is exact unless near a tie
        scaled = a * _POW10.take(11 - e, mode="clip")
        n = np.rint(scaled)
        exact = np.abs(n - scaled) < 0.499
        carry = n == 1e12
        e += carry
        n[carry] = 1e11
        row = e + 4
        # n has 12 digits and -4 <= e < 12, or the cell goes through _fmt
        slow = ~(exact & (np.abs(n - 5.5e11) <= 4.5e11) & (row.view(np.uintp) < 16))
    n[slow] = 1e11   # any valid table index; these cells are overwritten
    row[slow] = 0
    high, rest = np.divmod(n.astype(np.int64), 10**8)
    middle, low = np.divmod(rest, 10**4)
    zeros = np.where(low, _TRAILING[low], np.where(middle, 4 + _TRAILING[middle], 8 + _TRAILING[high]))
    words = _CELLS.take((row * 12 + zeros) * 2 + (v < 0), axis=0)
    words[:, 1] &= _GROUPS[high]
    words[:, 2] &= _GROUPS[middle]
    words[:, 3] &= _GROUPS[low]
    slow = np.flatnonzero(slow)
    if slow.size:
        text = [_fmt(x) for x in v[slow].tolist()]
        words[slow] = np.array(text, "S32").view(np.uint64).reshape(-1, 4)
    ends = words.view(np.uint8).reshape(*cells.shape, 32)[..., 31]   # never kept
    ends[:, :-1] = ord(",")
    ends[:, -1] = ord("\n")
    return words.tobytes().translate(None, b"\0")


def _write_csv(path: Path, header: str, index: range | None, *values: np.ndarray) -> None:
    """Write ``header`` and a row per entry of ``values``: the row number, if
    ``index`` (``range(len(values[0]))``) is given, then each value as `_fmt`
    writes it.  Rows are written a block of `_CSV_ROWS` at a time, and a block
    of `_VECTOR_CELLS` or more cells goes through `_csv_block`."""
    columns = ([] if index is None else [index]) + list(values)
    row = ",".join(["%s"] * len(columns)) + "\n"
    with path.open("wb") as f:
        f.write(header.encode() + b"\n")
        for start in range(0, len(values[0]), _CSV_ROWS):
            block = slice(start, start + _CSV_ROWS)
            rows = len(values[0][block])
            if rows * len(columns) >= _VECTOR_CELLS:
                # an integer below 10**12 prints the same under %.12g as under %d
                f.write(_csv_block(np.stack([np.arange(start, start + rows) if column is index
                                             else column[block] for column in columns], axis=1)))
                continue
            cells = [column[block] if column is index else map(_fmt, column[block].tolist())
                     for column in columns]
            f.write((row * rows % tuple(chain.from_iterable(zip(*cells)))).encode())


def _report(path: Path, lines: list[str]) -> None:
    """Write ``lines`` to ``path`` and print them."""
    text = "\n".join(lines)
    path.write_text(text + "\n", newline="\n")
    print(text)


def _spread_suffix(spread: float) -> str:
    return f"a{round(spread * 100):03d}"


def _pct(simulated: float, predicted: float) -> str:
    if predicted == 0.0:
        return "n/a"
    return f"{100.0 * (simulated - predicted) / predicted:+.2f}%"


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _run_transmission(config: experiments.TransmissionConfig, out: Path) -> None:
    result = experiments.run_transmission(config)
    amps, groups = result.amplitudes, result.group_averages
    magnitudes = np.abs(groups)
    _write_csv(out / "amplitudes.csv", "trial,amplitude_re,amplitude_im",
               range(len(amps)), amps.real, amps.imag)
    _write_csv(out / "group_averages.csv", "group,amplitude_re,amplitude_im,magnitude",
               range(len(groups)), groups.real, groups.imag, magnitudes)

    magnitude = abs(result.grand_average)
    label, predicted, _ = experiments.prediction(config)

    lines = [
        "transmission experiment",
        f"  j_hz = {_fmt(config.j / TWO_PI)}, trials = {config.trials}, seed = {config.seed}",
        f"  noise_start = {_fmt(config.noise_start)} s, total_time = {_fmt(config.total_time)} s",
        f"  bang_bang = {config.bang_bang}"
        + (f", pulse_spacing = {_fmt(config.pulse_spacing)} s, pulses = {config.pulse_count()}"
           if config.bang_bang else ""),
        "",
        f"  |grand average| = {_fmt(magnitude)}",
        f"  prediction ({label}) = {_fmt(predicted)}",
        f"  deviation = {_fmt(magnitude - predicted)} ({_pct(magnitude, predicted)})",
        f"  group magnitudes: min {_fmt(magnitudes.min())}, max {_fmt(magnitudes.max())}",
    ]
    _report(out / "summary.txt", lines)


def _run_memory(configs: list[experiments.MemoryConfig], out: Path) -> None:
    rows = []
    for config in configs:
        spread = config.interval_spread
        curve = experiments.run_memory(config)
        path = out / f"decay_{_spread_suffix(spread)}.csv"
        if curve.fit is None:
            _write_csv(path, "time_s,magnitude", None, curve.times, curve.magnitudes)
        else:
            _write_csv(path, "time_s,magnitude,fit_magnitude",
                       None, curve.times, curve.magnitudes, curve.fit.magnitude(curve.times))
        _, final_pred, t2_pred = experiments.prediction(config)
        contrast = (   # rounded first, so a negative contrast that rounds to zero prints 0.000, not -0.000
            f"{round(experiments.decay_contrast(float(curve.magnitudes[-1]), 1.0, spread), 3) + 0.0:9.3f}"
            if spread > 0 else "      n/a"
        )
        if curve.fit is None:
            t2_sim, t2_dev, note = "n/a", "n/a", (f"  t2 not resolved: fewer than 3 magnitudes "
                                                  f"above {_fmt(experiments.FIT_FLOOR)}")
        else:
            t2 = curve.fit.t2
            t2_sim, note = f"{t2:.6g}", ""
            t2_dev = _pct(t2, t2_pred) if math.isfinite(t2_pred) and math.isfinite(t2) else "n/a"
        rows.append(
            f"  {spread:6.3f}   {t2_sim:<12}  {t2_pred:<12.6g}  {t2_dev:>7}  "
            f"{float(curve.magnitudes[-1]):10.6f}  {final_pred:10.6f}  {contrast}{note}"
        )
    # the header reads only settings that every spread shares
    header = [
        "memory experiment",
        f"  j_hz = {_fmt(config.j / TWO_PI)}, mean_interval = {_fmt(config.mean_interval)} s, "
        f"trials = {config.trials}, seed = {config.seed}",
        f"  bang_bang = {config.bang_bang}"
        + (f", pulse_spacing = {_fmt(config.pulse_spacing)} s" if config.bang_bang else ""),
        "",
        "  spread   t2_sim_s      t2_pred_s     t2_dev    final_mag   final_pred  contrast",
    ]
    _report(out / "summary.txt", header + rows)


def _flip_probabilities(params: dict) -> list[float]:
    raw = params.get("flip_probabilities", [0.0, 0.25, 0.5, 0.75, 1.0])
    where = "params.flip_probabilities"
    if not isinstance(raw, list) or not raw:
        raise ConfigError("flip_probabilities must be a non-empty list", where)
    probs = _floats(raw, where)
    for i, p in enumerate(probs):
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"flip probability {p:g} outside [0, 1]", f"{where}[{i}]")
    return probs


def _run_channel_demo(probs: list[float], out: Path) -> None:
    lines = ["dephasing channel constructions, map deviation from the operator form", ""]
    lines.append("  p       pure-env dilation   mixed-env dilation   unitary mixture")
    for p in probs:
        direct = channels.phase_flip(p)
        pure, mixed, mixture = (channels.map_deviation(direct, build(p)) for build in (
            channels.pure_env_flip_channel, channels.mixed_env_flip_channel,
            channels.mixture_flip_channel))
        lines.append(f"  {p:5.3f}   {pure:.3e}           {mixed:.3e}            {mixture:.3e}")
    lines += [
        "",
        "mean phase factor examples",
        f"  uniform full circle: {channels.mean_phase_factor(channels.UniformPhase())}",
        f"  gaussian std 0.5:    {channels.mean_phase_factor(channels.GaussianPhase(0.5)):.6f}",
        f"  two-point +/-0.7:    {channels.mean_phase_factor(channels.TwoPointPhase(0.7)):.6f}",
    ]
    _report(out / "report.txt", lines)


def _frame_check(params: dict) -> pulse.FrameCheck:
    loc = "params"
    values = {"omega_2_hz": 500.0, "j_hz": 215.5, "t": 1e-3} | _options(params, _VERIFY_OPTIONS, loc)
    omega_2 = TWO_PI * _positive(values["omega_2_hz"], "omega_2_hz", loc)
    j = TWO_PI * _positive(values["j_hz"], "j_hz", loc)
    # the check's norms square the Hamiltonian's entries: refuse what overflows into inf or NaN residuals
    for key, rate in (("omega_2_hz", omega_2), ("j_hz", j)):
        if not rate <= _MAX_FRAME_RATE:
            raise ConfigError(f"{key} is too large: the check's norms would overflow", f"{loc}.{key}")
    # roundoff adds up to about 2 eps |H| to each residual (at most 1.86 over 3,000 random j,
    # omega_2 and t), and a ratio of 4 stays inside (3, 5) only while its smaller residual
    # exceeds 6 times that; below _MIN_FRAME_RATE the steps stop scaling and no j is resolved
    norm = math.hypot(math.sqrt(17.0) / 4.0 * omega_2, j / 2.0)   # |H| at omega_1 = omega_2 / 4
    if omega_2 >= pulse._MIN_FRAME_RATE and _FRAME_RESIDUAL * omega_2 <= 12.0 * sys.float_info.epsilon * norm:
        raise ConfigError("j_hz is too large against omega_2_hz: roundoff of the coupling term "
                          "would hide the frame's residual", f"{loc}.j_hz")
    # R(t) repeats every 16 pi / omega_2 (omega_1 = omega_2 / 4); an ulp of t within it is below every step
    t = math.fmod(values["t"], 16 * math.pi / omega_2)
    return pulse.rotating_frame_check(pulse.LabFrameParams(omega_2 / 4.0, omega_2, j), t)


def _run_verify(frame: pulse.FrameCheck, out: Path) -> int:
    lines = ["rotating-frame check: residual of R H R† + i (dR/dt) R† minus the pure coupling", ""]
    lines += [f"  dt = {dt:.2e} s   residual = {res:.6e}"
              for dt, res in zip(frame.steps, frame.residuals)]
    shown = ", ".join("n/a" if math.isnan(r) else f"{r:.2f}" for r in frame.ratios)
    lines.append(f"  quadratic shrink ratios: {shown} (expect ~4)")
    lines.append(f"  final residual vs 1e-3 * |H| = {frame.bound:.3e}: {'ok' if frame.passed else 'FAIL'}")

    lines.append("")
    lines.append("channel equivalence: dilations vs operator form")
    channel_ok = True
    for p in (0.0, 0.25, 0.5, 1.0):
        direct = channels.phase_flip(p)
        dev = max(channels.map_deviation(direct, channels.pure_env_flip_channel(p)),
                  channels.map_deviation(direct, channels.mixed_env_flip_channel(p)))
        ok = dev <= 1e-12
        channel_ok = channel_ok and ok
        lines.append(f"  p = {p:4.2f}: max map deviation = {dev:.3e} {'ok' if ok else 'FAIL'}")

    passed = frame.passed and channel_ok
    lines.append("")
    lines.append("verify: " + ("all checks passed" if passed else "CHECKS FAILED"))
    _report(out / "report.txt", lines)
    if not passed:
        print(f"runtime error: verify checks failed; see {out / 'report.txt'}", file=sys.stderr)
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(doc: dict, seed_override: int | None = None, out_override: str | None = None) -> int:
    _refuse_unknown(doc, _TOP_KEYS, "")
    experiment = doc.get("experiment")
    if not isinstance(experiment, str) or experiment not in _PARAM_KEYS:
        raise ConfigError(f"experiment must be one of: {', '.join(_PARAM_KEYS)}", "experiment")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object", "params")
    _refuse_unknown(params, _PARAM_KEYS[experiment], "params")

    out_dir = doc.get("out_dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a string", "out_dir")

    # every config is built, so every config error raised, before anything is written or warned
    if experiment in ("transmission", "memory"):
        seed = seed_override if seed_override is not None else doc.get("seed")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError("an integer seed is required", "seed")
        build, runner = ((_build_transmission, _run_transmission) if experiment == "transmission"
                         else (_build_memory, _run_memory))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default", experiments.FieldWarning)   # once for all spreads
            task = partial(runner, build(params, seed))
        for w in caught:
            print(f"warning: {w.message} (at {_location(w.message.field, {})})", file=sys.stderr)
    elif experiment == "channel-demo":
        task = partial(_run_channel_demo, _flip_probabilities(params))
    else:
        task = partial(_run_verify, _frame_check(params))
    out = Path(out_override if out_override is not None else out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return task(out) or 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dephasim",
        description="Config-driven two-qubit dephasing experiments.",
    )
    parser.add_argument("config", help="path to the JSON config document")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        doc = load_config(args.config)
        return run(doc, seed_override=args.seed, out_override=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
