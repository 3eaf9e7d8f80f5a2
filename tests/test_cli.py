import contextlib
import copy
import io
import json
import math
import re
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dephasim import MemoryConfig, cli, experiments, run_memory
from dephasim.cli import (_CSV_ROWS, _PARAM_KEYS, _VECTOR_CELLS, ConfigError, _csv_block, _fmt,
                          _spread_suffix, _write_csv, load_config, main, run)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def transmission_doc(**overrides):
    doc = {
        "experiment": "transmission",
        "seed": 7,
        "params": {"j_hz": 215.5, "total_time": 6e-3, "noise_start": 1e-3, "trials": 200},
    }
    doc.update(overrides)
    return doc


def memory_doc(**overrides):
    doc = {
        "experiment": "memory",
        "seed": 7,
        "params": {
            "j_hz": 215.5,
            "mean_interval": 2e-3,
            "interval_spread": [0.1, 0.25],
            "observation_times": {"max_time": 40e-3},
            "trials": 100,
        },
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_missing_config_file_exits_1(tmp_path, capsys):
    assert main([str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_invalid_json_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main([str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_non_object_config_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(path)


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="experiment"):
        run({"experiment": "tomography"})
    with pytest.raises(ConfigError, match="experiment"):
        run({"experiment": ["memory"]})


def test_monte_carlo_requires_seed(tmp_path, capsys):
    doc = transmission_doc()
    del doc["seed"]
    assert main([write_json(tmp_path / "c.json", doc)]) == 1
    assert "seed" in capsys.readouterr().err


def test_config_type_and_location_errors(tmp_path, capsys):
    doc = transmission_doc()
    doc["params"]["trials"] = "many"
    assert main([write_json(tmp_path / "c.json", doc)]) == 1
    err = capsys.readouterr().err
    assert "trials" in err and "params" in err

    doc = transmission_doc()
    doc["params"]["j_hz"] = -5
    assert main([write_json(tmp_path / "c.json", doc)]) == 1
    assert "j_hz" in capsys.readouterr().err

    doc = transmission_doc()
    del doc["params"]["total_time"]
    assert main([write_json(tmp_path / "c.json", doc)]) == 1
    assert "total_time" in capsys.readouterr().err


def test_bool_is_not_an_int(tmp_path):
    doc = transmission_doc()
    doc["params"]["trials"] = True
    with pytest.raises(ConfigError, match="trials"):
        run(load_config(write_json(tmp_path / "c.json", doc)))


def test_invalid_physics_reported_with_location(tmp_path, capsys):
    doc = transmission_doc()
    doc["params"]["total_time"] = 2e-3  # noise window cannot fit
    assert main([write_json(tmp_path / "c.json", doc)]) == 1
    err = capsys.readouterr().err
    assert "noise window" in err and "(at params.total_time)" in err


def test_out_dir_collision_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("in the way")
    doc = transmission_doc()
    code = main([write_json(tmp_path / "c.json", doc), "--out", str(blocker)])
    assert code == 2
    assert "runtime error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# transmission runs
# ---------------------------------------------------------------------------

def test_transmission_run_outputs(tmp_path, capsys):
    config = write_json(tmp_path / "c.json", transmission_doc())
    out = tmp_path / "results"
    assert main([config, "--out", str(out)]) == 0
    amps = (out / "amplitudes.csv").read_text().splitlines()
    assert amps[0] == "trial,amplitude_re,amplitude_im"
    assert len(amps) == 201
    groups = (out / "group_averages.csv").read_text().splitlines()
    assert groups[0] == "group,amplitude_re,amplitude_im,magnitude"
    assert len(groups) == 1 + math.ceil(200 / 16)
    summary = (out / "summary.txt").read_text()
    assert "complete dephasing" in summary
    assert "|grand average|" in summary
    assert "complete dephasing" in capsys.readouterr().out


def test_transmission_reruns_are_byte_identical(tmp_path):
    config = write_json(tmp_path / "c.json", transmission_doc())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([config, "--out", str(out_a)]) == 0
    assert main([config, "--out", str(out_b)]) == 0
    for name in ("amplitudes.csv", "group_averages.csv", "summary.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_override_changes_results(tmp_path):
    config = write_json(tmp_path / "c.json", transmission_doc())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([config, "--out", str(out_a)]) == 0
    assert main([config, "--out", str(out_b), "--seed", "8"]) == 0
    assert (out_a / "amplitudes.csv").read_bytes() != (out_b / "amplitudes.csv").read_bytes()


def test_transmission_bang_bang_summary(tmp_path):
    doc = transmission_doc()
    doc["params"].update(total_time=9e-3, bang_bang=True, pulse_spacing=0.3e-3, trials=64)
    out = tmp_path / "results"
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "sinc retention (train locked to window start)" in summary
    assert "pulses = 24" in summary


# ---------------------------------------------------------------------------
# memory runs
# ---------------------------------------------------------------------------

def test_memory_run_outputs_one_csv_per_spread(tmp_path):
    config = write_json(tmp_path / "c.json", memory_doc())
    out = tmp_path / "results"
    assert main([config, "--out", str(out)]) == 0
    assert (out / "decay_a010.csv").exists()
    assert (out / "decay_a025.csv").exists()
    lines = (out / "decay_a025.csv").read_text().splitlines()
    assert lines[0] == "time_s,magnitude,fit_magnitude"
    assert len(lines) == 11  # ten toggle cycles in 40 ms
    summary = (out / "summary.txt").read_text()
    assert "t2_sim_s" in summary and "contrast" in summary


def test_memory_csv_round_trips_to_in_memory_values(tmp_path):
    doc = memory_doc()
    doc["params"]["interval_spread"] = 0.25
    config = write_json(tmp_path / "c.json", doc)
    out = tmp_path / "results"
    assert main([config, "--out", str(out)]) == 0

    curve = run_memory(MemoryConfig(
        j=2 * math.pi * 215.5, mean_interval=2e-3, interval_spread=0.25,
        observation_times=tuple(4e-3 * k for k in range(1, 11)), trials=100, seed=7))
    rows = np.loadtxt(out / "decay_a025.csv", delimiter=",", skiprows=1)
    assert np.allclose(rows[:, 0], curve.times, rtol=1e-11, atol=0.0)
    assert np.allclose(rows[:, 1], curve.magnitudes, rtol=1e-11, atol=0.0)
    assert np.allclose(rows[:, 2], curve.fit.magnitude(curve.times), rtol=1e-11, atol=0.0)


def test_memory_reruns_are_byte_identical(tmp_path):
    config = write_json(tmp_path / "c.json", memory_doc())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([config, "--out", str(out_a)]) == 0
    assert main([config, "--out", str(out_b)]) == 0
    for name in ("decay_a010.csv", "decay_a025.csv", "summary.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_memory_explicit_observation_times(tmp_path):
    doc = memory_doc()
    doc["params"]["interval_spread"] = 0.2
    doc["params"]["observation_times"] = [4e-3, 8e-3, 12e-3, 16e-3]
    out = tmp_path / "results"
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(out)]) == 0
    assert len((out / "decay_a020.csv").read_text().splitlines()) == 5


def test_memory_train_whose_retention_rounds_to_one_predicts_no_decay(tmp_path):
    """At ``j * spacing`` of 2e-8 the train's retention rounds to 1: the run
    ends with an infinite prediction, not a zero division."""
    doc = {"experiment": "memory", "seed": 1, "params": {
        "j_hz": 215.5, "mean_interval": 1e-7, "interval_spread": 0.1,
        "observation_times": [2e-7, 4e-7, 6e-7], "trials": 10, "bang_bang": True, "pulse_spacing": 1.5e-11}}
    out = tmp_path / "results"
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(out)]) == 0
    row = (out / "summary.txt").read_text().splitlines()[-1].split()
    assert row[0] == "0.100" and row[2] == "inf"


def test_memory_config_errors(tmp_path, capsys):
    doc = memory_doc()
    doc["params"]["observation_times"] = {"max_time": 1e-3}
    assert main([write_json(tmp_path / "c.json", doc)]) == 1
    assert "max_time" in capsys.readouterr().err

    doc = memory_doc()
    doc["params"]["interval_spread"] = []
    assert main([write_json(tmp_path / "c.json", doc)]) == 1
    assert "interval_spread" in capsys.readouterr().err

    doc = memory_doc()
    doc["params"]["interval_spread"] = [0.1, "wide"]
    assert main([write_json(tmp_path / "c.json", doc)]) == 1
    assert "interval_spread" in capsys.readouterr().err


def _config_error(tmp_path, capsys, doc, *where):
    """Run ``doc``; it must exit 1 with a config error naming ``where``."""
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "Traceback" not in err
    for token in where:
        assert token in err


def test_infinite_total_time_is_a_config_error(tmp_path, capsys):
    doc = transmission_doc()
    doc["params"]["total_time"] = math.inf   # json writes Infinity
    _config_error(tmp_path, capsys, doc, "finite", "(at params.total_time)")
    assert not (tmp_path / "out" / "amplitudes.csv").exists()


def test_null_max_time_is_a_config_error(tmp_path, capsys):
    doc = memory_doc()
    doc["params"]["observation_times"] = {"max_time": None}
    _config_error(tmp_path, capsys, doc, "(at params.observation_times.max_time)")


def test_infinite_max_time_is_a_config_error(tmp_path, capsys):
    doc = memory_doc()
    doc["params"]["observation_times"] = {"max_time": math.inf}
    _config_error(tmp_path, capsys, doc, "finite", "(at params.observation_times.max_time)")


def test_observation_time_entries_are_checked(tmp_path, capsys):
    doc = memory_doc()
    doc["params"]["observation_times"] = [4e-3, math.nan]
    _config_error(tmp_path, capsys, doc, "finite", "(at params.observation_times[1])")
    doc["params"]["observation_times"] = [4e-3, "8 ms"]
    _config_error(tmp_path, capsys, doc, "(at params.observation_times[1])")


def test_zero_mean_interval_is_a_config_error(tmp_path, capsys):
    doc = memory_doc()
    doc["params"]["mean_interval"] = 0
    _config_error(tmp_path, capsys, doc, "(at params.mean_interval)")


def test_fewer_than_three_observation_times_is_a_config_error(tmp_path, capsys):
    """The decay fit needs three points; with two the run used to fail at the end."""
    doc = memory_doc()
    doc["params"]["observation_times"] = [4e-3, 8e-3]
    _config_error(tmp_path, capsys, doc, "at least 3", "(at params.observation_times)")
    doc["params"]["observation_times"] = {"max_time": 8e-3}
    _config_error(tmp_path, capsys, doc, "at least 3", "(at params.observation_times.max_time)")


@pytest.mark.parametrize("experiment", ["transmission", "memory", "channel-demo", "verify"])
def test_unknown_params_keys_are_config_errors(tmp_path, capsys, experiment):
    """A misspelt key used to be ignored: transmission with random_train_phse
    ran the locked train and exited 0."""
    docs = {"transmission": transmission_doc, "memory": memory_doc}
    doc = docs[experiment]() if experiment in docs else {"experiment": experiment, "params": {}}
    doc["params"]["random_train_phse"] = True
    _config_error(tmp_path, capsys, doc, "unknown key", "(at params.random_train_phse)")
    assert not (tmp_path / "out").exists()


def test_unknown_observation_time_grid_keys_are_config_errors(tmp_path, capsys):
    """A misspelt grid key used to be ignored: the run took max_time alone and exited 0."""
    doc = memory_doc()
    doc["params"]["observation_times"] = {"max_time": 0.02, "max_tmie": 1.0}
    _config_error(tmp_path, capsys, doc, "unknown key", "(at params.observation_times.max_tmie)")
    assert not (tmp_path / "out").exists()


def _top_level_error(tmp_path, monkeypatch, capsys, doc, where):
    """Run ``doc`` without --out from an empty directory: exit 1 at ``where``,
    and nothing written."""
    config = write_json(tmp_path / "c.json", doc)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    assert main([config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"(at {where})" in err
    assert list(run_dir.iterdir()) == []


def test_unknown_top_level_keys_are_config_errors(tmp_path, monkeypatch, capsys):
    """A misspelt out_dir used to be ignored: channel-demo wrote report.txt
    into the current directory and exited 0."""
    doc = {"experiment": "channel-demo", "out_dri": "x", "params": {}}
    _top_level_error(tmp_path, monkeypatch, capsys, doc, "out_dri")


@pytest.mark.parametrize("out_dir", [5, None, ["x"]])
def test_non_string_out_dir_is_a_config_error(tmp_path, monkeypatch, capsys, out_dir):
    """A number used to end in a TypeError traceback from Path(5)."""
    _top_level_error(tmp_path, monkeypatch, capsys, transmission_doc(out_dir=out_dir), "out_dir")


@pytest.mark.parametrize("experiment", ["transmission", "memory"])
def test_trials_over_the_limit_are_config_errors(tmp_path, capsys, experiment):
    """A trillion trials used to end in a MemoryError traceback."""
    doc = memory_doc() if experiment == "memory" else transmission_doc()
    doc["params"]["trials"] = 1_000_000_000_000
    _config_error(tmp_path, capsys, doc, "10000000", "(at params.trials)")


@pytest.mark.parametrize("experiment, params, where", [
    ("memory", {"observation_times": [4e-3, 8e-3, 1e9]}, "(at params.observation_times)"),
    ("memory", {"observation_times": {"max_time": 1e12}}, "(at params.observation_times.max_time)"),
    ("memory", {"bang_bang": True, "pulse_spacing": 1e-12}, "(at params.pulse_spacing)"),
    ("transmission", {"total_time": 9e-3, "bang_bang": True, "pulse_spacing": 1e-12},
     "(at params.pulse_spacing)"),
    # subnormal values whose event counts overflow to infinity
    ("memory", {"mean_interval": 5e-324, "observation_times": [1, 2, 3]}, "(at params.observation_times)"),
    ("transmission", {"total_time": 9e-3, "bang_bang": True, "pulse_spacing": 5e-324},
     "(at params.pulse_spacing)"),
], ids=["observation_times", "max_time", "memory_train", "transmission_train",
        "subnormal_interval", "subnormal_spacing"])
def test_configs_over_the_event_limit_are_config_errors(tmp_path, capsys, experiment, params, where):
    """Finite values that would ask for terabytes, or hang, exit 1 up front."""
    doc = memory_doc() if experiment == "memory" else transmission_doc()
    doc["params"].update(params)
    _config_error(tmp_path, capsys, doc, "100000", where)


_TRAIN = {"total_time": 9e-3, "bang_bang": True, "pulse_spacing": 0.3e-3}


# (rule, experiment, params, location of the refusal)
_RULES = [
    ("positive_j", "transmission", {"j_hz": -5}, "params.j_hz"),
    ("finite_j", "transmission", {"j_hz": 1e308}, "params.j_hz"),   # 2 pi * 1e308 is infinite
    ("noise_start", "transmission", {"noise_start": 0}, "params.noise_start"),
    ("noise_window", "transmission", {"total_time": 2e-3}, "params.total_time"),
    ("phase", "transmission", {"total_time": 1e306}, "params.total_time"),
    # windows and spacings lost in rounding used to give a biased average and exit 0
    ("unresolved_window", "transmission", {"noise_start": 3.52e13, "total_time": 5.28e13}, "params.total_time"),
    ("unresolved_coupling", "transmission", {"j_hz": 1e300}, "params.total_time"),
    ("unresolved_spacing", "transmission", {"bang_bang": True, "j_hz": 1e9, "pulse_spacing": 2e-14},
     "params.pulse_spacing"),
    # a window past total_time by under 1e-12 s used to be clamped onto the read and exit 0
    ("window_past_the_read", "transmission",
     {"j_hz": 1e13, "noise_start": 1e-3, "total_time": 1.00000000000005e-3, "trials": 100_000},
     "params.total_time"),
    ("half_window_past_the_read", "transmission",
     {"j_hz": 1e13, "noise_start": 1e-3, "total_time": 1.00000000005e-3, "trials": 100_000},
     "params.total_time"),
    ("trials", "transmission", {"trials": 0}, "params.trials"),
    ("group_size", "transmission", {"group_size": 0}, "params.group_size"),
    ("group_size_limit", "transmission", {"group_size": 10**400}, "params.group_size"),
    ("train_spacing", "transmission", {"bang_bang": True}, "params.pulse_spacing"),
    ("sparse_train", "transmission", {**_TRAIN, "total_time": 20e-3, "pulse_spacing": 1e-3},
     "params.pulse_spacing"),
    ("pulse_count", "transmission", {**_TRAIN, "pulses_per_trial": 0}, "params.pulses_per_trial"),
    ("train_limit", "transmission", {**_TRAIN, "pulses_per_trial": 200_000}, "params.pulses_per_trial"),
    ("train_fit", "transmission", {**_TRAIN, "total_time": 6e-3}, "params.total_time"),
    ("set_train_fit", "transmission", {**_TRAIN, "pulses_per_trial": 32}, "params.pulses_per_trial"),
    ("train_without_bang_bang", "transmission", {"pulses_per_trial": 16}, "params.pulses_per_trial"),
    ("spacing_without_bang_bang", "transmission", {"pulse_spacing": 0.3e-3}, "params.pulse_spacing"),
    ("phase_without_bang_bang", "transmission", {"random_train_phase": True}, "params.random_train_phase"),
    ("positive_j", "memory", {"j_hz": -5}, "params.j_hz"),
    ("mean_interval", "memory", {"mean_interval": -2e-3, "observation_times": [4e-3, 8e-3, 12e-3]},
     "params.mean_interval"),
    ("spread", "memory", {"interval_spread": 0.3}, "params.interval_spread"),
    ("second_spread", "memory", {"interval_spread": [0.1, 0.9]}, "params.interval_spread[1]"),
    # both write decay_a010.csv; the second used to overwrite the first and exit 0
    ("same_csv", "memory", {"interval_spread": [0.1, 0.15, 0.104]}, "params.interval_spread[2]"),
    ("three_times", "memory", {"observation_times": [4e-3, 8e-3]}, "params.observation_times"),
    ("three_grid_times", "memory", {"observation_times": {"max_time": 8e-3}},
     "params.observation_times.max_time"),
    ("whole_cycles", "memory", {"observation_times": [4e-3, 5e-3, 8e-3]}, "params.observation_times"),
    ("increasing", "memory", {"observation_times": [4e-3, 12e-3, 8e-3]}, "params.observation_times"),
    ("no_zero_cycles", "memory", {"observation_times": [1e-20, 2e-20, 3e-20]}, "params.observation_times"),
    ("phase", "memory", {"j_hz": 1e10, "mean_interval": 1e299, "interval_spread": 0,
                         "observation_times": [2e299, 4e299, 6e299]}, "params.observation_times"),
    ("finite_flips", "memory", {"j_hz": 0.1, "mean_interval": 1e307,
                                "observation_times": [2e307 * k for k in range(1, 9)]},
     "params.observation_times"),
    ("train_spacing", "memory", {"bang_bang": True}, "params.pulse_spacing"),
    ("spacing_without_bang_bang", "memory", {"pulse_spacing": 0.1e-3}, "params.pulse_spacing"),
    ("sparse_train", "memory", {"bang_bang": True, "pulse_spacing": 5e-3}, "params.pulse_spacing"),
    ("trials", "memory", {"trials": 0}, "params.trials"),
]


@pytest.mark.parametrize("experiment, params, where", [rule[1:] for rule in _RULES],
                         ids=[f"{experiment}-{rule}" for rule, experiment, _, _ in _RULES])
def test_config_rules_are_reported_at_their_field(tmp_path, capsys, experiment, params, where):
    """Each rule of the config classes, refused at the key to change."""
    doc = memory_doc() if experiment == "memory" else transmission_doc()
    doc["params"].update(params)
    _config_error(tmp_path, capsys, doc, f"(at {where})")


@pytest.mark.parametrize("doc, where", [
    (memory_doc(seed=-1), "seed"),
    (transmission_doc(params={**transmission_doc()["params"], "j_hz": -1}), "params.j_hz"),
    (memory_doc(params={**memory_doc()["params"], "interval_spread": [0.1, 0.9]}),
     "params.interval_spread[1]"),
    # phases that overflow used to write NaN to every output and exit 0
    (transmission_doc(params={**transmission_doc()["params"], "total_time": 1e306}), "params.total_time"),
    (memory_doc(params={"j_hz": 1e10, "mean_interval": 1e299, "interval_spread": 0, "trials": 4,
                        "observation_times": [2e299, 4e299, 6e299]}), "params.observation_times"),
], ids=["seed", "field", "second_spread", "transmission_phase", "memory_phase"])
def test_config_errors_write_nothing(tmp_path, capsys, doc, where):
    """Every config is built before the output directory is made: a bad
    second spread used to leave the first spread's CSV behind."""
    _config_error(tmp_path, capsys, doc, f"(at {where})")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("contrast", [None, -4e-4])
def test_a_contrast_of_no_decay_prints_as_zero(tmp_path, monkeypatch, contrast):
    """At j_hz 1e-300 no trial dephases, so ln 1 made the contrast -0.0 and
    the row ended in -0.000; a negative contrast that rounds to zero prints
    0.000 as well."""
    if contrast is not None:
        monkeypatch.setattr(experiments, "decay_contrast", lambda *args: contrast)
    doc = {"experiment": "memory", "seed": 1, "params": {
        "j_hz": 1e-300, "mean_interval": 2e-3, "interval_spread": 0.1,
        "observation_times": [4e-3, 8e-3, 12e-3], "trials": 20}}
    out = tmp_path / "results"
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(out)]) == 0
    row = (out / "summary.txt").read_text().splitlines()[-1].split()
    assert row[0] == "0.100" and row[-1] == "0.000"


def test_overflowing_closed_forms_report_no_deviation(tmp_path, capsys):
    """(j * mean_interval * spread) ** 2 used to end in an OverflowError
    traceback; as a product it overflows to a retention of 0 and a t2 of 0."""
    doc = memory_doc()
    doc["params"].update(j_hz=1.6e159, interval_spread=0.25, trials=1)
    out = tmp_path / "results"
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(out)]) == 0
    row = (out / "summary.txt").read_text().splitlines()[-1].split()
    assert row[0] == "0.250" and row[2] == "0" and row[3] == "n/a"
    assert "Traceback" not in capsys.readouterr().err


def test_unresolved_decay_writes_its_magnitudes_and_exits_0(tmp_path, capsys):
    """At this coupling every magnitude is Monte Carlo noise, below FIT_FLOOR:
    the run used to exit 2 with an empty output directory.  Now the CSV keeps
    the magnitudes without a fit column and the summary says so."""
    doc = {"experiment": "memory", "seed": 1, "params": {
        "j_hz": 1.6e159, "mean_interval": 2e-3, "interval_spread": 0.1,
        "observation_times": {"max_time": 20e-3}, "trials": 20000}}
    out = tmp_path / "results"
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(out)]) == 0
    assert "error" not in capsys.readouterr().err
    header, *rows = (out / "decay_a010.csv").read_text().splitlines()
    assert header == "time_s,magnitude" and len(rows) == 5
    assert all(0 < float(row.split(",")[1]) <= experiments.FIT_FLOOR for row in rows)
    summary = (out / "summary.txt").read_text()
    assert "nan" not in summary.lower()
    row = summary.splitlines()[-1]
    assert row.split()[:4] == ["0.100", "n/a", "0", "n/a"]
    assert "t2 not resolved" in row


@pytest.mark.parametrize("spacing", [1e-5, 2e-5, 5e-5, 1e-4, 2e-4])
def test_pulsed_memory_train_ending_on_the_horizon_runs(tmp_path, spacing):
    """k * spacing rounds past max_time = 60 ms for these spacings."""
    doc = memory_doc()
    doc["params"].update(interval_spread=0.25, observation_times={"max_time": 60e-3},
                         trials=4, bang_bang=True, pulse_spacing=spacing)
    out = tmp_path / "results"
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(out)]) == 0
    assert len((out / "decay_a025.csv").read_text().splitlines()) == 16


# ---------------------------------------------------------------------------
# mutated sample configs
# ---------------------------------------------------------------------------

_SAMPLES = {path.name: json.loads(path.read_text())
            for path in (Path(__file__).parents[1] / "configs").glob("*.json")}
# what a value is changed to: dropped, put in a list, or replaced
_CHANGES = [("drop", None), ("wrap", None)] + [("set", value) for value in (
    -0.0, 5e-324, 1e308, 10**400, None, "0.001", True, {})]


def _sample(name: str) -> dict:
    doc = copy.deepcopy(_SAMPLES[name])
    # one trial keeps each run short, and every memory magnitude at 1, so the
    # decay fit always has its three points above FIT_FLOOR; channel-demo and
    # verify take no trials
    if "trials" in doc["params"]:
        doc["params"]["trials"] = 1
    return doc


def _paths(node, prefix=()):
    """The key path of every value below ``node``, a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutations(doc: dict) -> list:
    """Every ``(path, change)`` one mutation away from ``doc``: each value
    changed, and each absent params key of its experiment, or an unknown
    one, added."""
    mutations = [(path, change) for path in _paths(doc) for change in _CHANGES]
    params, experiment = doc.get("params"), doc.get("experiment")
    if isinstance(params, dict) and isinstance(experiment, str):
        absent = sorted(_PARAM_KEYS.get(experiment, set()) - set(params)) + ["extra"]
        mutations += [(("params", key), change) for key in absent for change in _CHANGES[2:]]
    return mutations + [(("extra",), ("set", None))]


def _mutated(doc: dict, path: tuple, change: tuple) -> dict:
    doc = copy.deepcopy(doc)
    *head, key = path
    parent = doc
    for step in head:
        parent = parent[step]
    kind, value = change
    if kind == "drop":
        del parent[key]
    else:
        parent[key] = [parent[key]] if kind == "wrap" else copy.deepcopy(value)
    return doc


def _check_contract(doc: dict) -> None:
    """No exception escapes; a failure prints one error line; exit 1 writes
    nothing; exit 0 writes no NaN; only verify exits 2."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "c.json", Path(tmp) / "out"
        config.write_text(json.dumps(doc))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([str(config), "--out", str(out)])
        if code == 0:
            outputs = [stdout.getvalue()] + [path.read_text() for path in out.iterdir()]
            assert not any(re.search(r"\bnan\b", text, re.IGNORECASE) for text in outputs), doc
        else:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith(("config error", "runtime error")), (lines, doc)
        assert code in (0, 1, 2), doc
        assert code != 1 or not out.exists(), doc
        assert code != 2 or doc.get("experiment") == "verify", (stderr.getvalue(), doc)


COARSE_SPACING = ("warning: pulse_spacing is not small against the interval jitter; the "
                  "closed-form retention factor becomes approximate (at params.pulse_spacing)")


@pytest.mark.parametrize("spreads", [0.25, [0.25, 0.24]], ids=["one", "sweep"])
def test_coarse_spacing_warning_is_one_line(tmp_path, capsys, spreads):
    """Once a run, however many spreads warn, and without a source line."""
    doc = _sample("memory_pulsed.json")
    doc["params"]["interval_spread"] = spreads
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err.splitlines() == [COARSE_SPACING]


def test_a_train_ending_inside_the_noise_window_warns_once(tmp_path, capsys):
    """100,000 pulses 40 ns apart end 4 ms after noise_start, before a window
    of up to one coupling period (4.64 ms) can close: the run goes on, and
    says that its summary's law does not apply."""
    doc = _sample("transmission_pulsed.json")
    doc["params"].update(pulses_per_trial=100_000, pulse_spacing=4e-8)
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: train of 100000 pulses ends before the noise window can close; the closed-form "
        "retention factor does not apply (at params.pulses_per_trial)"]


def test_config_error_after_a_warning_is_the_only_line(tmp_path, capsys):
    """Warnings wait until every config is built, so a later spread's
    refusal still prints exactly one line and writes nothing."""
    doc = _sample("memory_pulsed.json")
    doc["params"]["interval_spread"] = [0.25, 0.3]
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error") and "interval_spread[1]" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(_SAMPLES))
def test_every_single_mutation_keeps_the_cli_contract(name):
    doc = _sample(name)
    for path, change in _mutations(doc):
        _check_contract(_mutated(doc, path, change))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_sample_configs_keep_the_cli_contract(data):
    """Two or three mutations at a time."""
    doc = _sample(data.draw(st.sampled_from(sorted(_SAMPLES))))
    for _ in range(data.draw(st.integers(2, 3))):
        doc = _mutated(doc, *data.draw(st.sampled_from(_mutations(doc))))
    _check_contract(doc)


# ---------------------------------------------------------------------------
# channel demo and verify
# ---------------------------------------------------------------------------

def test_channel_demo_report(tmp_path):
    doc = {"experiment": "channel-demo", "params": {}}
    out = tmp_path / "demo"
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "pure-env dilation" in report
    assert "mean phase factor" in report
    # all construction deviations are numerically tiny
    for token in report.split():
        if "e-" in token and token.replace(".", "").replace("e-", "").isdigit():
            assert float(token) < 1e-10


def test_channel_demo_probability_out_of_range_is_a_config_error(tmp_path, capsys):
    doc = {"experiment": "channel-demo", "params": {"flip_probabilities": [0.5, 2.0]}}
    _config_error(tmp_path, capsys, doc, "(at params.flip_probabilities[1])")
    doc["params"]["flip_probabilities"] = [0.5, "half"]
    _config_error(tmp_path, capsys, doc, "(at params.flip_probabilities[1])")


@pytest.mark.parametrize("key, value", [
    ("omega_2_hz", "fast"), ("omega_2_hz", 0), ("j_hz", -215.5), ("j_hz", math.inf), ("t", [1e-3]),
])
def test_verify_parameter_errors_are_config_errors(tmp_path, capsys, key, value):
    doc = {"experiment": "verify", "params": {key: value}}
    _config_error(tmp_path, capsys, doc, f"(at params.{key})")


@pytest.mark.parametrize("key, value", [("j_hz", 1e300), ("j_hz", 1e308), ("omega_2_hz", 1e300)])
def test_verify_refuses_parameters_that_overflow_its_check(tmp_path, capsys, key, value):
    """These wrote NaN or inf residuals and exited 2, as a failed check."""
    doc = {"experiment": "verify", "params": {key: value}}
    _config_error(tmp_path, capsys, doc, f"(at params.{key})")


@pytest.mark.parametrize("j_hz", [1e12, 1e152])
def test_verify_refuses_a_coupling_whose_roundoff_hides_the_frame(tmp_path, capsys, j_hz):
    """At the default omega_2_hz of 500 these exited 2, a failed check on
    valid input: the residuals were 0.35 to 2.8 eps |H| at 1e12, for ratios
    3.55 and 2.24, and pure roundoff at 1e152, ratios 1.00 and 1.00."""
    doc = {"experiment": "verify", "params": {"j_hz": j_hz}}
    _config_error(tmp_path, capsys, doc, "(at params.j_hz)")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("omega_2_hz, j_hz", [(500.0, 1e10), (500.0, 1.3e10), (5e8, 1e12)])
def test_verify_judges_a_coupling_under_its_roundoff_limit(tmp_path, omega_2_hz, j_hz):
    """The limit on j_hz scales with omega_2_hz, about 2.7e7 times it; under
    it the ratios stand inside (3, 5) and the check passes."""
    doc = {"experiment": "verify", "params": {"omega_2_hz": omega_2_hz, "j_hz": j_hz}}
    out = tmp_path / "verify"
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(out)]) == 0
    assert "all checks passed" in (out / "report.txt").read_text()


@pytest.mark.parametrize("t", [1e12, 1e308, -1e308])
def test_verify_checks_any_finite_time(tmp_path, capsys, t):
    """The frame repeats every 16 pi / omega_2, so t is checked within one
    period: at 1e12 an ulp of t (1.2e-4 s) was longer than every step, and
    the residuals sat on their roundoff floor; 1e308 was refused."""
    doc = {"experiment": "verify", "params": {"t": t}}
    out = tmp_path / "verify"
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "quadratic shrink ratios: 4.00, 4.00" in report and "all checks passed" in report
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("t", [1e-3, 1e12])
@pytest.mark.parametrize("hz", [500.0, 1e6, 5e8, 8e8])
def test_verify_passes_at_nmr_larmor_frequencies(tmp_path, capsys, hz, t):
    """Liquid-state NMR runs at hundreds of MHz.  The steps scale as
    1 / omega_2, so they turn the frame by the angles they turn it by at the
    default 500 Hz, and the report prints the steps it took.  Steps fixed at
    1e-6 to 1e-7 s turned it by about 3,000 rad at 5e8 Hz, for ratios 1.00,
    1.00 and a failed check."""
    doc = {"experiment": "verify", "params": {"omega_2_hz": hz, "t": t}}
    out = tmp_path / "verify"
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "quadratic shrink ratios: 4.00, 4.00" in report and "all checks passed" in report
    steps = cli._frame_check(doc["params"]).steps
    assert steps == pytest.approx([dt * 500.0 / hz for dt in (1e-6, 5e-7, 2.5e-7, 1e-7)], rel=1e-12)
    assert [f"dt = {dt:.2e} s" in report for dt in steps] == [True] * 4
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("hz", [1e-310, 5e-324])
def test_verify_at_subnormal_frequencies_writes_finite_residuals(tmp_path, hz):
    """The steps stop growing below 1e-300 rad/s; scaled all the way, they
    overflowed into NaN residuals here.  Nothing is resolved: a failed check."""
    doc = {"experiment": "verify", "params": {"omega_2_hz": hz}}
    out = tmp_path / "verify"
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(out)]) == 2
    report = (out / "report.txt").read_text()
    assert "CHECKS FAILED" in report
    assert not re.search(r"\b(nan|inf)\b", report, re.IGNORECASE)


def test_verify_at_its_largest_parameters_writes_finite_residuals(tmp_path):
    """Both frequencies at the limit, and a t near the largest float, which
    the check takes within one period of the frame: every number in the
    report is finite.  With steps scaled to omega_2 the check resolves the
    frame and passes; with fixed steps it failed here."""
    hz = (1 - 1e-12) * cli._MAX_FRAME_RATE / cli.TWO_PI
    t = 0.99 * sys.float_info.max / cli._MAX_FRAME_RATE
    doc = {"experiment": "verify", "params": {"omega_2_hz": hz, "j_hz": hz, "t": t}}
    out = tmp_path / "verify"
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "all checks passed" in report
    assert not re.search(r"\b(nan|inf)\b", report, re.IGNORECASE)


def test_verify_report_passes(tmp_path):
    doc = {"experiment": "verify", "params": {}}
    out = tmp_path / "verify"
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "all checks passed" in report
    assert "quadratic shrink ratios" in report


def test_verify_with_unresolvable_frequencies_fails_its_checks(tmp_path, capsys):
    """Every residual is 0 here, so there are no shrink ratios to judge."""
    doc = {"experiment": "verify", "params": {"omega_2_hz": 1e-300, "j_hz": 1e-300}}
    out = tmp_path / "verify"
    assert main([write_json(tmp_path / "c.json", doc), "--out", str(out)]) == 2
    report = (out / "report.txt").read_text()
    assert "quadratic shrink ratios: n/a, n/a (expect ~4)" in report
    assert "CHECKS FAILED" in report
    assert capsys.readouterr().err.splitlines() == [
        f"runtime error: verify checks failed; see {out / 'report.txt'}"]


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def test_write_csv_writes_header_and_rows(tmp_path):
    path = tmp_path / "t.csv"
    _write_csv(path, "time_s,magnitude", None, np.array([0.004, 0.008]), np.array([0.9, 0.81]))
    assert path.read_bytes() == b"time_s,magnitude\n0.004,0.9\n0.008,0.81\n"
    _write_csv(path, "trial,amplitude_re", range(2), np.array([0.5, -0.0]))
    assert path.read_bytes() == b"trial,amplitude_re\n0,0.5\n1,-0\n"


def _per_row_csv(header: str, rows) -> bytes:
    """A CSV as it was written one f-string a row, with the rows joined."""
    return (header + "\n" + "\n".join(rows) + "\n").encode()


def _old_fmt(x) -> str:
    return f"{float(x):.12g}"


@pytest.mark.parametrize("rows", [1, _CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1, 2 * _CSV_ROWS - 1,
                                  2 * _CSV_ROWS, 2 * _CSV_ROWS + 1, 4 * _CSV_ROWS + 1])
def test_csvs_written_in_blocks_match_the_per_row_formula(tmp_path, rows):
    doc = transmission_doc()
    doc["params"].update(trials=rows, group_size=1)   # one group a trial, so both CSVs have rows rows
    out = tmp_path / "transmission"
    assert main([write_json(tmp_path / "t.json", doc), "--out", str(out)]) == 0
    result = experiments.run_transmission(cli._build_transmission(doc["params"], doc["seed"]))
    amps, groups = result.amplitudes, result.group_averages
    assert (out / "amplitudes.csv").read_bytes() == _per_row_csv("trial,amplitude_re,amplitude_im", (
        f"{k},{_old_fmt(a.real)},{_old_fmt(a.imag)}" for k, a in enumerate(amps)))
    assert (out / "group_averages.csv").read_bytes() == _per_row_csv(
        "group,amplitude_re,amplitude_im,magnitude",
        (f"{k},{_old_fmt(g.real)},{_old_fmt(g.imag)},{_old_fmt(abs(g))}" for k, g in enumerate(groups)))

    # a decay CSV has a row per observation time; a memory run needs three or more
    doc = memory_doc()
    doc["params"].update(interval_spread=0.1, trials=4, observation_times={"max_time": max(rows, 3) * 4e-3})
    out = tmp_path / "memory"
    assert main([write_json(tmp_path / "m.json", doc), "--out", str(out)]) == 0
    [config] = cli._build_memory(doc["params"], doc["seed"])
    curve = run_memory(config)
    assert len(curve.times) == max(rows, 3)
    assert (out / "decay_a010.csv").read_bytes() == _per_row_csv("time_s,magnitude,fit_magnitude", (
        f"{_old_fmt(t)},{_old_fmt(m)},{_old_fmt(f)}"
        for t, m, f in zip(curve.times, curve.magnitudes, curve.fit.magnitude(curve.times))))


def test_write_csv_memory_does_not_grow_with_rows(tmp_path):
    """Formatting a block at a time keeps the writer's peak at a few hundred
    kB whatever the row count; all the rows' strings at once take about 3.5 MB
    at 20,000 rows."""
    values = np.random.default_rng(0).standard_normal((2, 20_000))
    peaks = {}
    for rows in (2_000, 20_000):
        tracemalloc.start()
        try:
            _write_csv(tmp_path / "t.csv", "trial,amplitude_re,amplitude_im", range(rows),
                       *values[:, :rows])
            peaks[rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len((tmp_path / "t.csv").read_bytes().splitlines()) == rows + 1
    assert peaks[20_000] < 400_000
    assert abs(peaks[20_000] - peaks[2_000]) <= 0.05 * peaks[2_000]


def _printf_rows(block: np.ndarray) -> bytes:
    """A block's CSV text, one ``"%.12g" %`` a cell."""
    return "".join(",".join("%.12g" % x for x in row) + "\n" for row in block.tolist()).encode()


def _assert_csv_block_is_printf(values: np.ndarray, columns: int = 3) -> None:
    """`_csv_block` gives the bytes of ``"%.12g" %`` on ``values``, taken
    `_CSV_ROWS` rows of ``columns`` cells at a time."""
    blocks = np.asarray(values, float).reshape(-1, columns)
    for start in range(0, len(blocks), _CSV_ROWS):
        block = blocks[start:start + _CSV_ROWS]
        assert _csv_block(block) == _printf_rows(block), block


def test_csv_block_matches_printf_on_a_million_values():
    rng = np.random.default_rng(20)
    count = 258_048   # four sets make 1,032,192 values
    signs = rng.choice([-1.0, 1.0], count)
    for values in (
        rng.uniform(-1.0, 1.0, count),
        signs * 10.0 ** rng.uniform(-320.0, 308.0, count),
        rng.integers(0, 2**64, count, dtype=np.uint64).view(np.float64),
        rng.integers(0, experiments.MAX_TRIALS, count, endpoint=True),
    ):
        _assert_csv_block_is_printf(values)


def _edge_values() -> list[float]:
    values = [0.0, 5e-324, math.inf, math.nan, 1e-5, 1e-4, 9.99999999999e-5, 0.99999999999995,
              999999999999.5, 123456789012.5, 9.9999999999995e-5, 99999999999.99, 999999999999.7]
    for k in range(-22, 23):
        power = 10.0**k
        values += [np.nextafter(power, 0.0), power, np.nextafter(power, math.inf)]
    # decimal ties at the 12th digit, most of them a little off the tie in binary
    rng = np.random.default_rng(12)
    values += list((rng.integers(10**11, 10**12, 2_000) + 0.5) / 10.0 ** rng.integers(0, 17, 2_000))
    return values + [-x for x in values]


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_csv_block_matches_printf_on_edge_values(columns):
    _assert_csv_block_is_printf(_edge_values() * columns, columns)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 4))
def test_csv_block_matches_printf_on_any_floats(values, columns):
    block = np.array(values * columns).reshape(-1, columns)
    assert _csv_block(block) == _printf_rows(block)


def test_csv_block_calls_fmt_only_for_zeros_exponent_form_and_near_ties(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_fmt", lambda x: calls.append(x) or _fmt(x))
    # rounding carries to 1, 0.0001 and 100000000000 without _fmt, and to 1e+12 with it
    values = [0.99999999999995, 9.9999999999995e-5, 99999999999.99, 0.0, -0.0, math.inf, 1e-5,
              999999999999.7, 123456789012.5]
    assert _csv_block(np.array(values)[:, None]) == _printf_rows(np.array(values)[:, None])
    assert calls == values[3:]
    calls.clear()
    _csv_block(np.random.default_rng(4).uniform(-1.0, 1.0, (10_000, 3)))
    assert len(calls) < 0.01 * 30_000   # near-ties and |v| < 1e-4 only


@pytest.mark.parametrize("cells", [_VECTOR_CELLS - 1, _VECTOR_CELLS])
def test_blocks_on_both_sides_of_the_crossover_match_the_per_row_formula(tmp_path, monkeypatch, cells):
    """A block of `_VECTOR_CELLS` cells or more goes through `_csv_block`, a
    smaller one through `_fmt` a cell; both write the per-row formula's bytes."""
    values = np.random.default_rng(cells).standard_normal(cells)
    values[:6] = [0.0, -0.0, math.nan, math.inf, 1e-7, 123456789012.5]   # each through _fmt
    blocks = []
    monkeypatch.setattr(cli, "_csv_block", lambda block: blocks.append(block) or _csv_block(block))
    _write_csv(tmp_path / "t.csv", "magnitude", None, values)
    assert (tmp_path / "t.csv").read_bytes() == _per_row_csv("magnitude", map(_old_fmt, values))
    assert len(blocks) == (cells >= _VECTOR_CELLS)


def test_fmt_and_spread_suffix():
    assert _fmt(0.05700204704780489) == "0.0570020470478"
    assert _fmt(1.0) == "1"
    for x in (-0.0, 1e-5, 1e16, 5e-324, math.inf, math.nan, np.float64(0.1), 7):
        assert _fmt(x) == f"{float(x):.12g}"
    assert _spread_suffix(0.1) == "a010"
    assert _spread_suffix(0.25) == "a025"
    assert _spread_suffix(0.05) == "a005"
    assert _spread_suffix(0.0) == "a000"
