import json
import math

import numpy as np
import pytest

from dephasim import MemoryConfig, run_memory
from dephasim.cli import ConfigError, _fmt, _spread_suffix, _write_csv, load_config, main, run


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
    assert "noise window" in capsys.readouterr().err


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
    ("memory", {"observation_times": [4e-3, 8e-3, 1e9]}, "(at params)"),
    ("memory", {"observation_times": {"max_time": 1e12}}, "(at params.observation_times.max_time)"),
    ("memory", {"bang_bang": True, "pulse_spacing": 1e-12}, "(at params)"),
    ("transmission", {"total_time": 9e-3, "bang_bang": True, "pulse_spacing": 1e-12}, "(at params)"),
    # subnormal values whose event counts overflow to infinity
    ("memory", {"mean_interval": 5e-324, "observation_times": [1, 2, 3]}, "(at params)"),
    ("transmission", {"total_time": 9e-3, "bang_bang": True, "pulse_spacing": 5e-324}, "(at params)"),
], ids=["observation_times", "max_time", "memory_train", "transmission_train",
        "subnormal_interval", "subnormal_spacing"])
def test_configs_over_the_event_limit_are_config_errors(tmp_path, capsys, experiment, params, where):
    """Finite values that would ask for terabytes, or hang, exit 1 up front."""
    doc = memory_doc() if experiment == "memory" else transmission_doc()
    doc["params"].update(params)
    _config_error(tmp_path, capsys, doc, "100000", where)


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
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def test_write_csv_writes_header_and_rows(tmp_path):
    path = tmp_path / "t.csv"
    _write_csv(path, "time_s,magnitude", ["0.004,0.9", "0.008,0.81"])
    assert path.read_bytes() == b"time_s,magnitude\n0.004,0.9\n0.008,0.81\n"


def test_fmt_and_spread_suffix():
    assert _fmt(0.05700204704780489) == "0.0570020470478"
    assert _fmt(1.0) == "1"
    assert _spread_suffix(0.1) == "a010"
    assert _spread_suffix(0.25) == "a025"
    assert _spread_suffix(0.05) == "a005"
    assert _spread_suffix(0.0) == "a000"
