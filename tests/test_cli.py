import contextlib
import copy
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dephasim import MemoryConfig, run_memory
from dephasim.cli import _PARAM_KEYS, ConfigError, _fmt, _spread_suffix, _write_csv, load_config, main, run


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
    # decay fit always has its three points above FIT_FLOOR
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
