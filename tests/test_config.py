import json
import math

import pytest

from nomalink.cli import main
from nomalink.config import (ConfigError, ExperimentConfig, LinkSection, RequirementCase,
                             SCHEMA_VERSION, canonical_json, config_from_dict,
                             config_hash, config_to_dict, load_config)


def test_defaults_match_shipped_operating_point():
    cfg = ExperimentConfig()
    assert cfg.schema == SCHEMA_VERSION
    assert cfg.quant.bits_near == 2 and cfg.quant.bound_s == 5.0
    assert (cfg.link.rho_near, cfg.link.rho_far) == (0.3, 0.7)
    assert cfg.train.epochs == 2000
    assert cfg.train.batch_size == 4
    assert cfg.train.learning_rate == 0.1
    assert cfg.train.dataset_size == 64
    assert cfg.train.hidden == (32, 32, 32)
    assert cfg.region.gain_near_db == 20.0 and cfg.region.gain_far_db == 16.0
    assert [c.name for c in cfg.region.cases] == ["high", "med", "low"]


def test_partial_override_keeps_other_defaults():
    cfg = config_from_dict({"train": {"epochs": 10}, "seed": 7})
    assert cfg.train.epochs == 10
    assert cfg.train.batch_size == 4
    assert cfg.seed == 7
    assert cfg.sweep.grid_step_db == 2.0


def test_unknown_field_reports_dotted_path():
    with pytest.raises(ConfigError, match="unknown config field: train.epochz"):
        config_from_dict({"train": {"epochz": 10}})
    with pytest.raises(ConfigError, match="unknown config field: sweepp"):
        config_from_dict({"sweepp": {}})
    with pytest.raises(ConfigError,
                       match=r"unknown config field: region.cases\[0\].nam"):
        config_from_dict({"region": {"cases": [{"nam": "x"}]}})
    # power ceiling, bandwidth and gains of the region analysis live in
    # region; sweep sets the link's gains per cell
    for key in ("gain_near_db", "gain_far_db", "p_max_watts", "bandwidth_hz"):
        with pytest.raises(ConfigError, match=f"unknown config field: link.{key}"):
            config_from_dict({"link": {key: 1.0}})


def test_type_errors_report_path():
    with pytest.raises(ConfigError, match="train.epochs"):
        config_from_dict({"train": {"epochs": "many"}})
    with pytest.raises(ConfigError, match="train.epochs"):
        config_from_dict({"train": {"epochs": 2.5}})
    with pytest.raises(ConfigError, match="link.superposition"):
        config_from_dict({"link": {"superposition": 3}})
    with pytest.raises(ConfigError, match="train.hidden"):
        config_from_dict({"train": {"hidden": 32}})


def test_int_fields_are_strict():
    # floats never silently truncate into integer fields, bools never pass
    with pytest.raises(ConfigError, match="train.epochs"):
        config_from_dict({"train": {"epochs": 10.0}})
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"seed": True})
    cfg = config_from_dict({"region": {"gain_near_db": 14}})  # int -> float is fine
    assert cfg.region.gain_near_db == 14.0


def test_hidden_and_cases_round_trip():
    cfg = config_from_dict({
        "train": {"hidden": [8, 4]},
        "region": {"cases": [{"name": "x", "xi_req_far": 0.5,
                              "rate_req_near": 0.01, "rate_req_far": 1.0}]},
    })
    assert cfg.train.hidden == (8, 4)
    assert cfg.region.cases == (RequirementCase("x", 0.5, 0.01, 1.0),)


def test_schema_version_checked():
    with pytest.raises(ConfigError, match="schema"):
        config_from_dict({"schema": SCHEMA_VERSION + 1})


def test_rejects_non_object_document():
    with pytest.raises(ConfigError):
        config_from_dict([1, 2, 3])
    with pytest.raises(ConfigError, match="train"):
        config_from_dict({"train": 5})


def test_to_dict_round_trip():
    cfg = config_from_dict({"train": {"epochs": 3}, "seed": 9})
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg


def test_canonical_json_stable_and_sorted():
    cfg = ExperimentConfig()
    s1 = canonical_json(cfg)
    s2 = canonical_json(config_from_dict(json.loads(s1)))
    assert s1 == s2
    assert s1.index('"link"') < s1.index('"quant"') < s1.index('"train"')
    assert " " not in s1.split('"seed"')[1][:4]  # compact separators


def test_hash_changes_with_content():
    h0 = config_hash(ExperimentConfig())
    h1 = config_hash(config_from_dict({"seed": 1}))
    assert len(h0) == 12
    assert h0 != h1
    assert h0 == config_hash(ExperimentConfig())


def test_load_config_paths(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"seed": 4}')
    assert load_config(p).seed == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")


@pytest.mark.parametrize("link, message", [
    ({"rho_near": 0.8, "rho_far": 0.2}, "more power"),
    ({"rho_near": 0.5, "rho_far": 0.6}, "sum to 1"),
    ({"rho_near": 0.0, "rho_far": 1.0}, r"\(0, 1\)"),
    ({"superposition": "linear"}, "superposition"),
])
def test_bad_link_settings_rejected_at_load(tmp_path, link, message):
    with pytest.raises(ConfigError, match=f"link: .*{message}"):
        config_from_dict({"link": link})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"link": link}))
    with pytest.raises(ConfigError, match=message):
        load_config(p)
    out = tmp_path / "o"
    assert main(["sweep", "--detector", "sic", "--config", str(p), "--out", str(out)]) == 2
    assert not (out / "sweep.csv").exists()


def test_equal_power_split_and_both_conventions_accepted():
    cfg = config_from_dict({"link": {"rho_near": 0.5, "rho_far": 0.5,
                                     "superposition": "literal"}})
    assert (cfg.link.rho_near, cfg.link.superposition) == (0.5, "literal")


def test_amplitudes_conventions():
    # the square roots of the shares under sqrt, the shares themselves under literal
    assert LinkSection(0.3, 0.7, "sqrt").amplitudes() == (math.sqrt(0.3), math.sqrt(0.7))
    assert LinkSection(0.3, 0.7, "literal").amplitudes() == (0.3, 0.7)
    assert LinkSection().amplitudes() == LinkSection(0.3, 0.7, "sqrt").amplitudes()


@pytest.mark.parametrize("doc, key", [
    ({"train": {"hidden": [0]}}, "hidden"),
    ({"train": {"hidden": [32, -1]}}, "hidden"),
    ({"train": {"epochs": 0}}, "epochs"),
    ({"train": {"learning_rate": 0.0}}, "learning_rate"),
    ({"train": {"batch_size": 0}}, "batch_size"),
    ({"train": {"dataset_size": 3}}, "batch_size"),
    ({"sweep": {"snr_near_lo_db": 10, "snr_near_hi_db": 0}}, "snr_near_lo_db"),
    ({"sweep": {"snr_far_lo_db": 30}}, "snr_far_lo_db"),
    ({"sweep": {"kind": "foo"}}, "kind"),
    ({"sweep": {"n_symbols": -3}}, "n_symbols"),
    ({"sweep": {"n_symbols": 0}}, "n_symbols"),
    ({"sweep": {"estimation_error_delta": -1}}, "estimation_error_delta"),
    ({"sweep": {"grid_step_db": 0}}, "grid_step_db"),
    ({"seed": -1}, "seed"),
    ({"seed": 2**64}, "seed"),
    ({"quant": {"bits_near": 17}}, "bits_near"),
    ({"quant": {"bits_far": 0}}, "bits_far"),
    ({"quant": {"bound_d": 5.0}}, "bound_d"),
    # dB values share the accuracy CSV's +-100 dB range; at 1e300 dB the
    # parent wrote a 0-row sweep.csv or ended regions in an OverflowError
    ({"sweep": {"snr_near_lo_db": 1e300, "snr_near_hi_db": 1e300}}, "snr_near_lo_db"),
    ({"region": {"gain_near_db": 100.5}}, "gain_near_db"),
    ({"region": {"gain_near_db": 1e300}}, "gain_near_db"),
    ({"region": {"gain_far_db": -101}}, "gain_far_db"),
    ({"train": {"snr_train_far_db": 150}}, "snr_train_far_db"),
    # sizes: lower bounds the commands need, upper bounds far above any
    # shipped run; checked at load, so nothing of that size is allocated
    ({"region": {"grid_points": 0}}, "grid_points"),
    ({"region": {"grid_points": 7}}, "grid_points"),
    ({"region": {"grid_points": 65_537}}, "grid_points"),
    ({"region": {"sweep_points": -2}}, "sweep_points"),
    ({"region": {"sweep_points": 1025}}, "sweep_points"),
    ({"region": {"power_sweep_points": 0}}, "power_sweep_points"),
    ({"region": {"power_sweep_points": 10**9}}, "power_sweep_points"),
    ({"region": {"text_k_symbols": 0}}, "text_k_symbols"),
    ({"region": {"text_k_symbols": 10**6 + 1}}, "text_k_symbols"),
    ({"region": {"image_compression": 0.0}}, "image_compression"),
    ({"region": {"image_compression": 1.5}}, "image_compression"),
    ({"sweep": {"n_symbols": 10**6 + 1}}, "n_symbols"),
    ({"sweep": {"n_symbols": 10**12}}, "n_symbols"),
    ({"sweep": {"grid_step_db": 1e-3}}, "grid_step_db"),
    ({"sweep": {"grid_step_db": 5e-324}}, "grid_step_db"),
    ({"sweep": {"snr_near_lo_db": -100, "snr_near_hi_db": 100, "snr_far_lo_db": -100,
                "snr_far_hi_db": 100, "grid_step_db": 0.5}}, "grid_step_db"),
    ({"train": {"epochs": 10**6 + 1}}, "epochs"),
    ({"train": {"epochs": 10**15}}, "epochs"),
    ({"train": {"dataset_size": 10**5 + 1}}, "dataset_size"),
    ({"train": {"hidden": [257]}}, "hidden"),
    ({"train": {"hidden": [32, 2**40]}}, "hidden"),
    ({"train": {"hidden": [4] * 9}}, "hidden"),
    # region power ceiling, bandwidth and requirements: at 5e-324 Hz regions
    # ended in a ZeroDivisionError, at 1e300 Hz or a rate requirement of
    # 1e308 it printed numpy overflow or invalid-value warnings
    ({"region": {"bandwidth_hz": 0.0}}, "bandwidth_hz"),
    ({"region": {"bandwidth_hz": 5e-324}}, "bandwidth_hz"),
    ({"region": {"bandwidth_hz": 1e300}}, "bandwidth_hz"),
    ({"region": {"p_max_watts": -1.0}}, "p_max_watts"),
    ({"region": {"p_max_watts": 1e-13}}, "p_max_watts"),
    ({"region": {"p_max_watts": 1.1e12}}, "p_max_watts"),
    ({"region": {"xi_req_near": 0.0}}, "xi_req_near"),
    ({"region": {"xi_req_far": 1.0}}, "xi_req_far"),
    ({"region": {"cases": [{"rate_req_near": 1e308}]}}, "rate_req_near"),
    ({"region": {"cases": [{"rate_req_far": -1.0}]}}, "rate_req_far"),
    ({"region": {"cases": [{"xi_req_far": 1.5}]}}, "xi_req_far"),
    ({"region": {"power_level_lo": 5.0, "power_level_hi": -3.0}}, "power_level_lo"),
    ({"region": {"power_level_lo": 0.0}}, "power_level_lo"),
    ({"region": {"power_level_hi": 1.0}}, "power_level_hi"),
])
@pytest.mark.parametrize("command", [["train-modem"], ["sweep", "--detector", "sic"],
                                     ["macs"]])
def test_bad_values_exit_2_at_load_naming_the_key(tmp_path, capfd, doc, key, command):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main([*command, "--config", str(p), "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()  # rejected before any output


@pytest.mark.parametrize("text", [
    '{"sweep": {"grid_step_db": NaN}}',
    '{"sweep": {"snr_near_hi_db": Infinity}}',
    '{"region": {"gain_far_db": -Infinity}}',
    '{"region": {"bandwidth_hz": 1e999}}',
    '{"train": {"learning_rate": ' + "9" * 400 + '}}',
])
def test_non_finite_numbers_rejected_at_load(tmp_path, capfd, text):
    # python's json reads NaN, Infinity and floats or integers beyond the
    # float range; none of them is a setting
    p = tmp_path / "cfg.json"
    p.write_text(text)
    assert main(["macs", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capfd.readouterr().err
    assert "expected a finite number" in err and "Traceback" not in err


@pytest.mark.parametrize("flags, key", [
    (["--grid-step-db", "nan"], "grid_step_db"),
    (["--grid-step-db", "0"], "grid_step_db"),
    (["--grid-step-db", "inf"], "grid_step_db"),
    (["--delta", "-1"], "estimation_error_delta"),
    (["--delta", "nan"], "estimation_error_delta"),
    (["--seed", "-1"], "seed"),
    (["--grid-step-db", "1e-9"], "grid_step_db"),
])
def test_bad_sweep_flags_exit_2_naming_the_key(tmp_path, capfd, flags, key):
    out = tmp_path / "o"
    assert main(["sweep", "--detector", "sic", "--out", str(out), *flags]) == 2
    err = capfd.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (out / "sweep.csv").exists()


def test_db_values_at_the_limits_load():
    cfg = config_from_dict({"region": {"gain_near_db": 100.0, "gain_far_db": -100.0},
                            "sweep": {"snr_near_lo_db": -100, "snr_near_hi_db": 100}})
    assert (cfg.region.gain_near_db, cfg.sweep.snr_near_hi_db) == (100.0, 100.0)


def test_sizes_at_their_upper_bounds_load():
    cfg = config_from_dict({
        "train": {"epochs": 10**6, "dataset_size": 10**5, "hidden": [256] * 8},
        "sweep": {"n_symbols": 10**6, "snr_near_lo_db": -100, "snr_near_hi_db": 100,
                  "snr_far_lo_db": -100, "snr_far_hi_db": 100, "grid_step_db": 1.0},
        "region": {"grid_points": 65_536, "sweep_points": 1024,
                   "power_sweep_points": 1024, "text_k_symbols": 10**6,
                   "image_compression": 1.0}})
    assert (cfg.train.epochs, cfg.sweep.n_symbols, cfg.region.grid_points) == (
        10**6, 10**6, 65_536)
