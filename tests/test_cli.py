import collections
import dataclasses
import functools
import importlib.util
import inspect
import itertools
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nomalink
import oracles
from nomalink import cli, link, modem, qam, quant
from nomalink.cli import main
from nomalink.config import (LinkSection, RegionSection, RequirementCase, config_from_dict,
                             load_config)
from nomalink.regions import (default_rate_grid, noma_power_region, noma_rate_region,
                              oma_power_region, oma_rate_region)
from nomalink.srate import (TRUE_IMAGE_CURVE, TRUE_TEXT_CURVE, fit_logistic,
                            synthetic_accuracy_samples, write_accuracy_csv, xi_eval)

TINY = {
    "seed": 0,
    "train": {"epochs": 40, "dataset_size": 16},
    "sweep": {"grid_step_db": 14.0, "n_symbols": 300},
    "region": {"grid_points": 128, "sweep_points": 5, "power_sweep_points": 3},
}
# the first two default requirement cases
HIGH = {"name": "high", "xi_req_far": 0.75, "rate_req_near": 0.075, "rate_req_far": 5.0}
MED = {"name": "med", "xi_req_far": 0.68, "rate_req_near": 0.069, "rate_req_far": 4.13}


@pytest.fixture()
def tiny_cfg(tmp_path):
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(TINY))
    return str(p)


def _read(path):
    return path.read_bytes()


def test_train_then_sweep_then_macs_byte_identical(tiny_cfg, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["train-modem", "--config", tiny_cfg, "--out", str(out)]) == 0
        assert main(["sweep", "--config", tiny_cfg, "--out", str(out)]) == 0
        assert main(["macs", "--config", tiny_cfg, "--out", str(out),
                     "--models", str(out)]) == 0
    for name in ("modem_near.json", "modem_far.json", "train_trace.csv",
                 "sweep.csv", "macs.csv"):
        assert _read(out_a / name) == _read(out_b / name), name


def test_outputs_start_with_config_stamp(tiny_cfg, tmp_path):
    out = tmp_path / "o"
    assert main(["train-modem", "--config", tiny_cfg, "--out", str(out)]) == 0
    first = (out / "train_trace.csv").read_text().splitlines()[0]
    assert first.startswith("# config_hash=") and "seed=0" in first


def test_sweep_row_count_is_full_cross_product(tiny_cfg, tmp_path):
    out = tmp_path / "o"
    assert main(["train-modem", "--config", tiny_cfg, "--out", str(out)]) == 0
    assert main(["sweep", "--config", tiny_cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    # near grid 0..28 step 14 -> 3 points, far grid -8..20 step 14 -> 3 points
    assert lines[1] == ("detector,kind,delta,snr_near_db,snr_far_db,"
                        "mse_near,mse_far,ser_near,ser_far")
    assert len(lines) == 2 + 3 * 3 * 2
    assert sum(l.startswith("neural,") for l in lines) == 9
    assert sum(l.startswith("sic,") for l in lines) == 9


def test_sweep_both_rows_are_the_single_detector_rows(tiny_cfg, tmp_path):
    # one shared channel pass per cell writes, byte for byte, the rows of
    # a neural-only and a SIC-only sweep, interleaved cell by cell
    models = tmp_path / "m"
    assert main(["train-modem", "--config", tiny_cfg, "--out", str(models)]) == 0
    lines = {}
    for det in ("both", "neural", "sic"):
        out = tmp_path / det
        assert main(["sweep", "--config", tiny_cfg, "--out", str(out), "--detector", det,
                     "--models", str(models), "--delta", "0.1"]) == 0
        lines[det] = (out / "sweep.csv").read_bytes().splitlines(keepends=True)
    assert lines["both"][:2] == lines["neural"][:2] == lines["sic"][:2]
    assert lines["both"][2::2] == lines["neural"][2:]
    assert lines["both"][3::2] == lines["sic"][2:]


def _count_constellation_builds(monkeypatch):
    """Count fit_quantizer, make_qam and point_grid calls at every binding."""
    counts = collections.Counter()
    for mod in (cli, link, modem, qam, quant):
        for name in ("fit_quantizer", "make_qam", "point_grid"):
            fn = getattr(mod, name, None)
            if fn is not None:
                def counted(*args, _fn=fn, _name=name):
                    counts[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(mod, name, counted)
    return counts


def test_sweep_builds_constellations_once_whatever_the_grid(tiny_cfg, tmp_path,
                                                            monkeypatch):
    models = tmp_path / "m"
    assert main(["train-modem", "--config", tiny_cfg, "--out", str(models)]) == 0
    counts = _count_constellation_builds(monkeypatch)
    seen = []
    for step in ("14", "4"):  # 3 x 3 and 8 x 8 cells
        counts.clear()
        assert main(["sweep", "--config", tiny_cfg, "--out", str(tmp_path / step),
                     "--models", str(models), "--grid-step-db", step]) == 0
        seen.append(dict(counts))
    # two quantizers for the model files, then one quantizer and one QAM
    # map per user for the whole sweep, each with its point grid
    assert seen[0] == seen[1] == {"fit_quantizer": 4, "make_qam": 2, "point_grid": 6}


def test_train_modem_trains_under_the_configured_csi_error(tmp_path):
    files = {}
    for delta in (0.0, 0.3):
        cfg = tmp_path / f"{delta}.json"
        cfg.write_text(json.dumps({
            "train": {"epochs": 5, "dataset_size": 16},
            "sweep": {"kind": "rayleigh", "estimation_error_delta": delta}}))
        out = tmp_path / f"out{delta}"
        assert main(["train-modem", "--config", str(cfg), "--out", str(out)]) == 0
        files[delta] = [_read(out / name) for name in ("modem_near.json", "modem_far.json")]
    assert all(a != b for a, b in zip(files[0.0], files[0.3]))


def test_sweep_sic_only_needs_no_models(tiny_cfg, tmp_path):
    out = tmp_path / "o"
    assert main(["sweep", "--config", tiny_cfg, "--out", str(out),
                 "--detector", "sic"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert all(l.startswith("sic,") for l in lines[2:])


def test_sweep_neural_without_models_exits_2(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "empty"
    assert main(["sweep", "--config", tiny_cfg, "--out", str(out),
                 "--detector", "neural"]) == 2
    err = capsys.readouterr().err
    assert "train-modem" in err and "--models" in err


def test_bad_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"trane": {"epochs": 3}}')
    assert main(["macs", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "unknown config field: trane" in capsys.readouterr().err


def test_regions_outputs_and_rerun_identical(tiny_cfg, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["regions", "--config", tiny_cfg, "--out", str(out)]) == 0
    for name in ("regions.csv", "regions_meta.json"):
        assert _read(out_a / name) == _read(out_b / name), name
    lines = (out_a / "regions.csv").read_text().splitlines()
    assert lines[1] == "curve,x,y,feasible"
    schemes = {l.split(",")[0] for l in lines[2:]}
    assert schemes == {"noma-rate", "oma-rate", "noma-power", "oma-power"}
    # rate curves get sweep_points rows, power curves power_sweep_points rows
    assert len(lines) == 2 + 2 * 5 + 2 * 3

    meta = json.loads((out_a / "regions_meta.json").read_text())
    assert set(meta) == {"accuracy_models", "case", "config_hash", "curves", "seed"}
    assert meta["case"]["name"] == "high"
    for kind in ("text", "image"):
        mm = meta["accuracy_models"][kind]
        assert {"a1", "a2", "c1", "c2", "residual_rms", "iterations", "source",
                "warning"} <= set(mm)
        # the shipped ground-truth curve, taken as given
        truth = TRUE_TEXT_CURVE if kind == "text" else TRUE_IMAGE_CURVE
        assert mm["source"] == "builtin"
        assert [mm[k] for k in ("a1", "a2", "c1", "c2")] == [truth.a1, truth.a2, truth.c1,
                                                             truth.c2]
        assert mm["iterations"] == 0 and isinstance(mm["iterations"], int)
        assert mm["residual_rms"] == 0.0
        assert mm["warning"] is None


@pytest.mark.parametrize("doc", [{}, TINY], ids=["shipped", "tiny"])
def test_shipped_curves_write_the_rows_of_their_fitted_samples(doc):
    # the builtin accuracy models are the ground-truth curves, not fits to
    # their samples; the two agree to a few ulps, which no written row shows
    r = config_from_dict(doc).region
    truth = (TRUE_TEXT_CURVE, TRUE_IMAGE_CURVE)
    fitted = []
    for kind, curve in zip(("text", "image"), truth):
        samples = synthetic_accuracy_samples(kind)
        assert np.array_equal(xi_eval(curve, samples[:, 0]).view(np.uint64),
                              samples[:, 1].view(np.uint64))
        fitted.append(fit_logistic(samples).model)

    def rows(text, image, case):
        levels = np.linspace(r.power_level_lo, r.power_level_hi, r.power_sweep_points)
        grid = default_rate_grid(r, text)
        curves = [noma_rate_region(r, text, image, grid), oma_rate_region(r, text, image, grid),
                  noma_power_region(r, case, text, image, levels),
                  oma_power_region(r, case, text, image, levels)]
        return [",".join(cli._fmt(v) for v in (c.scheme, p.x, p.y, int(p.feasible)))
                for c in curves for p in c.points]

    assert len(r.cases) == 3
    for case in r.cases:
        want = rows(*truth, case)
        assert len(want) == 2 * r.sweep_points + 2 * r.power_sweep_points
        assert rows(*fitted, case) == want, case.name


@pytest.mark.parametrize("command", [["regions", "--case", "high"], ["macs"], ["train-modem"],
                                     ["sweep", "--detector", "sic"]])
def test_requirement_cases_of_one_name_exit_2(tmp_path, capsys, command):
    # a second case of a name could never be selected
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**TINY, "region": {**TINY["region"], "cases": [
        HIGH, MED, {**HIGH, "xi_req_far": 0.65}]}}))
    out = tmp_path / "o"
    assert main([*command, "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "region: cases" in err and "'high'" in err
    assert not out.exists() or not any(out.iterdir())


def test_regions_unknown_case_exits_2(tiny_cfg, tmp_path, capsys):
    assert main(["regions", "--config", tiny_cfg, "--out", str(tmp_path / "o"),
                 "--case", "extreme"]) == 2
    assert "unknown requirement case" in capsys.readouterr().err


def test_regions_all_empty_exits_3(tmp_path, capsys):
    cfg = dict(TINY)
    cfg["region"] = dict(TINY["region"],
                         xi_req_far=0.95,  # above the image accuracy ceiling
                         cases=[{"name": "high", "xi_req_far": 0.95,
                                 "rate_req_near": 0.075, "rate_req_far": 5.0}])
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["regions", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
    assert "empty" in capsys.readouterr().err


def test_regions_accepts_accuracy_csvs(tiny_cfg, tmp_path):
    tc = tmp_path / "text.csv"
    ic = tmp_path / "image.csv"
    write_accuracy_csv(tc, synthetic_accuracy_samples("text"))
    write_accuracy_csv(ic, synthetic_accuracy_samples("image"))
    out = tmp_path / "o"
    assert main(["regions", "--config", tiny_cfg, "--out", str(out),
                 "--text-csv", str(tc), "--image-csv", str(ic)]) == 0
    meta = json.loads((out / "regions_meta.json").read_text())
    assert meta["accuracy_models"]["text"]["source"] == str(tc)


def test_regions_accepts_an_accuracy_csv_with_a_byte_order_mark(tiny_cfg, tmp_path):
    # spreadsheet exports often start with a UTF-8 BOM and end lines in CRLF
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_accuracy_csv(plain, synthetic_accuracy_samples("text", noise=0.01, seed=4))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
    written = []
    for csv in (plain, marked):
        out = tmp_path / csv.stem
        assert main(["regions", "--config", tiny_cfg, "--out", str(out),
                     "--text-csv", str(csv)]) == 0
        written.append((out / "regions.csv").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("row", ["10", "nan,0.5", "0,nan", "inf,0.5", "0,inf"])
def test_regions_bad_accuracy_csv_exits_2(tiny_cfg, tmp_path, capfd, row):
    tc = tmp_path / "text.csv"
    tc.write_text("gamma_db,accuracy\n-10,0.2\n0,0.5\n5,0.7\n10,0.8\n" + row + "\n")
    assert main(["regions", "--config", tiny_cfg, "--out", str(tmp_path / "o"),
                 "--text-csv", str(tc)]) == 2
    out, err = capfd.readouterr()  # file-descriptor level: catches LAPACK's own prints
    assert ("text.csv:6" if row == "10" else "finite") in err
    assert "DLASCL" not in out + err and "SVD" not in out + err
    assert "Traceback" not in err


@pytest.mark.parametrize("gamma_db", ["100.5", "-101", "3000", "4000", "1e300"])
def test_regions_accuracy_row_beyond_the_gamma_range_exits_2(tiny_cfg, tmp_path, capfd,
                                                            gamma_db):
    # 3000 dB once ran the fit into overflow warnings; 4000 dB overflowed
    # the dB conversion itself
    tc = tmp_path / "text.csv"
    tc.write_text("gamma_db,accuracy\n-10,0.2\n0,0.5\n5,0.7\n10,0.8\n"
                  f"{gamma_db},0.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["regions", "--config", tiny_cfg, "--out", str(tmp_path / "o"),
                     "--text-csv", str(tc)]) == 2
    out, err = capfd.readouterr()
    assert "text.csv:6: gamma_db" in err and "[-100, 100] dB" in err
    assert "Traceback" not in err


def test_regions_on_a_falling_accuracy_fit_does_not_warn(tmp_path, capfd):
    # the fit to these rows falls with SNR (c1 < 0), so exp(-(c1 * gamma + c2))
    # overflows in xi_eval wherever the OMA rate objective reads a large SNR;
    # that saturates to the accuracy floor and is no cause for a warning
    ic = tmp_path / "image.csv"
    ic.write_text("gamma_db,accuracy\n-10,0.9\n0,0.7\n10,0.3\n20,0.1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["regions", "--out", str(tmp_path / "o"), "--image-csv", str(ic)]) == 0
    assert capfd.readouterr().err == ""
    meta = json.loads((tmp_path / "o" / "regions_meta.json").read_text())
    assert meta["accuracy_models"]["image"]["c1"] < 0


def test_regions_accuracy_rows_at_the_gamma_limits_load(tiny_cfg, tmp_path):
    tc = tmp_path / "text.csv"
    tc.write_text("gamma_db,accuracy\n-100,0.1\n-10,0.2\n0,0.5\n5,0.7\n10,0.8\n100,0.95\n")
    assert main(["regions", "--config", tiny_cfg, "--out", str(tmp_path / "o"),
                 "--text-csv", str(tc)]) == 0


def _data_rows(tmp_path, name, command, overrides):
    """The rows after the stamp line of command's CSV under TINY plus overrides."""
    cfg = {**TINY, **{section: {**TINY.get(section, {}), **values}
                      for section, values in overrides.items()}}
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert main([*command, "--config", str(p), "--out", str(out)]) == 0
    csv = next(out.glob("*.csv"))
    return csv.read_text().splitlines()[1:]


# requirement-case key -> region.cases under which regions --case high
# writes other rows than under the default cases
CASE_CHANGES = {
    "xi_req_far": [{**HIGH, "xi_req_far": 0.8}],
    "rate_req_near": [{**HIGH, "rate_req_near": 0.085}],
    "rate_req_far": [{**HIGH, "rate_req_far": 5.5}],
    # --case selects by name: the second case here, not the first
    "name": [{**HIGH, "name": "spare"}, {**MED, "name": "high"}],
}
# a setting that does not change what its command writes is dead: every
# link, region and requirement-case key must move the data rows.  On TINY,
# region.xi_req_far up to 0.89 and grid_points 100 or 2048 leave the
# rows as they are
KEY_CHANGES = [
    (["sweep", "--detector", "sic"], {"link": {"rho_near": 0.2, "rho_far": 0.8}}),
    (["sweep", "--detector", "sic"], {"link": {"superposition": "literal"}}),
    (["regions"], {"region": {"gain_near_db": 22.0}}),
    (["regions"], {"region": {"gain_far_db": 18.0}}),
    (["regions"], {"region": {"bandwidth_hz": 13.0}}),
    (["regions"], {"region": {"p_max_watts": 2e6}}),
    (["regions"], {"region": {"xi_req_near": 0.7}}),
    (["regions"], {"region": {"xi_req_far": 0.95}}),  # empties the rate curves
    (["regions"], {"region": {"text_k_symbols": 64}}),
    (["regions"], {"region": {"image_compression": 0.5}}),
    (["regions"], {"region": {"grid_points": 8}}),
    (["regions"], {"region": {"sweep_points": 7}}),
    (["regions"], {"region": {"power_level_lo": 0.65}}),
    (["regions"], {"region": {"power_level_hi": 0.8}}),
    (["regions"], {"region": {"power_sweep_points": 4}}),
    *((["regions"], {"region": {"cases": cases}}) for cases in CASE_CHANGES.values()),
]


def test_key_changes_cover_every_link_key():
    changed = {key for _, doc in KEY_CHANGES for key in doc.get("link", {})}
    assert changed == {f.name for f in dataclasses.fields(LinkSection)}


def test_key_changes_cover_every_region_and_case_key():
    changed = {key for _, doc in KEY_CHANGES for key in doc.get("region", {})}
    assert changed == {f.name for f in dataclasses.fields(RegionSection)}
    assert set(CASE_CHANGES) == {f.name for f in dataclasses.fields(RequirementCase)}


@pytest.mark.parametrize("command, overrides", KEY_CHANGES)
def test_every_link_and_region_channel_key_reaches_the_output(tmp_path, command,
                                                             overrides):
    base = _data_rows(tmp_path, "base", command, {})
    assert _data_rows(tmp_path, "changed", command, overrides) != base


@pytest.mark.parametrize("region", [
    {"bandwidth_hz": bw, "p_max_watts": p_max} for bw in (1e-6, 1e12)
    for p_max in (1e-12, 1e12)] + [
    {"bandwidth_hz": bw, "text_k_symbols": 10**6, "image_compression": 1e-9}
    for bw in (1e-6, 1e12)] + [
    {"cases": [{"name": "high", "xi_req_far": 0.75, "rate_req_near": rate,
                "rate_req_far": rate}]} for rate in (0.0, 1e12)])
def test_regions_runs_at_the_region_bounds(tmp_path, capfd, region):
    # pytest makes numpy's RuntimeWarnings errors, so an overflow fails here
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"region": {**TINY["region"], **region}}))
    assert main(["regions", "--config", str(cfg), "--out", str(tmp_path / "o")]) in (0, 3)
    assert "Traceback" not in capfd.readouterr().err


def test_macs_table_and_stdout(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["macs", "--config", tiny_cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "2178" in stdout and "2146" in stdout and "32" in stdout
    lines = (out / "macs.csv").read_text().splitlines()
    assert lines[1] == "message_length,neural_near,neural_far,sic"
    row = dict(zip(lines[1].split(","), lines[3].split(",")))
    n = int(row["message_length"])
    assert int(row["neural_near"]) == n * 2178
    assert int(row["neural_far"]) == n * 2146
    assert int(row["sic"]) == n * 32


@settings(max_examples=10, deadline=None)
@given(hidden=st.lists(st.integers(1, 48), max_size=4))
def test_macs_from_models_equal_macs_from_the_architecture(hidden):
    # both paths of the macs command, and the weights the model files hold
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps({"train": {"epochs": 1, "dataset_size": 4,
                                             "hidden": hidden}}))
        common = ["--config", str(cfg)]
        assert main(["train-modem", *common, "--out", str(tmp / "m")]) == 0
        assert main(["macs", *common, "--out", str(tmp / "arch")]) == 0
        assert main(["macs", *common, "--out", str(tmp / "models"),
                     "--models", str(tmp / "m")]) == 0
        table = (tmp / "arch" / "macs.csv").read_bytes()
        assert table == (tmp / "models" / "macs.csv").read_bytes()
        row = table.decode().splitlines()[2].split(",")  # message length 1
        for role, column in (("near", 1), ("far", 2)):
            doc = json.loads((tmp / "m" / f"modem_{role}.json").read_text())
            weights = sum(len(w) for w in doc["weights"])
            assert int(row[column]) == weights + len(doc["modulator_weights"])


def test_seed_flag_overrides_config(tiny_cfg, tmp_path):
    out1, out2 = tmp_path / "s0", tmp_path / "s9"
    assert main(["macs", "--config", tiny_cfg, "--out", str(out1)]) == 0
    assert main(["macs", "--config", tiny_cfg, "--seed", "9",
                 "--out", str(out2)]) == 0
    l1 = (out1 / "macs.csv").read_text().splitlines()[0]
    l2 = (out2 / "macs.csv").read_text().splitlines()[0]
    assert l1.endswith("seed=0") and l2.endswith("seed=9")


@pytest.mark.parametrize("command", [["sweep", "--detector", "neural"], ["macs"]])
def test_model_file_without_quantizer_exits_2(tiny_cfg, tmp_path, capfd, command):
    models = tmp_path / "m"
    assert main(["train-modem", "--config", tiny_cfg, "--out", str(models)]) == 0
    doc = json.loads((models / "modem_far.json").read_text())
    del doc["quantizer"]
    (models / "modem_far.json").write_text(json.dumps(doc))
    capfd.readouterr()
    assert main([*command, "--config", tiny_cfg, "--out", str(tmp_path / "o"),
                 "--models", str(models)]) == 2
    err = capfd.readouterr().err
    assert "modem_far.json" in err and "'quantizer'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["sweep", "--detector", "neural"], ["macs"]])
def test_model_files_of_swapped_roles_exit_2(tiny_cfg, tmp_path, capfd, command):
    # each file names its user; a near model under the far name would
    # detect the wrong user's signal
    models = tmp_path / "m"
    assert main(["train-modem", "--config", tiny_cfg, "--out", str(models)]) == 0
    near, far = models / "modem_near.json", models / "modem_far.json"
    near_doc = near.read_text()
    near.write_text(far.read_text())
    far.write_text(near_doc)
    capfd.readouterr()
    assert main([*command, "--config", tiny_cfg, "--out", str(tmp_path / "o"),
                 "--models", str(models)]) == 2
    err = capfd.readouterr().err
    assert "modem_near.json" in err and "far user's model" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "sweep.csv").exists()
    assert not (tmp_path / "o" / "macs.csv").exists()


def test_diverging_training_exits_2_naming_the_stage(tmp_path, capfd):
    cfg = dict(TINY, train=dict(TINY["train"], learning_rate=1e6))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["train-modem", "--config", str(p), "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert "train-modem: training diverged" in err and "epoch" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (out / "modem_near.json").exists()


def test_sweep_draws_every_cell_into_one_of_two_buffer_pairs(tiny_cfg, tmp_path, monkeypatch):
    # a fresh (2, n, 2) and (2, n) pair of draw buffers each cell took about
    # 170,000 minor page faults and 0.2-0.3 s of system time per default
    # sweep --detector both; two pairs, used in turn, keep that memory mapped
    outs = []

    def recording_open_cell(*args, out=None, **kwargs):
        outs.append(out)
        return link.open_cell(*args, out=out, **kwargs)

    monkeypatch.setattr(cli, "open_cell", recording_open_cell)
    assert main(["sweep", "--config", tiny_cfg, "--detector", "sic", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
    assert len(outs) == len(rows) > 2
    assert len({tuple(id(buf) for buf in out) for out in outs}) == 2
    assert all(out is outs[k % 2] for k, out in enumerate(outs))


# name -> (detector, config overrides); the neural cases train a tiny pair
# under the same quant and link sections first
_SWEEP_CASES = {
    "both": ("both", {}),
    "both-rayleigh": ("both", {"sweep": {"kind": "rayleigh", "estimation_error_delta": 0.1}}),
    "both-literal": ("both", {"link": {"superposition": "literal"}}),
    "sic-m1": ("sic", {"quant": {"bits_near": 1, "bits_far": 1}}),
    "sic-m6-rayleigh": ("sic", {"quant": {"bits_near": 6, "bits_far": 6},
                                "sweep": {"kind": "rayleigh", "estimation_error_delta": 0.1}}),
    "sic-m16": ("sic", {"quant": {"bits_near": 16, "bits_far": 16}}),
}


@pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
def test_helper_sweep_equals_the_inline_draw_sweep(tmp_path, monkeypatch, case):
    # every value of every row, exactly: the CSV written with repr
    detector, over = _SWEEP_CASES[case]
    doc = {**TINY, **over, "sweep": {**TINY["sweep"], "n_symbols": 2000, **over.get("sweep", {})}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--detector", detector]
    models = None
    if detector == "both":
        assert main(["train-modem", "--config", str(path), "--out", str(tmp_path / "m")]) == 0
        argv += ["--models", str(tmp_path / "m")]
        models = tuple(modem.load_model(tmp_path / "m" / f"modem_{r}.json")
                       for r in ("near", "far"))
    monkeypatch.setattr(cli, "_fmt", repr)
    assert main(argv) == 0
    got = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[2:]
    detectors = ("neural", "sic") if detector == "both" else (detector,)
    want = oracles.inline_sweep_rows(load_config(str(path)), 0, detectors, models)
    assert len(got) == len(want) == 9 * len(detectors)
    assert got == [",".join(repr(v) for v in row) for row in want]


def test_helper_sweep_under_rapid_thread_switching_equals_the_inline_draw_sweep(
        tmp_path, monkeypatch):
    # 64 short cells with the interpreter switching threads every
    # microsecond: a cell read from a buffer the helper is refilling, or
    # drawn out of turn, would change its row
    doc = {**TINY, "sweep": {"grid_step_db": 4.0, "n_symbols": 500}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "_fmt", repr)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--detector", "sic"]) == 0
    finally:
        sys.setswitchinterval(interval)
    got = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[2:]
    want = oracles.inline_sweep_rows(load_config(str(path)), 0, ("sic",))
    assert len(got) == 64
    assert got == [",".join(repr(v) for v in row) for row in want]


def _perfbench_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_run_on_the_main_thread(tiny_cfg, tmp_path, monkeypatch):
    # the benchmark's tracer keeps one span stack: every function it wraps
    # must stay on the main thread, while the helper draws each cell but
    # the first
    tracing = _perfbench_tracing()
    on_main = collections.defaultdict(set)

    def record(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_main[name].add(threading.current_thread() is threading.main_thread())
            return fn(*args, **kwargs)
        return wrapper

    class ThreadRecorder(tracing.Tracer):
        def span(self, name, fn, quantity=None):
            return record(name, fn)

        def counter(self, name, fn):
            return record(name, fn)

    monkeypatch.setattr(link.CellDraws, "fill", record("fill", link.CellDraws.fill))
    recorder = ThreadRecorder()
    recorder.install(nomalink)
    try:
        models = str(tmp_path / "m")
        assert main(["train-modem", "--config", tiny_cfg, "--out", models]) == 0
        assert main(["sweep", "--config", tiny_cfg, "--out", str(tmp_path / "s"),
                     "--detector", "both", "--models", models]) == 0
    finally:
        recorder.uninstall()
    fills = on_main.pop("fill")
    assert fills == {False}
    assert {"rng.stream_rng", "channel.realize", "channel.transmit", "link.run_link",
            "link.sample_features", "nn.Mlp.sgd_step", "qam.sic_detect"} <= set(on_main)
    assert all(threads == {True} for threads in on_main.values()), dict(on_main)


def test_a_failed_draw_on_the_helper_thread_fails_the_sweep(tiny_cfg, tmp_path, monkeypatch,
                                                            capsys):
    fill = link.CellDraws.fill
    calls = itertools.count()

    def failing_fill(draws):
        if next(calls) == 2:  # the third cell's draws
            raise ValueError("no normals for this cell")
        return fill(draws)

    monkeypatch.setattr(link.CellDraws, "fill", failing_fill)
    capsys.readouterr()
    assert main(["sweep", "--config", tiny_cfg, "--out", str(tmp_path / "o"),
                 "--detector", "sic"]) == 2
    assert capsys.readouterr().err == "error: no normals for this cell\n"
    assert not (tmp_path / "o" / "sweep.csv").exists()


def test_importing_the_cli_leaves_concurrent_futures_unloaded():
    # cmd_sweep imports it when it runs: at import it would cost every
    # command about 6.6 ms of start-up
    src = str(Path(nomalink.__file__).resolve().parents[1])
    code = "import sys, nomalink.cli; sys.exit('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0


# public functions and methods no command enters, each with what keeps it
_UNREACHED_BY_COMMANDS = {
    "quant.dequantize": "perfbench/tracing.py wraps it by name",
    "qam.qam_modulate": "perfbench/tracing.py wraps it by name",
    "qam.QamMap.size": "qam_modulate reads it",
    "qam.PointGrid.__len__": "perfbench/tracing.py sizes nearest_point's grid with len()",
    "srate.write_accuracy_csv": "perfbench/workloads.py writes the regions CSVs with it",
    "srate.synthetic_accuracy_samples": "perfbench/workloads.py makes the noisy regions CSVs "
                                        "with it, and criterion 08 fits it",
}


def _public_code(package):
    """Qualified name -> code object of every function and method (public,
    dunder or property) written in the package's source files."""
    found = {}
    for info in pkgutil.iter_modules(package.__path__):
        if info.name == "__main__":  # runs the command line when imported
            continue
        mod = importlib.import_module(f"{package.__name__}.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                members = {name: obj}
            elif inspect.isclass(obj):
                members = {f"{name}.{attr}": getattr(member, "fget", member)
                           for attr, member in vars(obj).items()
                           if not attr.startswith("_") or attr.endswith("__")}
            else:
                continue
            for qual, fn in members.items():
                # dataclass-made methods are compiled from "<string>"
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename == mod.__file__:
                    found[f"{info.name}.{qual}"] = code
    return found


def test_every_public_function_is_reached_by_a_command(tmp_path):
    # the default requirement cases are built at import; this one is read
    case = {"name": "med", "xi_req_far": 0.68, "rate_req_near": 0.069, "rate_req_far": 4.13}
    rayleigh = {**TINY, "link": {"superposition": "literal"},
                "sweep": {**TINY["sweep"], "kind": "rayleigh", "estimation_error_delta": 0.1},
                "region": {**TINY["region"], "cases": [case]}}
    configs = {}
    for name, doc in (("tiny", TINY), ("rayleigh", rayleigh)):
        configs[name] = str(tmp_path / f"{name}.json")
        Path(configs[name]).write_text(json.dumps(doc))
    csvs = []
    for kind in ("text", "image"):
        csvs.append(str(tmp_path / f"{kind}.csv"))
        write_accuracy_csv(csvs[-1], synthetic_accuracy_samples(kind))
    runs = []
    for name, cfg in configs.items():
        out = str(tmp_path / name)
        runs += [["train-modem", "--config", cfg, "--out", out],
                 ["sweep", "--config", cfg, "--out", out, "--detector", "both"],
                 ["sweep", "--config", cfg, "--out", out, "--detector", "sic"],
                 ["macs", "--config", cfg, "--out", out, "--models", out],
                 ["macs", "--config", cfg, "--out", out]]
    runs += [["regions", "--config", configs["tiny"], "--out", str(tmp_path / "r")],
             ["regions", "--config", configs["rayleigh"], "--out", str(tmp_path / "r"),
              "--case", "med", "--text-csv", csvs[0], "--image-csv", csvs[1]]]

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    threading.setprofile(profile)  # the sweep's helper thread
    sys.setprofile(profile)
    try:
        for argv in runs:
            assert main(argv) == 0, argv
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    public = _public_code(nomalink)
    assert set(_UNREACHED_BY_COMMANDS) <= set(public)
    unreached = {name for name, code in public.items() if code not in entered}
    assert unreached == set(_UNREACHED_BY_COMMANDS)
