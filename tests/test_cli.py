import json

import pytest

from nomalink.cli import main
from nomalink.srate import FIT_MAX_ITERS

TINY = {
    "seed": 0,
    "train": {"epochs": 40, "dataset_size": 16},
    "sweep": {"grid_step_db": 14.0, "n_symbols": 300},
    "region": {"grid_points": 128, "sweep_points": 5, "power_sweep_points": 3},
}


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
        assert mm["source"] == "builtin-synthetic"
        assert mm["residual_rms"] < 0.01
        assert isinstance(mm["iterations"], int)
        assert 0 < mm["iterations"] < FIT_MAX_ITERS


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
    from nomalink.srate import synthetic_accuracy_samples, write_accuracy_csv
    tc = tmp_path / "text.csv"
    ic = tmp_path / "image.csv"
    write_accuracy_csv(tc, synthetic_accuracy_samples("text"))
    write_accuracy_csv(ic, synthetic_accuracy_samples("image"))
    out = tmp_path / "o"
    assert main(["regions", "--config", tiny_cfg, "--out", str(out),
                 "--text-csv", str(tc), "--image-csv", str(ic)]) == 0
    meta = json.loads((out / "regions_meta.json").read_text())
    assert meta["accuracy_models"]["text"]["source"] == str(tc)


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
