import collections
import dataclasses
import json
import resource
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomalink import cli, link, modem, qam, quant
from nomalink.cli import main
from nomalink.config import LinkSection
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


# a setting that does not change what its command writes is dead: every
# link key and the region analysis's channel keys must move the data rows
KEY_CHANGES = [
    (["sweep", "--detector", "sic"], {"link": {"rho_near": 0.2, "rho_far": 0.8}}),
    (["sweep", "--detector", "sic"], {"link": {"superposition": "literal"}}),
    (["regions"], {"region": {"gain_near_db": 22.0}}),
    (["regions"], {"region": {"gain_far_db": 18.0}}),
    (["regions"], {"region": {"bandwidth_hz": 13.0}}),
    (["regions"], {"region": {"p_max_watts": 2e6}}),
]


def test_key_changes_cover_every_link_key():
    changed = {key for _, doc in KEY_CHANGES for key in doc.get("link", {})}
    assert changed == {f.name for f in dataclasses.fields(LinkSection)}


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


def _sweep_twice(cfg, models, tmp_path, capsys):
    """sweep --detector both twice through main: the second run's minor
    page faults, both runs' sweep.csv bytes and what they printed."""
    argv = ["sweep", "--config", cfg, "--models", str(models), "--detector", "both"]
    capsys.readouterr()
    csvs, faults = [], None
    for k in range(2):
        out = tmp_path / f"sweep{k}"
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main([*argv, "--out", str(out)]) == 0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        csvs.append((out / "sweep.csv").read_bytes())
    printed = capsys.readouterr()
    return faults, csvs, printed.out, printed.err


@pytest.fixture()
def fault_case(tmp_path):
    """A tiny trained pair and a 3 x 3 sweep of 20,000 symbols a cell: each
    cell's inference buffer (20,000 x 32 float64, 4.9 MiB) is above glibc's
    default mmap threshold."""
    cfg = tmp_path / "faults.json"
    cfg.write_text(json.dumps(dict(TINY, sweep=dict(TINY["sweep"], n_symbols=20000))))
    models = tmp_path / "m"
    assert main(["train-modem", "--config", str(cfg), "--out", str(models)]) == 0
    return str(cfg), models


@pytest.mark.skipif(cli._libc_mallopt() is None, reason="the C library has no mallopt")
def test_repeated_sweep_does_not_fault_its_heap_back_in(fault_case, tmp_path, capsys):
    # with glibc's default thresholds each cell mmaps its largest arrays and
    # the heap top goes back to the kernel between cells: 16k-18k minor
    # faults in the second sweep; under main's allocator policy a handful
    faults, csvs, _, _ = _sweep_twice(*fault_case, tmp_path, capsys)
    assert faults < 1000
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("has_mallopt", [False, True], ids=["no-mallopt", "mallopt-rejects"])
def test_sweep_without_the_allocator_policy_is_unchanged(fault_case, tmp_path, capsys,
                                                         monkeypatch, has_mallopt):
    expected = _sweep_twice(*fault_case, tmp_path, capsys)
    calls = []

    def rejecting_mallopt(param, value):
        calls.append((param, value))
        return 0

    monkeypatch.setattr(cli, "_libc_mallopt",
                        lambda: rejecting_mallopt if has_mallopt else None)
    got = _sweep_twice(*fault_case, tmp_path, capsys)
    assert got[1:] == expected[1:]  # sweep.csv bytes, stdout and stderr
    assert calls == (2 * list(cli._ALLOCATOR_POLICY) if has_mallopt else [])
