"""Loader fuzzing through cli.main: configs, model files and accuracy CSVs.

Every generated config and model file is invalid by construction, so
each must end in exit code 2 with an error line; accuracy CSVs are
arbitrary bytes or edits of the shipped format, which may still load.
Any exception escaping main (a traceback for a user) fails the test.
"""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import typing
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nomalink.cli import main
from nomalink.config import ExperimentConfig
from nomalink.srate import synthetic_accuracy_samples, write_accuracy_csv

TINY_TRAIN = {"train": {"epochs": 5, "dataset_size": 16}}


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _fields(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


# ---- configs ---------------------------------------------------------------

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                 st.lists(st.integers(), min_size=1, max_size=2),
                 st.dictionaries(st.text(max_size=3), st.integers(), max_size=1))
WRONG_TYPE = {
    float: st.one_of(JUNK.filter(lambda v: not isinstance(v, (int, float))
                                 or isinstance(v, bool)),
                     NON_FINITE, st.integers(min_value=2**1024, max_value=2**1030)),
    int: st.one_of(JUNK.filter(lambda v: not isinstance(v, int) or isinstance(v, bool)),
                   st.floats()),
    str: st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                   st.lists(st.text(max_size=2), min_size=1, max_size=2)),
    tuple: st.one_of(st.none(), st.integers(), st.text(max_size=3),
                     st.lists(st.one_of(st.text(max_size=2), st.floats(), st.none()),
                              min_size=1, max_size=2)),
}

BEYOND_DB = st.floats(100.0, 1e300, exclude_min=True) | st.floats(-1e300, -100.0,
                                                                  exclude_max=True)
OUTSIDE_UNIT = st.floats(-1e300, 0.0) | st.floats(1.0, 1e300)
# values each key's checks must refuse, the rest of the document default
OUT_OF_RANGE = {
    **{key: BEYOND_DB for key in ("train.snr_train_near_db", "train.snr_train_far_db",
                                  "region.gain_near_db", "region.gain_far_db")},
    "seed": st.integers(max_value=-1) | st.integers(min_value=2**64, max_value=2**70),
    "schema": st.integers(-5, 5).filter(lambda v: v != 1),
    "quant.bits_near": st.integers(max_value=0) | st.integers(min_value=17),
    "quant.bits_far": st.integers(max_value=0) | st.integers(min_value=17),
    "quant.bound_s": st.floats(-1e300, 1.0),
    "quant.bound_d": st.floats(-1e300, 0.0) | st.floats(5.0, 1e300),
    "link.rho_near": st.floats(-1e300, 0.0) | st.floats(0.31, 1e300),
    "link.rho_far": st.floats(-1e300, 0.69) | st.floats(1.0, 1e300),
    "link.superposition": st.text(max_size=8).filter(lambda v: v not in ("sqrt", "literal")),
    "train.epochs": st.integers(max_value=0) | st.integers(min_value=10**6 + 1),
    "train.batch_size": st.integers(max_value=0) | st.integers(min_value=65),
    "train.learning_rate": st.floats(-1e300, 0.0),
    "train.dataset_size": st.integers(max_value=3) | st.integers(min_value=10**5 + 1),
    "train.hidden": st.lists(st.integers(1, 64), max_size=2).flatmap(
        lambda ok: (st.integers(max_value=0) | st.integers(min_value=257)).map(
            lambda bad: [*ok, bad])) | st.lists(st.integers(1, 64), min_size=9, max_size=12),
    "sweep.snr_near_lo_db": st.floats(28.0, 1e300, exclude_min=True),
    "sweep.snr_near_hi_db": st.floats(-1e300, 0.0, exclude_max=True),
    "sweep.snr_far_lo_db": st.floats(20.0, 1e300, exclude_min=True),
    "sweep.snr_far_hi_db": st.floats(-1e300, -8.0, exclude_max=True),
    # the default ranges hold over 100,000 cells below a step of 0.088 dB
    "sweep.grid_step_db": st.floats(-1e300, 0.0) | st.floats(5e-324, 0.08),
    "sweep.n_symbols": st.integers(max_value=0) | st.integers(min_value=10**6 + 1),
    "sweep.kind": st.text(max_size=8).filter(lambda v: v not in ("awgn", "rayleigh")),
    "sweep.estimation_error_delta": st.floats(-1e300, 0.0, exclude_max=True),
    "region.grid_points": st.integers(max_value=7) | st.integers(min_value=65_537),
    "region.sweep_points": st.integers(max_value=1) | st.integers(min_value=1025),
    "region.power_sweep_points": st.integers(max_value=1) | st.integers(min_value=1025),
    "region.text_k_symbols": st.integers(max_value=0) | st.integers(min_value=10**6 + 1),
    "region.image_compression": st.floats(-1e300, 0.0) | st.floats(1.0, 1e300,
                                                                    exclude_min=True),
    "region.bandwidth_hz": st.floats(-1e300, 1e-6, exclude_max=True)
    | st.floats(1e12, 1e300, exclude_min=True),
    "region.p_max_watts": st.floats(-1e300, 1e-12, exclude_max=True)
    | st.floats(1e12, 1e300, exclude_min=True),
    **{key: OUTSIDE_UNIT for key in ("region.xi_req_near", "region.xi_req_far")},
    # the default levels are 0.6..0.84
    "region.power_level_lo": st.floats(-1e300, 0.0) | st.floats(0.84, 1e300, exclude_min=True),
    "region.power_level_hi": st.floats(-1e300, 0.6, exclude_max=True) | st.floats(1.0, 1e300),
    "region.cases": st.one_of(
        st.fixed_dictionaries({"xi_req_far": OUTSIDE_UNIT}),
        *(st.fixed_dictionaries({key: st.floats(-1e300, -1e-300)
                                 | st.floats(1e12, 1e300, exclude_min=True)})
          for key in ("rate_req_near", "rate_req_far"))).map(lambda case: [case]),
}


def _set(doc: dict, dotted: str, value) -> dict:
    *sections, key = dotted.split(".")
    node = doc
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = value
    return doc


@st.composite
def bad_configs(draw):
    kind = draw(st.sampled_from(["type", "range", "unknown", "shape"]))
    if kind == "range":
        key = draw(st.sampled_from(sorted(OUT_OF_RANGE)))
        return _set({}, key, draw(OUT_OF_RANGE[key]))
    sections = {name: t for name, t in _fields(ExperimentConfig).items()
                if dataclasses.is_dataclass(t)}
    section = draw(st.sampled_from([None, *sorted(sections)]))
    fields = _fields(sections[section]) if section else {
        name: t for name, t in _fields(ExperimentConfig).items() if name not in sections}
    if kind == "unknown":
        key = draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in fields
                                                           and k not in sections))
        return _set({}, f"{section}.{key}" if section else key, draw(JUNK))
    if kind == "shape":  # a section or the whole document that is no object
        junk = draw(JUNK.filter(lambda v: not isinstance(v, dict)))
        return {section: junk} if section else junk
    key = draw(st.sampled_from(sorted(fields)))
    # tuple[int, ...] and tuple[RequirementCase, ...] draw from the tuple entry
    wrong = WRONG_TYPE[typing.get_origin(fields[key]) or fields[key]]
    return _set({}, f"{section}.{key}" if section else key, draw(wrong))


@settings(max_examples=300, deadline=None)
@given(doc=bad_configs())
def test_fuzzed_bad_configs_exit_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, err = _run(["macs", "--config", str(cfg), "--out", str(Path(tmp) / "o")])
    assert code == 2, doc
    assert err.startswith("error: ") and "Traceback" not in err


@settings(max_examples=50, deadline=None)
@given(raw=st.binary(min_size=1, max_size=40))
def test_fuzzed_config_bytes_never_escape(raw):
    # arbitrary bytes, invalid UTF-8 included: valid documents pass, all
    # others exit 2
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_bytes(raw)
        code, err = _run(["macs", "--config", str(cfg), "--out", str(Path(tmp) / "o")])
    assert code in (0, 2)
    assert (code == 2) == err.startswith("error: ")


# ---- model files -----------------------------------------------------------

@pytest.fixture(scope="module")
def model_docs(tmp_path_factory):
    """The two model files of a short training run, as parsed JSON."""
    out = tmp_path_factory.mktemp("models")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps(TINY_TRAIN))
    assert _run(["train-modem", "--config", str(cfg), "--out", str(out)])[0] == 0
    return {role: json.loads((out / f"modem_{role}.json").read_text())
            for role in ("near", "far")}


NUMBERS_BAD = st.one_of(JUNK, NON_FINITE)
# per key: values load_model must refuse (null is a valid clip radius)
BAD_MODEL_VALUES = {
    "format": st.one_of(JUNK, st.text(max_size=20)),
    "role": st.one_of(JUNK, st.text(max_size=6)).filter(lambda v: v not in ("near", "far")),
    "widths": st.one_of(JUNK, st.lists(st.integers(-2, 40), max_size=5)),
    "weights": st.one_of(JUNK, st.lists(st.lists(st.floats(), max_size=3), max_size=4)),
    "biases": st.one_of(JUNK, st.lists(st.lists(st.floats(), max_size=3), max_size=4)),
    # (JUNK's integer pairs would be valid modulator parameters)
    "modulator_weights": st.one_of(NUMBERS_BAD.filter(lambda v: not isinstance(v, list)),
                                   st.lists(st.floats(), max_size=1),
                                   st.tuples(st.floats(), NON_FINITE).map(list)),
    "modulator_biases": st.one_of(NUMBERS_BAD.filter(lambda v: not isinstance(v, list)),
                                  st.lists(st.floats(), min_size=3, max_size=4)),
    "mean_power": st.one_of(NUMBERS_BAD, st.floats(-1e300, 0.0)),
    "input_clip_radius": st.one_of(NUMBERS_BAD.filter(lambda v: v is not None),
                                   st.floats(-1e300, 0.0)),
    "quantizer": st.one_of(
        JUNK,
        st.fixed_dictionaries({"m": st.integers(-3, 0) | st.integers(17, 40) | NUMBERS_BAD,
                               "s": st.just(5.0), "d": st.just(1.0)}),
        st.fixed_dictionaries({"m": st.just(2), "s": st.just(5.0),
                               "d": st.floats(5.0, 1e300) | NUMBERS_BAD})),
}


@st.composite
def bad_model_files(draw, docs):
    role = draw(st.sampled_from(["near", "far"]))
    doc = json.loads(json.dumps(docs[role]))
    kind = draw(st.sampled_from(["drop", "value", "truncate", "bytes"]))
    if kind == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "value":
        key = draw(st.sampled_from(sorted(BAD_MODEL_VALUES)))
        value = draw(BAD_MODEL_VALUES[key])
        assume(value != doc[key])
        doc[key] = value
    text = json.dumps(doc).encode()
    if kind == "truncate":  # any strict prefix that drops the closing brace
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif kind == "bytes":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x00{"])) + text[at:]
    return role, text


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_bad_model_files_exit_2(model_docs, data):
    role, text = data.draw(bad_model_files(model_docs))
    with tempfile.TemporaryDirectory() as tmp:
        models = Path(tmp)
        for r, doc in model_docs.items():
            (models / f"modem_{r}.json").write_text(json.dumps(doc))
        (models / f"modem_{role}.json").write_bytes(text)
        code, err = _run(["macs", "--models", str(models), "--out", str(models / "o")])
    assert code == 2, text[:200]
    assert err.startswith("error: ") and "Traceback" not in err


# ---- accuracy CSVs -----------------------------------------------------------

@pytest.fixture(scope="module")
def csv_lines(tmp_path_factory):
    """The shipped text samples in the format the loader reads."""
    path = tmp_path_factory.mktemp("csv") / "text.csv"
    write_accuracy_csv(path, synthetic_accuracy_samples("text"))
    return path.read_text().splitlines(keepends=True)


CSV_CELLS = st.one_of(
    st.floats().map(repr), st.text(max_size=6),
    st.integers(-10**400, 10**400).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "", " ", "0x1",
                     "1_0", '"0.5"', "100", "100.0001", "-100", "1", "0", "-0"]))


@st.composite
def mutated_csvs(draw, lines):
    """The shipped CSV with a few rows edited, dropped, duplicated or
    reordered, cells replaced or added, or bytes inserted."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["cell", "drop", "dup", "swap", "extra", "bytes",
                                   "comment", "blank"]))
        at = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if op == "cell" and lines:
            cells = lines[at].rstrip("\r\n").split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(CSV_CELLS)
            lines[at] = ",".join(cells) + "\n"
        elif op == "drop" and lines:
            del lines[at]
        elif op == "dup" and lines:
            lines.insert(at, lines[at])
        elif op == "swap" and len(lines) > 1:
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
        elif op == "extra" and lines:
            lines[at] = lines[at].rstrip("\r\n") + "," + draw(CSV_CELLS) + "\n"
        elif op == "comment":
            lines.insert(at, "#" + draw(st.text(max_size=5)) + "\n")
        elif op == "blank":
            lines.insert(at, draw(st.sampled_from(["\n", "\r\n", ",\n", " , \n"])))
    raw = "".join(lines).encode("utf-8", "surrogatepass")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x00", b'"', b"\r"])) + raw[at:]
    return raw


def _regions_with_text_csv(raw: bytes) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "text.csv"
        csv.write_bytes(raw)
        return _run(["regions", "--text-csv", str(csv), "--out", str(Path(tmp) / "o")])


@settings(max_examples=60, deadline=None)
@given(raw=st.binary(max_size=60))
def test_fuzzed_accuracy_csv_bytes_never_escape(raw):
    code, err = _regions_with_text_csv(raw)
    assert code in (0, 2), raw
    assert (code == 2) == err.startswith("error: ") and "Traceback" not in err
    assert code == 0 or "text.csv" in err


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_accuracy_csv_rows_never_escape(csv_lines, data):
    raw = data.draw(mutated_csvs(csv_lines))
    code, err = _regions_with_text_csv(raw)
    # a CSV that still loads may fit a curve under which no region point is
    # feasible: exit 3, the documented "all region curves empty"
    assert code in (0, 2, 3), raw
    assert (code == 2) == err.startswith("error: ") and "Traceback" not in err
    assert code != 2 or "text.csv" in err
