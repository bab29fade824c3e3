import json
import tracemalloc

import numpy as np
import pytest

import oracles
from nomalink.config import ExperimentConfig, LinkSection, TrainSection, config_from_dict
from nomalink.modem import (ROLE_FAR, ROLE_NEAR, SUPERPOSE_LITERAL,
                            SUPERPOSE_SQRT, ModemModel, TrainingDivergedError,
                            amplitudes, count_macs, demodulate, load_model,
                            mean_symbol_power, modulate, pair_backward,
                            pair_forward, save_model, stack_hidden,
                            train_modem, tx_symbols, _init_model)
from nomalink.quant import fit_quantizer
from nomalink.rng import stream_rng


@pytest.fixture()
def q22():
    return fit_quantizer(2, 5.0, 1.0)


def _random_pair(q, seed=0):
    near = _init_model(ROLE_NEAR, 2, (6, 5), q, stream_rng(seed, 0, 4))
    far = _init_model(ROLE_FAR, 1, (6, 5), q, stream_rng(seed, 1, 4))
    return near, far


def _train_cfg(**train):
    """The default experiment config with these training settings: both
    quantizers are q22."""
    return ExperimentConfig(train=TrainSection(**train))


def _stacked_pair(q, seed=0):
    near, far = _random_pair(q, seed)
    return stack_hidden(near, far), near, far


def test_amplitudes_conventions():
    a_n, a_f = amplitudes(0.3, 0.7, SUPERPOSE_SQRT)
    assert (a_n, a_f) == pytest.approx((np.sqrt(0.3), np.sqrt(0.7)))
    assert amplitudes(0.3, 0.7, SUPERPOSE_LITERAL) == (0.3, 0.7)
    with pytest.raises(ValueError):
        amplitudes(0.3, 0.7, "weird")


def test_modulator_is_affine(q22):
    near, _ = _random_pair(q22)
    v = np.array([-2.0, 0.0, 3.0])
    s = modulate(v, near)
    # affine in v: s(v) = v * (w0 + j w1) + (b0 + j b1)
    slope = complex(near.mod_w[0], near.mod_w[1])
    inter = complex(near.mod_b[0], near.mod_b[1])
    assert np.allclose(s, v * slope + inter)


def test_normalized_constellation_has_unit_mean_power(q22):
    near, _ = _random_pair(q22)
    near.mean_power = mean_symbol_power(near)
    s = tx_symbols(q22.constellation_deq, near)
    assert np.mean(np.abs(s) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_tx_requires_frozen_power(q22):
    near, _ = _random_pair(q22)
    with pytest.raises(ValueError):
        tx_symbols(np.array([0.0]), near)
    near.mean_power = 0.0
    with pytest.raises(ValueError, match="positive"):
        tx_symbols(np.array([0.0]), near)


def test_pair_forward_loss_decomposition(q22):
    # raw losses equal hand-computed squared errors; scaled divide by variance
    hidden, near, far = _stacked_pair(q22, seed=1)
    rng = stream_rng(9)
    vn = q22.constellation_deq[rng.integers(0, 4, size=8)]
    vf = q22.constellation_deq[rng.integers(0, 4, size=8)]
    noise_n = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) * 0.05
    noise_f = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) * 0.05
    amp_n, amp_f = amplitudes(0.3, 0.7)
    losses, _ = pair_forward(hidden, near, far, vn, vf, amp_n, amp_f,
                             (1.0, 1.0, noise_n), (1.0, 1.0, noise_f))

    def norm_tx(model, v):
        raw = modulate(v, model)
        return raw / np.sqrt(np.mean(np.abs(modulate(q22.constellation_deq, model)) ** 2))

    x = amp_n * norm_tx(near, vn) + amp_f * norm_tx(far, vf)
    out_n = demodulate(x + noise_n, near)
    out_f = demodulate(x + noise_f, far)
    want_near = np.mean((out_n[:, 0] - vn) ** 2) + np.mean((out_n[:, 1] - vf) ** 2)
    want_far = np.mean((out_f[:, 0] - vf) ** 2)
    assert losses.near == pytest.approx(want_near, rel=1e-12)
    assert losses.far == pytest.approx(want_far, rel=1e-12)
    var = q22.variance
    assert losses.near_scaled == pytest.approx(want_near / var, rel=1e-12)
    assert losses.far_scaled == pytest.approx(want_far / var, rel=1e-12)


def test_pair_backward_matches_finite_differences(q22):
    hidden, near, far = _stacked_pair(q22, seed=2)
    rng = stream_rng(11)
    vn = q22.constellation_deq[rng.integers(0, 4, size=5)]
    vf = q22.constellation_deq[rng.integers(0, 4, size=5)]
    # mismatched channel estimate exercises the conj(h / h_hat) chain rule
    chan_n = (0.9 - 0.2j, 0.85 - 0.16j, 0.03 * rng.standard_normal(5) + 0.01j)
    chan_f = (1.1 + 0.4j, 1.02 + 0.44j, 0.03 * rng.standard_normal(5) - 0.02j)
    amp_n, amp_f = amplitudes(0.3, 0.7)

    def near_loss():
        losses, _ = pair_forward(hidden, near, far, vn, vf, amp_n, amp_f, chan_n, chan_f)
        return losses.near_scaled

    def far_loss():
        losses, _ = pair_forward(hidden, near, far, vn, vf, amp_n, amp_f, chan_n, chan_f)
        return losses.far_scaled

    _, cache = pair_forward(hidden, near, far, vn, vf, amp_n, amp_f, chan_n, chan_f)
    (gW, _), (gw_n, gb_n, _), (gw_f, gb_f, (gW_f_out, _)) = \
        pair_backward(hidden, near, far, cache)
    gW_n = [W[0] for W in gW]  # the near slices of the stacked hidden layers

    assert np.allclose(gw_n, oracles.fd_gradient(near_loss, near.mod_w), rtol=1e-5, atol=1e-8)
    assert np.allclose(gb_n, oracles.fd_gradient(near_loss, near.mod_b), rtol=1e-5, atol=1e-8)
    assert np.allclose(gw_f, oracles.fd_gradient(far_loss, far.mod_w), rtol=1e-5, atol=1e-8)
    assert np.allclose(gb_f, oracles.fd_gradient(far_loss, far.mod_b), rtol=1e-5, atol=1e-8)
    assert np.allclose(gW_n[0], oracles.fd_gradient(near_loss, near.demod.W[0]),
                       rtol=1e-5, atol=1e-8)
    assert np.allclose(gW_f_out, oracles.fd_gradient(far_loss, far.demod.W[-1]),
                       rtol=1e-5, atol=1e-8)


def test_training_reduces_loss_and_freezes_power(q22):
    near, far, trace = train_modem(_train_cfg(epochs=120, dataset_size=16), 1)
    assert trace.shape == (120, 2)
    # epoch-mean raw losses drop by an order of magnitude from the start
    assert trace[-1, 0] < 0.1 * trace[0, 0]
    assert trace[-1, 1] < 0.1 * trace[0, 1]
    assert near.mean_power is not None and far.mean_power is not None
    assert near.input_clip_radius is not None
    s = tx_symbols(q22.constellation_deq, near)
    assert np.mean(np.abs(s) ** 2) == pytest.approx(1.0, abs=1e-9)


def test_training_is_deterministic():
    cfg = _train_cfg(epochs=20, dataset_size=8)
    n1, f1, t1 = train_modem(cfg, 3)
    n2, f2, t2 = train_modem(cfg, 3)
    assert np.array_equal(t1, t2)
    assert np.array_equal(n1.mod_w, n2.mod_w)
    assert np.array_equal(f1.demod.W[0], f2.demod.W[0])


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


# name -> config document; every case trains 12 epochs
_SERIAL_CASES = {
    "awgn-sqrt": {},
    "rayleigh-literal": {"link": {"superposition": SUPERPOSE_LITERAL},
                         "train": {"learning_rate": 0.02},
                         "sweep": {"kind": "rayleigh", "estimation_error_delta": 0.1}},
    "bits-3-1": {"quant": {"bits_near": 3, "bits_far": 1}},
    "hidden-16-4": {"train": {"hidden": [16, 4]}},
    "hidden-none": {"train": {"hidden": []}},
}


@pytest.mark.parametrize("case", sorted(_SERIAL_CASES))
def test_stacked_training_equals_the_per_user_steps_bit_for_bit(case):
    # train_modem runs both users' hidden layers as one stack; the oracle
    # steps each user's network on its own with 2-D products
    doc = dict(_SERIAL_CASES[case])
    doc["train"] = {"epochs": 12, **doc.get("train", {})}
    cfg = config_from_dict(doc)
    near, far, trace = train_modem(cfg, 5)
    q_n, q_f = near.quantizer, far.quantizer
    (ref_n, ref_f), ref_trace = oracles.per_user_training(cfg, 5, q_n, q_f)
    assert np.array_equal(_bits(trace), _bits(ref_trace))
    for model, ref in ((near, ref_n), (far, ref_f)):
        got = [model.mod_w, model.mod_b, *model.demod.W, *model.demod.b]
        want = [ref["mod_w"], ref["mod_b"], *ref["W"], *ref["b"]]
        assert [a.shape for a in got] == [a.shape for a in want]
        assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(got, want))


def test_save_load_round_trip(tmp_path):
    near, _, _ = train_modem(_train_cfg(epochs=15, dataset_size=8), 4)
    path = tmp_path / "near.json"
    save_model(near, path)
    back = load_model(path)
    assert back.role == ROLE_NEAR
    assert np.array_equal(back.mod_w, near.mod_w)
    assert back.mean_power == near.mean_power
    assert back.input_clip_radius == near.input_clip_radius
    assert len(back.demod.W) == len(back.demod.b) == len(near.demod.W)
    for a, b in zip((*back.demod.W, *back.demod.b), (*near.demod.W, *near.demod.b)):
        assert np.array_equal(a, b)
    # byte-identical re-serialization
    path2 = tmp_path / "again.json"
    save_model(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_load_keeps_the_sign_of_negative_zero(tmp_path, q22):
    # np.array_equal(-0.0, 0.0) holds, so the weights are compared as bits
    near, _ = _random_pair(q22)
    near.mean_power = 1.0
    groups = (near.mod_w, near.mod_b, *near.demod.W, *near.demod.b)
    for a in groups:
        a.flat[0] = -0.0
    save_model(near, tmp_path / "near.json")
    back = load_model(tmp_path / "near.json")
    for a, b in zip(groups, (back.mod_w, back.mod_b, *back.demod.W, *back.demod.b)):
        assert np.array_equal(_bits(a), _bits(b))


def test_save_refuses_unfrozen_model(tmp_path, q22):
    near, _ = _random_pair(q22)
    with pytest.raises(ValueError):
        save_model(near, tmp_path / "nope.json")


def test_load_rejects_foreign_json(tmp_path):
    p = tmp_path / "other.json"
    p.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_model(p)


def _saved_doc(tmp_path, q22):
    near, _ = _random_pair(q22)
    near.mean_power = 1.0
    path = tmp_path / "near.json"
    save_model(near, path)
    return json.loads(path.read_text())


@pytest.mark.parametrize("key", ["role", "widths", "weights", "biases",
                                 "modulator_weights", "modulator_biases",
                                 "mean_power", "input_clip_radius", "quantizer"])
def test_load_names_file_and_missing_key(tmp_path, q22, key):
    doc = _saved_doc(tmp_path, q22)
    del doc[key]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"broken.json.*'{key}'"):
        load_model(path)


@pytest.mark.parametrize("edit, key", [
    (lambda d: d["weights"][1].pop(), "weights\\[1\\]"),
    (lambda d: d["biases"].pop(), "biases"),
    (lambda d: d["biases"][0].append(0.5), "biases\\[0\\]"),
    (lambda d: d["weights"][0].__setitem__(0, "x"), "weights\\[0\\]"),
    (lambda d: d["widths"].__setitem__(1, 7), "weights\\[0\\]"),
    (lambda d: d["widths"].__setitem__(0, 3), "widths"),
    (lambda d: d["modulator_weights"].append(1.0), "modulator_weights"),
    (lambda d: d.__setitem__("mean_power", -1.0), "mean_power"),
    (lambda d: d.__setitem__("input_clip_radius", "far"), "input_clip_radius"),
    (lambda d: d.__setitem__("role", "middle"), "role"),
    (lambda d: d["quantizer"].pop("s"), "quantizer.s"),
    (lambda d: d["quantizer"].__setitem__("m", 2.5), "quantizer.m"),
    (lambda d: d["quantizer"].__setitem__("m", 17), "quantizer"),
])
def test_load_rejects_malformed_model(tmp_path, q22, edit, key):
    doc = _saved_doc(tmp_path, q22)
    edit(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"broken.json.*'{key}'"):
        load_model(path)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="garbage.json"):
        load_model(path)


def test_count_macs_default_architecture(q22):
    near, far = _random_pair(q22)
    # these use hidden (6, 5); the shipped architecture is checked elsewhere
    assert count_macs(near) == 2 + 2 * 6 + 6 * 5 + 5 * 2
    assert count_macs(far) == 2 + 2 * 6 + 6 * 5 + 5 * 1


def test_demodulate_clips_large_inputs(q22):
    near, _ = _random_pair(q22)
    near.input_clip_radius = 1.0
    big = np.array([100.0 + 0.0j])
    small = np.array([1.0 + 0.0j])
    assert np.allclose(demodulate(big, near), demodulate(small, near))


def _shipped_near(q22):
    return _init_model(ROLE_NEAR, 2, (32, 32, 32), q22, stream_rng(0, 0, 4))


def test_demodulate_equals_training_forward_bit_for_bit(q22):
    near = _shipped_near(q22)
    near.input_clip_radius = 3.0
    y = stream_rng(5).standard_normal(20000) + 1j * stream_rng(6).standard_normal(20000)
    got = demodulate(y, near)
    mag = np.abs(y)
    y = y * np.where(mag > 3.0, 3.0 / np.maximum(mag, 1e-300), 1.0)
    want, _ = near.demod.forward(np.stack([y.real, y.imag], axis=1))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _clip_then_stack(received, model):
    """demodulate as it was: every row scaled, (re, im) stacked into a copy."""
    y = np.atleast_1d(np.asarray(received, dtype=complex))
    if model.input_clip_radius is not None:
        mag = np.abs(y)
        scale = np.where(mag > model.input_clip_radius,
                         model.input_clip_radius / np.maximum(mag, 1e-300), 1.0)
        y = y * scale
    return model.demod.infer(np.stack([y.real, y.imag], axis=1))


def _receive_cases():
    z = stream_rng(9).standard_normal((6000, 2)) @ np.array([1.0, 1.0j])
    inside = z / (1.0 + np.abs(z).max())          # every row below radius 3
    signed_zeros = np.array([complex(a, b) for a in (0.0, -0.0, 1.5) for b in (0.0, -0.0, -2.0)])
    wide = 4.0 * z
    return {
        "all_inside": 2.9 * inside,
        "some_outside": 2.0 * z,
        "at_radius": np.concatenate([inside, [3.0, -3.0, 3.0j, -3.0j, 3.0 * np.exp(0.3j)]]),
        "nonfinite": np.concatenate([2.0 * z, [complex(np.nan, 0.0), complex(0.0, np.nan),
                                               complex(np.inf, 0.0), complex(-np.inf, 1.0),
                                               complex(0.5, np.inf), complex(np.nan, np.inf)]]),
        "signed_zeros": np.concatenate([inside, signed_zeros]),
        "signed_zeros_outside": np.concatenate([wide, signed_zeros]),
        "strided_inside": inside[::3],
        "strided_outside": wide[1::2],
    }


@pytest.mark.parametrize("case", list(_receive_cases()))
@pytest.mark.parametrize("radius", [3.0, None])
def test_demodulate_equals_clip_then_stack_bit_for_bit(q22, case, radius):
    near = _shipped_near(q22)
    near.input_clip_radius = radius
    y = _receive_cases()[case]
    with np.errstate(invalid="ignore"):  # inf rows scale to inf * 0
        got, want = demodulate(y, near), _clip_then_stack(y, near)
    assert got.shape == want.shape == (len(y), 2)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_demodulate_peak_memory_is_bounded(q22):
    # the training forward kept every layer's (20000, 32) input alive: ~23 MB
    near = _shipped_near(q22)
    near.input_clip_radius = 3.0
    y = stream_rng(5).standard_normal(20000) + 1j * stream_rng(6).standard_normal(20000)
    tracemalloc.start()
    try:
        demodulate(y, near)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_train_divergence_raises_without_numpy_warnings():
    # RuntimeWarnings are errors in this suite, so an overflow would surface
    # here as a warning instead of the named error
    cfg = _train_cfg(epochs=3, dataset_size=8, learning_rate=1e6)
    with pytest.raises(TrainingDivergedError, match="epoch"):
        train_modem(cfg, 0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        LinkSection(rho_near=0.6, rho_far=0.4)  # near above far
    with pytest.raises(ValueError):
        LinkSection(rho_near=0.5, rho_far=0.6)  # does not sum to 1
    with pytest.raises(ValueError):
        TrainSection(batch_size=100, dataset_size=10)
    with pytest.raises(ValueError):
        TrainSection(learning_rate=0.0)


def test_stack_hidden_makes_each_model_a_view_of_the_stack(q22):
    near, far = _random_pair(q22, seed=3)
    before = [[a.copy() for a in (*m.demod.W, *m.demod.b)] for m in (near, far)]
    hidden = stack_hidden(near, far)
    assert hidden.widths == [2, 6, 5] and len(hidden.W) == 2
    assert [W.shape for W in hidden.W] == [(2, 2, 6), (2, 6, 5)]
    assert [b.shape for b in hidden.b] == [(2, 1, 6), (2, 1, 5)]
    for k, (model, values) in enumerate(zip((near, far), before)):
        # the values are unchanged, the hidden arrays are slices of the stack
        assert all(np.array_equal(a, v) for a, v in
                   zip((*model.demod.W, *model.demod.b), values))
        for W, Ws in zip(model.demod.W[:-1], hidden.W):
            assert np.shares_memory(W, Ws) and W.flags.c_contiguous
    hidden.W[0][1] += 1.0  # an update of the stack is the far model's
    assert np.array_equal(far.demod.W[0], before[1][0] + 1.0)
    assert np.array_equal(near.demod.W[0], before[0][0])


def test_stack_hidden_needs_equal_hidden_widths(q22):
    near = _init_model(ROLE_NEAR, 2, (6, 5), q22, stream_rng(0, 0, 4))
    far = _init_model(ROLE_FAR, 1, (6, 4), q22, stream_rng(0, 1, 4))
    with pytest.raises(ValueError, match="hidden widths"):
        stack_hidden(near, far)
    near = _init_model(ROLE_NEAR, 2, (), q22, stream_rng(0, 0, 4))
    far = _init_model(ROLE_FAR, 1, (), q22, stream_rng(0, 1, 4))
    assert stack_hidden(near, far) is None
