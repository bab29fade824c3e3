import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nomalink import qam
from nomalink.config import LinkSection
from nomalink.qam import (detect_far, make_qam, nearest_point, point_grid,
                          qam_modulate, sic_detect, sic_macs_per_symbol)
from nomalink.quant import fit_quantizer
from nomalink.rng import stream_rng

# the (near, far) amplitudes of the 0.3 / 0.7 split in each convention
SQRT = LinkSection(0.3, 0.7, "sqrt").amplitudes()
LITERAL = LinkSection(0.3, 0.7, "literal").amplitudes()


def test_qpsk_index_zero_frozen():
    qmap = make_qam(2)
    assert qmap.points[0] == pytest.approx(oracles.EXPECTED_QAM4_INDEX0, abs=1e-15)


def test_bpsk_is_real_pair():
    qmap = make_qam(1)
    assert sorted(qmap.points.real.tolist()) == [-1.0, 1.0]
    assert np.all(qmap.points.imag == 0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_unit_mean_power(m):
    qmap = make_qam(m)
    assert np.mean(np.abs(qmap.points) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_monte_carlo_power_of_uniform_indices():
    qmap = make_qam(4)
    rng = stream_rng(0)
    idx = rng.integers(0, qmap.size, size=100_000)
    s = qam_modulate(idx, qmap)
    assert np.mean(np.abs(s) ** 2) == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_gray_adjacency_per_axis(m):
    # neighbouring positions along either axis differ in exactly one index bit
    qmap = make_qam(m)
    bits_i = (m + 1) // 2
    bits_q = m - bits_i
    gray_i = oracles.gray_reference(bits_i)
    for a, b in zip(gray_i, gray_i[1:]):
        assert bin(a ^ b).count("1") == 1
    # indices with adjacent in-phase amplitudes and equal quadrature part
    # must differ in exactly one bit of the full index
    pts = qmap.points
    for m_bits, shift in ((bits_i, bits_q), (bits_q, 0)):
        if m_bits == 0:
            continue
        axis = np.round(pts.real if shift else pts.imag, 12)
        other = np.round(pts.imag if shift else pts.real, 12)
        for fixed in np.unique(other):
            line = np.where(other == fixed)[0]
            line = line[np.argsort(axis[line])]
            for a, b in zip(line, line[1:]):
                assert bin(int(a) ^ int(b)).count("1") == 1


def test_sic_worked_example_frozen():
    # composite sqrt(0.3)*(-1) + sqrt(0.7)*(+1) on one-bit maps
    q = make_qam(1)
    y = np.sqrt(0.3) * (-1.0) + np.sqrt(0.7) * (+1.0)
    assert y == pytest.approx(oracles.EXPECTED_SIC_COMPOSITE, abs=1e-15)
    idx_n, idx_f = sic_detect(np.array([y]), q, q, *SQRT)
    far_pt = q.points[idx_f[0]]
    assert far_pt == 1.0 + 0j
    residual = y - np.sqrt(0.7) * far_pt
    assert residual.real == pytest.approx(oracles.EXPECTED_SIC_RESIDUAL, abs=1e-12)
    assert q.points[idx_n[0]] == -1.0 + 0j


def test_sic_noiseless_recovers_all_pairs():
    q = make_qam(2)
    pairs = oracles.enumerate_index_pairs(2, 2)
    idx_n = np.array([p[0] for p in pairs])
    idx_f = np.array([p[1] for p in pairs])
    y = np.sqrt(0.3) * q.points[idx_n] + np.sqrt(0.7) * q.points[idx_f]
    got_n, got_f = sic_detect(y, q, q, *SQRT)
    assert np.array_equal(got_n, idx_n)
    assert np.array_equal(got_f, idx_f)


def test_sic_agrees_with_loop_reference():
    q = make_qam(2)
    rng = stream_rng(5)
    y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    got_n, got_f = sic_detect(y, q, q, *SQRT)
    far_only = detect_far(y, q, SQRT[1])
    for k in range(64):
        ref_n, ref_f = oracles.sic_reference(complex(y[k]), q.points, q.points, 0.3, 0.7)
        assert (got_n[k], got_f[k], far_only[k]) == (ref_n, ref_f, ref_f)


def test_equal_power_breaks_sic():
    # at rho 0.5/0.5 distinct index pairs land on coincident composites,
    # so even noiseless detection must fail on a large fraction of them
    q = make_qam(2)
    pairs = oracles.enumerate_index_pairs(2, 2)
    idx_n = np.array([p[0] for p in pairs])
    idx_f = np.array([p[1] for p in pairs])
    y = np.sqrt(0.5) * (q.points[idx_n] + q.points[idx_f])
    got_n, got_f = sic_detect(y, q, q, *LinkSection(0.5, 0.5).amplitudes())
    ser = np.mean((got_n != idx_n) | (got_f != idx_f))
    assert ser >= 0.25


def test_modulate_rejects_bad_indices():
    q = make_qam(2)
    with pytest.raises(ValueError):
        qam_modulate([4], q)
    with pytest.raises(ValueError):
        qam_modulate([-1], q)


def test_nearest_point_tie_breaks_low():
    pts = np.array([1.0 + 0j, -1.0 + 0j])
    assert nearest_point(np.array([0.0 + 0j]), point_grid(pts))[0] == 0


def _grid(kind, m, bound_s=5.0, bound_d=1.0):
    """The detection grid a QAM map or quantizer carries, and its points as
    the package's callers hold them."""
    if kind == "qam":
        qmap = make_qam(m)
        return qmap.grid, qmap.points
    q = fit_quantizer(m, bound_s, bound_d)
    return q.grid, q.constellation_deq


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["qam", "quant"]), m=st.integers(1, 16),
       bound_s=st.floats(0.1, 10.0), d_frac=st.floats(0.01, 0.99), data=st.data())
def test_nearest_point_matches_dense_search(kind, m, bound_s, d_frac, data):
    grid, points = _grid(kind, m, bound_s, d_frac * bound_s)
    lev_re = np.unique(points.real)
    lev_im = np.unique(np.asarray(points, dtype=complex).imag)
    # every level and every per-axis midpoint: the decision boundaries
    marks_re = np.concatenate([lev_re, (lev_re[:-1] + lev_re[1:]) / 2])
    marks_im = np.concatenate([lev_im, (lev_im[:-1] + lev_im[1:]) / 2])
    span = float(np.max(np.abs(points)))
    on_marks = st.builds(lambda a, b: complex(marks_re[a], marks_im[b]),
                         st.integers(0, len(marks_re) - 1),
                         st.integers(0, len(marks_im) - 1))
    inside = st.builds(complex, st.floats(-1.5 * span, 1.5 * span),
                       st.floats(-1.5 * span, 1.5 * span))
    outside = st.builds(complex, st.floats(-1e3 * span, 1e3 * span),
                        st.floats(-1e3 * span, 1e3 * span))
    # far along one axis only: where rounding of |y - p| starts to tie
    # whole rows of the grid (beyond about 1e7 grid steps)
    far_axis = st.builds(lambda x, big, swap: complex(big, x) if swap else complex(x, big),
                         st.floats(-span, span),
                         st.floats(1e4, 1e12) | st.floats(-1e12, -1e4), st.booleans())
    anywhere = st.builds(complex, st.floats(allow_nan=False, allow_infinity=False),
                         st.floats(allow_nan=False, allow_infinity=False))
    # the dense oracle holds len(y) x 2^m distances: few rows at wide grids
    y = np.array(data.draw(st.lists(
        st.one_of(on_marks, inside, outside, far_axis, anywhere), min_size=1,
        max_size=40 if m <= 12 else 4)))
    assert np.array_equal(nearest_point(y, grid), oracles.dense_nearest(y, points))
    if kind == "quant":  # the neural chain passes real estimates
        assert np.array_equal(nearest_point(y.real, grid),
                              oracles.dense_nearest(y.real, points))


@pytest.mark.parametrize("m", range(1, 11))
def test_nearest_point_ties_go_to_lowest_index(m):
    # the centre and the midpoint of each grid cell sit on decision
    # boundaries; several points tie there and the lowest index must win
    points = make_qam(m).points
    lev_re = np.unique(points.real)
    lev_im = np.unique(points.imag)
    mid_re = (lev_re[:-1] + lev_re[1:]) / 2
    mid_im = (lev_im[:-1] + lev_im[1:]) / 2 if len(lev_im) > 1 else lev_im
    y = np.concatenate([[0j], (mid_re[:, None] + 1j * mid_im[None, :]).ravel()])
    d = np.abs(y[:, None] - points[None, :])
    assert np.sum(d[0] == d[0].min()) >= 2
    assert np.array_equal(nearest_point(y, make_qam(m).grid),
                          oracles.dense_nearest(y, points))


def test_nearest_point_non_finite_inputs_match_dense_search():
    qmap = make_qam(4)
    y = np.array([complex(np.nan, 0), complex(np.inf, 1), complex(-np.inf, np.inf),
                  complex(1e300, -1e300), 0.3 - 0.2j])
    assert np.array_equal(nearest_point(y, qmap.grid), oracles.dense_nearest(y, qmap.points))


@pytest.mark.parametrize("kind, m", [("quant", 1), ("quant", 4), ("quant", 16), ("qam", 1)])
def test_nearest_point_real_non_finite_inputs_match_dense_search(kind, m):
    # real inputs on a real grid take the float path; NaN, infinities and
    # values whose bracket arithmetic would overflow must bracket without a
    # RuntimeWarning (an error under this suite) and fall to the full scan
    grid, points = _grid(kind, m)
    big = np.finfo(float).max
    y = np.array([np.nan, np.inf, -np.inf, big, -big, 1e300, -1e-310, 0.3, 7.5])
    assert np.array_equal(nearest_point(y, grid), oracles.dense_nearest(y, points))


def _rows_sent_to_bracket(monkeypatch):
    """Count the rows nearest_point cannot certify by slicing."""
    sent = []
    bracket = qam._bracket_nearest

    def spy(y, grid):
        sent.append(len(y))
        return bracket(y, grid)
    monkeypatch.setattr(qam, "_bracket_nearest", spy)
    return sent


@pytest.mark.parametrize("m", range(1, 17))
@pytest.mark.parametrize("kind", ["qam", "quant"])
def test_sliced_nearest_point_equals_bracket_search(monkeypatch, kind, m):
    # the slicer's answer for certified rows against the exact bracket
    # search, on noisy grid points at several noise scales (in grid steps)
    grid, points = _grid(kind, m)
    rng = stream_rng(13, m)
    bracket = qam._bracket_nearest
    sent = _rows_sent_to_bracket(monkeypatch)
    for scale in (0.02, 0.4, 3.0, 300.0):
        base = points[rng.integers(0, len(points), 20_000)]
        noise = scale * grid.unit * rng.standard_normal((20_000, 2)).view(complex)[:, 0]
        inputs = [base + noise]
        if kind == "quant":  # the neural chain passes real estimates
            inputs.append(base.real + noise.real)
        for y in inputs:
            got, want = nearest_point(y, grid), bracket(y, grid)
            assert got.dtype == want.dtype and np.array_equal(got, want)
    # a margin of 1e-5 steps leaves about 4e-5 of the rows to the bracket
    assert sum(sent) < 100


def _dense_in_chunks(y, points, rows=8):
    return np.concatenate([oracles.dense_nearest(y[k:k + rows], points)
                           for k in range(0, len(y), rows)])


def _uncertified_rows(grid, rng):
    """Rows slicing cannot certify: on a level midpoint or one ulp off it,
    just beyond the far limit on some axis, or far off a real grid's
    single imaginary level; and rows just inside the far limit."""
    far = qam._SLICE_FAR * grid.unit
    axes = []
    for lev in (grid.lev_re, grid.lev_im):
        pick = np.unique(np.r_[0, len(lev) - 2, rng.integers(0, max(len(lev) - 1, 1), 4)])
        mid = (lev[pick] + lev[np.minimum(pick + 1, len(lev) - 1)]) / 2 \
            if len(lev) > 1 else np.empty(0)
        mid = np.concatenate([mid, np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf)])
        beyond = np.array([lev[0] - far * (1 + 1e-9), lev[-1] + far * (1 + 1e-9)])
        inside = np.array([lev[0] - far * (1 - 1e-9), lev[-1] + far * (1 - 1e-9)])
        axes.append((mid, beyond, inside, lev[rng.integers(0, len(lev), 3)]))
    (mid_re, out_re, in_re, on_re), (mid_im, out_im, in_im, on_im) = axes

    def cross(re, im):
        return (np.asarray(re)[:, None] + 1j * np.asarray(im)[None, :]).ravel()
    doubt = [cross(mid_re, np.r_[on_im, mid_im]), cross(on_re, mid_im),
             cross(out_re, np.r_[on_im, in_im]), cross(np.r_[on_re, in_re], out_im)]
    if len(grid.lev_im) > 1:  # inside the far limit on one axis, a midpoint on the other
        doubt += [cross(in_re, mid_im), cross(mid_re, in_im)]
    else:
        far_off = np.array([1673.0, -1673.0, 1e3 * far])  # beyond the bracket reach too
        doubt += [cross(mid_re, in_im), cross(on_re, far_off[np.abs(far_off) > far])]
    edge = cross(in_re, on_im) if len(grid.lev_im) == 1 else cross(in_re, in_im)
    return np.concatenate(doubt), edge


@pytest.mark.parametrize("m", range(1, 17))
@pytest.mark.parametrize("kind", ["qam", "quant"])
def test_uncertified_rows_match_dense_search(monkeypatch, kind, m):
    grid, points = _grid(kind, m)
    doubt, edge = _uncertified_rows(grid, stream_rng(14, m))
    sent = _rows_sent_to_bracket(monkeypatch)
    assert np.array_equal(nearest_point(doubt, grid), _dense_in_chunks(doubt, points))
    assert sent == [len(doubt)]
    assert np.array_equal(nearest_point(edge, grid), _dense_in_chunks(edge, points))
    if kind == "quant":
        real = doubt.real[doubt.imag == 0]
        assert np.array_equal(nearest_point(real, grid), _dense_in_chunks(real, points))


@pytest.mark.parametrize("kind", ["qam", "quant"])
def test_uncertified_rows_memory_is_linear_at_16_bits(kind):
    grid, points = _grid(kind, 16)
    doubt, _ = _uncertified_rows(grid, stream_rng(15))
    y = np.resize(doubt, 4096)
    tracemalloc.start()
    try:
        got = nearest_point(y, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert np.array_equal(got, np.resize(_dense_in_chunks(doubt, points), 4096))


def test_nearest_point_rejects_points_off_a_grid():
    with pytest.raises(ValueError, match="rectangular grid of distinct points"):
        point_grid(np.array([0, 1, 1j]))
    with pytest.raises(ValueError, match="rectangular grid of distinct points"):
        point_grid(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        point_grid(np.array([0.0, np.nan]))


@pytest.mark.parametrize("points", [
    np.array([0.0, 1.0, 3.0]),
    (np.array([0.0, 1.0])[:, None] + 1j * np.array([0.0, 1.0, 3.0])[None, :]).ravel(),
])
def test_point_grid_rejects_unevenly_spaced_levels(points):
    with pytest.raises(ValueError, match="unevenly spaced"):
        point_grid(points)


@pytest.mark.parametrize("m", range(1, 17))
def test_grids_of_qam_maps_and_quantizers(m):
    # the tables detection slices on: uniform levels, and the index table
    # that maps (real level, imaginary level) back to the point
    for kind in ("qam", "quant"):
        grid, points = _grid(kind, m)
        assert len(grid) == len(points) == 2**m
        for lev, step in ((grid.lev_re, grid.step_re), (grid.lev_im, grid.step_im)):
            assert np.allclose(lev, lev[0] + step * np.arange(len(lev)),
                               rtol=0, atol=1e-9 * step)
        cell = grid.points[grid.index].reshape(len(grid.lev_re), len(grid.lev_im))
        assert np.array_equal(cell.real, np.broadcast_to(grid.lev_re[:, None], cell.shape))
        assert np.array_equal(cell.imag, np.broadcast_to(grid.lev_im[None, :], cell.shape))


def test_nearest_point_memory_is_linear():
    # the dense (N, 2^m) search needs about 270 MB here
    grid = make_qam(12).grid
    rng = stream_rng(11)
    y = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    tracemalloc.start()
    try:
        nearest_point(y, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_sic_memory_is_linear_at_16_bits():
    # both SIC stages at m = 16; the dense search would need about 4.3 GB
    q = make_qam(16)
    rng = stream_rng(12)
    idx_n, idx_f = rng.integers(0, q.size, size=(2, 4096))
    y = np.sqrt(0.3) * q.points[idx_n] + np.sqrt(0.7) * q.points[idx_f]
    y = y + 1e-4 * (rng.standard_normal(4096) + 1j * rng.standard_normal(4096))
    tracemalloc.start()
    try:
        got_n, got_f = sic_detect(y, q, q, *SQRT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert got_n.shape == got_f.shape == (4096,)


@pytest.mark.parametrize("a", [0.3 ** 0.5, 0.7 ** 0.5, 0.3, 0.7, 1 / 3, 0.123456789])
def test_complex_division_by_a_real_is_the_product_with_its_reciprocal(a):
    # SIC rescales by multiplying with 1 / a; numpy's complex / real
    # division multiplies by the same reciprocal, so every bit agrees,
    # at every magnitude (for real operands the two differ in the last bit)
    g = stream_rng(40)
    y = (g.standard_normal(20000) + 1j * g.standard_normal(20000)) \
        * 10.0 ** g.uniform(-300, 300, 20000)
    assert np.array_equal((y * (1.0 / a)).view(np.uint64), (y / a).view(np.uint64))


@pytest.mark.parametrize("m", [1, 2, 6, 16])
@pytest.mark.parametrize("convention", ["sqrt", "literal"])
def test_sic_equals_the_per_symbol_residual_formula(m, convention):
    # the residual y - a_f * point[far index], over a_n, per symbol: what
    # sic_detect gathers from the far points scaled once
    q = make_qam(m)
    a_n, a_f = LinkSection(0.3, 0.7, convention).amplitudes()
    g = stream_rng(41, m)
    idx = g.integers(0, 2**m, size=(2, 4000))
    y = a_n * q.points[idx[0]] + a_f * q.points[idx[1]] \
        + 0.05 * (g.standard_normal(4000) + 1j * g.standard_normal(4000))
    far = nearest_point(y / a_f, q.grid)
    near = nearest_point((y - a_f * q.points[far]) / a_n, q.grid)
    got_n, got_f = sic_detect(y, q, q, a_n, a_f)
    assert np.array_equal(got_f, far) and np.array_equal(got_n, near)
    assert np.array_equal(detect_far(y, q, a_f), far)


def test_sic_literal_agrees_with_loop_reference():
    rng = stream_rng(6)
    y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    for m in (2, 4):
        q = make_qam(m)
        got_n, got_f = sic_detect(y, q, q, *LITERAL)
        ref_n, ref_f = oracles.literal_sic_reference(y, q.points, q.points, 0.3, 0.7)
        assert np.array_equal(got_n, ref_n)
        assert np.array_equal(got_f, ref_f)
        assert np.array_equal(detect_far(y, q, LITERAL[1]), ref_f)


def test_sic_literal_noiseless_recovers_all_pairs():
    q = make_qam(2)
    idx_n, idx_f = oracles.enumerate_index_pairs(2, 2)
    y = 0.3 * q.points[idx_n] + 0.7 * q.points[idx_f]
    got_n, got_f = sic_detect(y, q, q, *LITERAL)
    assert np.array_equal(got_n, idx_n)
    assert np.array_equal(got_f, idx_f)


def test_detection_survives_small_noise():
    q = make_qam(2)
    rng = stream_rng(7)
    idx_n = rng.integers(0, 4, size=1000)
    idx_f = rng.integers(0, 4, size=1000)
    y = np.sqrt(0.3) * q.points[idx_n] + np.sqrt(0.7) * q.points[idx_f]
    y = y + 1e-6 * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000))
    got_n, got_f = sic_detect(y, q, q, *SQRT)
    assert np.array_equal(got_n, idx_n)
    assert np.array_equal(got_f, idx_f)


@settings(max_examples=25)
@given(m=st.integers(min_value=1, max_value=6))
def test_constellation_points_distinct(m):
    qmap = make_qam(m)
    assert len(np.unique(np.round(qmap.points, 12))) == qmap.size


def test_sic_macs_model():
    assert sic_macs_per_symbol(2, 2) == oracles.EXPECTED_MACS_SIC_M2_M2
    assert sic_macs_per_symbol(3, 1) == 4 * (2 + 8)


def test_make_qam_validates_bits():
    with pytest.raises(ValueError):
        make_qam(0)
    with pytest.raises(ValueError):
        make_qam(17)
