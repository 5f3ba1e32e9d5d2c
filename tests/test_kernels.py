"""Independent oracles for the numeric kernels."""

from pathlib import Path

import numpy as np
import pytest

from sdfslam import kernels

RES = 0.05
TRUNC = 0.06
WMAX = 10.0


def random_grid(rng, h=40, w=50, unknown_frac=0.3):
    F = rng.uniform(-TRUNC, TRUNC, (h, w)).astype(np.float32)
    W = rng.uniform(0.1, WMAX, (h, w)).astype(np.float32)
    mask = rng.random((h, w)) < unknown_frac
    W[mask] = 0.0
    F[mask] = TRUNC
    return F, W


@pytest.fixture(params=[kernels], ids=[kernels.BACKEND])
def impl(request):
    """The kernels module; test IDs carry its ``BACKEND`` name."""
    return request.param


class TestBilinearWF:
    def test_cell_center_reproduces_node(self, impl):
        rng = np.random.default_rng(10)
        F, W = random_grid(rng, unknown_frac=0.0)
        pts = np.array([[RES * 7, RES * 5], [RES * 3, RES * 11]])
        val, gx, gy = impl.bilinear_wf(F, W, 0.0, 0.0, RES, TRUNC, WMAX, pts)
        assert val[0] == pytest.approx(float(W[5, 7]) * float(F[5, 7]), abs=1e-12)
        assert val[1] == pytest.approx(float(W[11, 3]) * float(F[11, 3]), abs=1e-12)

    def test_uniform_grid_zero_gradient(self, impl):
        F = np.full((20, 20), 0.02, dtype=np.float32)
        W = np.full((20, 20), 4.0, dtype=np.float32)
        pts = np.random.default_rng(11).uniform(0.1, 0.8, (50, 2))
        val, gx, gy = impl.bilinear_wf(F, W, 0.0, 0.0, RES, TRUNC, WMAX, pts)
        assert np.allclose(val, 0.08, atol=1e-7)
        assert np.all(gx == 0.0) and np.all(gy == 0.0)

    def test_outside_saturates(self, impl):
        rng = np.random.default_rng(12)
        F, W = random_grid(rng)
        pts = np.array([[-1.0, 0.5], [0.5, 99.0]])
        val, gx, gy = impl.bilinear_wf(F, W, 0.0, 0.0, RES, TRUNC, WMAX, pts)
        assert np.all(val == WMAX * TRUNC)
        assert np.all(gx == 0.0) and np.all(gy == 0.0)

    def test_unknown_nodes_saturate(self, impl):
        F = np.full((4, 4), TRUNC, dtype=np.float32)
        W = np.zeros((4, 4), dtype=np.float32)
        pts = np.array([[0.07, 0.06]])
        val, gx, gy = impl.bilinear_wf(F, W, 0.0, 0.0, RES, TRUNC, WMAX, pts)
        assert val[0] == WMAX * TRUNC
        assert gx[0] == 0.0 and gy[0] == 0.0

    def test_gradient_matches_finite_differences(self, impl):
        rng = np.random.default_rng(13)
        h = 1e-6
        for _ in range(10):
            F, W = random_grid(rng, unknown_frac=0.0)
            cols = rng.integers(1, 48, 100)
            rows = rng.integers(1, 38, 100)
            fx = rng.uniform(0.05, 0.95, 100)
            fy = rng.uniform(0.05, 0.95, 100)
            pts = np.column_stack(((cols + fx) * RES, (rows + fy) * RES))

            val, gx, gy = impl.bilinear_wf(F, W, 0.0, 0.0, RES, TRUNC, WMAX, pts)
            vxp, _, _ = impl.bilinear_wf(F, W, 0.0, 0.0, RES, TRUNC, WMAX,
                                         pts + [h, 0.0])
            vxm, _, _ = impl.bilinear_wf(F, W, 0.0, 0.0, RES, TRUNC, WMAX,
                                         pts - [h, 0.0])
            vyp, _, _ = impl.bilinear_wf(F, W, 0.0, 0.0, RES, TRUNC, WMAX,
                                         pts + [0.0, h])
            vym, _, _ = impl.bilinear_wf(F, W, 0.0, 0.0, RES, TRUNC, WMAX,
                                         pts - [0.0, h])
            fd_x = (vxp - vxm) / (2 * h)
            fd_y = (vyp - vym) / (2 * h)
            scale = np.maximum(np.abs(fd_x), 1e-3)
            assert np.all(np.abs(gx - fd_x) / scale < 1e-4)
            scale = np.maximum(np.abs(fd_y), 1e-3)
            assert np.all(np.abs(gy - fd_y) / scale < 1e-4)


class TestBilinearFW:
    def test_outside_returns_unknown(self, impl):
        rng = np.random.default_rng(14)
        F, W = random_grid(rng)
        f, w = impl.bilinear_fw(F, W, 0.0, 0.0, RES, TRUNC, [[-5.0, 0.0]])
        assert f[0] == TRUNC and w[0] == 0.0

    def test_node_reproduction(self, impl):
        rng = np.random.default_rng(15)
        F, W = random_grid(rng, unknown_frac=0.0)
        f, w = impl.bilinear_fw(F, W, 0.0, 0.0, RES, TRUNC,
                                [[RES * 9, RES * 13]])
        assert f[0] == pytest.approx(float(F[13, 9]), abs=1e-12)
        assert w[0] == pytest.approx(float(W[13, 9]), abs=1e-12)


class TestTraverseFree:
    def test_axis_aligned_example(self, impl):
        # 1m beam on a 5cm grid carved to 0.94m covers the 19 cells whose
        # centers lie before the extent.
        cols, rows = impl.traverse_free(0.0, 0.0, RES, 100, 100,
                                        1.0, 1.0, 1.0, 0.0, 0.94)
        assert len(cols) == 19
        assert np.all(rows == 20)
        assert list(cols) == list(range(20, 39))

    def test_zero_extent_empty(self, impl):
        cols, rows = impl.traverse_free(0.0, 0.0, RES, 100, 100,
                                        1.0, 1.0, 1.0, 0.0, 0.0)
        assert len(cols) == 0

    def test_against_dense_sampling_oracle(self, impl):
        rng = np.random.default_rng(16)
        for _ in range(50):
            x0, y0 = rng.uniform(0.5, 4.0, 2)
            ang = rng.uniform(-np.pi, np.pi)
            extent = rng.uniform(0.1, 3.0)
            ux, uy = np.cos(ang), np.sin(ang)
            cols, rows = impl.traverse_free(0.0, 0.0, RES, 100, 100,
                                            x0, y0, ux, uy, extent)
            got = set(zip(cols.tolist(), rows.tolist()))

            t = np.arange(0.0, extent, 1e-3)
            px = x0 + ux * t
            py = y0 + uy * t
            cc = np.floor(px / RES + 0.5).astype(int)
            rr = np.floor(py / RES + 0.5).astype(int)
            proj = (cc * RES - x0) * ux + (rr * RES - y0) * uy
            keep = (proj >= 0.0) & (proj <= extent)
            keep &= (cc >= 0) & (cc < 100) & (rr >= 0) & (rr < 100)
            oracle = set(zip(cc[keep].tolist(), rr[keep].tolist()))

            # Sampling can only miss corner-grazing cells with a tiny chord.
            assert oracle <= got
            for extra in got - oracle:
                cx, cy = extra[0] * RES, extra[1] * RES
                d = abs((cx - x0) * uy - (cy - y0) * ux)
                assert d <= RES * np.sqrt(0.5) + 1e-9

    def test_cells_connected_and_unique(self, impl):
        cols, rows = impl.traverse_free(0.0, 0.0, RES, 200, 200,
                                        0.61, 0.37, 0.6, 0.8, 3.0)
        cells = list(zip(cols.tolist(), rows.tolist()))
        assert len(set(cells)) == len(cells)
        for (c0, r0), (c1, r1) in zip(cells, cells[1:]):
            assert abs(c1 - c0) + abs(r1 - r0) in (1, 2)


class TestBicubic:
    def test_node_reproduction(self, impl):
        rng = np.random.default_rng(17)
        F, W = random_grid(rng, unknown_frac=0.0)
        f, w, valid = impl.bicubic_fw(F, W, 0.0, 0.0, RES, TRUNC,
                                      [[RES * 10, RES * 20]])
        assert valid[0]
        assert f[0] == pytest.approx(float(F[20, 10]), abs=1e-12)

    def test_constant_grid(self, impl):
        F = np.full((30, 30), 0.01, dtype=np.float32)
        W = np.ones((30, 30), dtype=np.float32)
        pts = np.random.default_rng(18).uniform(0.2, 1.2, (100, 2))
        f, w, valid = impl.bicubic_fw(F, W, 0.0, 0.0, RES, TRUNC, pts)
        assert np.all(valid)
        assert np.allclose(f, np.float32(0.01), atol=1e-9)

    def test_linear_ramp_reproduced(self, impl):
        # Cubic interpolation is exact on linear fields.
        h, w = 30, 30
        jj, ii = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        ramp = (0.001 * ii + 0.0005 * jj).astype(np.float32)
        W = np.ones((h, w), dtype=np.float32)
        rng = np.random.default_rng(19)
        pts = rng.uniform(0.2, 1.2, (200, 2))
        f, _, valid = impl.bicubic_fw(ramp, W, 0.0, 0.0, RES, TRUNC, pts)
        assert np.all(valid)
        expect = 0.001 * (pts[:, 0] / RES) + 0.0005 * (pts[:, 1] / RES)
        # float32 node storage limits agreement, not the interpolation rule
        assert np.allclose(f, expect, atol=5e-7)

    def test_unknown_support_invalid(self, impl):
        F = np.full((10, 10), TRUNC, dtype=np.float32)
        W = np.ones((10, 10), dtype=np.float32)
        W[5, 5] = 0.0
        f, w, valid = impl.bicubic_fw(F, W, 0.0, 0.0, RES, TRUNC,
                                      [[RES * 5.2, RES * 5.2], [RES * 2, RES * 2]])
        assert not valid[0]
        assert valid[1]

    def test_overshoot_clamped(self, impl):
        F = np.full((10, 10), -TRUNC, dtype=np.float32)
        F[:, 5:] = TRUNC
        W = np.ones((10, 10), dtype=np.float32)
        pts = np.column_stack((np.linspace(0.15, 0.3, 50), np.full(50, 0.25)))
        f, _, valid = impl.bicubic_fw(F, W, 0.0, 0.0, RES, TRUNC, pts)
        assert np.all(np.abs(f[valid]) <= TRUNC + 1e-12)

    def test_last_known_column_on_lattice(self, impl):
        # Columns 0-6 are known; the unknown column 7 carries zero bilinear
        # weight for samples exactly on column 6, so they stay valid. A power
        # of two resolution puts the samples exactly on the lattice.
        res = 0.25
        rng = np.random.default_rng(22)
        F, W = random_grid(rng, h=10, w=12, unknown_frac=0.0)
        F[:, 7:] = TRUNC
        W[:, 7:] = 0.0
        pts = np.array([[6.0, 3.0], [6.0, 3.375], [6.5, 3.0]]) * res
        f, w, valid = impl.bicubic_fw(F, W, 0.0, 0.0, res, TRUNC, pts)
        assert list(valid) == [True, True, False]
        assert f[0] == float(F[3, 6]) and w[0] == float(W[3, 6])
        expect = 0.625 * float(F[3, 6]) + 0.375 * float(F[4, 6])
        assert f[1] == pytest.approx(expect, abs=1e-12)
        assert w[1] == pytest.approx(0.625 * float(W[3, 6]) + 0.375 * float(W[4, 6]),
                                     abs=1e-12)

    def test_partial_patch_takes_bilinear(self, impl):
        # A valid sample whose 4x4 patch reaches an unknown cell gets exactly
        # the bilinear F and W.
        rng = np.random.default_rng(23)
        F, W = random_grid(rng, unknown_frac=0.05)
        h, w = F.shape
        pts = rng.uniform(-0.1, 2.5, (2000, 2))
        f, wv, valid = impl.bicubic_fw(F, W, 0.0, 0.0, RES, TRUNC, pts)
        i1 = np.floor(pts[:, 0] / RES).astype(int)
        j1 = np.floor(pts[:, 1] / RES).astype(int)
        partial = np.zeros(len(pts), dtype=bool)
        for k in np.flatnonzero(valid):
            rows = np.clip(np.arange(j1[k] - 1, j1[k] + 3), 0, h - 1)
            cols = np.clip(np.arange(i1[k] - 1, i1[k] + 3), 0, w - 1)
            partial[k] = np.any(W[np.ix_(rows, cols)] == 0.0)
        assert partial.sum() >= 100
        fl, wl = kernels.bilinear_fw(F, W, 0.0, 0.0, RES, TRUNC, pts[partial])
        assert np.array_equal(f[partial], fl)
        assert np.array_equal(wv[partial], wl)

    def test_full_patch_reads_only_its_patch(self, impl):
        # A known block inside unknown cells that hold +trunc: samples whose
        # whole patch lies in the block give the Catmull-Rom value, bit for
        # bit the value they give when every cell is known.
        rng = np.random.default_rng(24)
        F, W = random_grid(rng, unknown_frac=0.0)
        block = np.zeros(F.shape, dtype=bool)
        block[10:20, 15:30] = True
        Fu, Wu = F.copy(), W.copy()
        Fu[~block] = TRUNC
        Wu[~block] = 0.0
        # Patch rows 10..19 and cols 15..29 need j1 in 11..17, i1 in 16..27.
        u = rng.uniform(16.0, 28.0, 300)
        v = rng.uniform(11.0, 18.0, 300)
        pts = np.column_stack((u, v)) * RES
        f, _, valid = impl.bicubic_fw(Fu, Wu, 0.0, 0.0, RES, TRUNC, pts)
        f_all, _, _ = impl.bicubic_fw(F, W, 0.0, 0.0, RES, TRUNC, pts)
        assert np.all(valid)
        assert np.array_equal(f, f_all)

        def catmull_rom(p0, p1, p2, p3, t):
            return 0.5 * (2.0 * p1 + (p2 - p0) * t
                          + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * t ** 2
                          + (3.0 * (p1 - p2) + p3 - p0) * t ** 3)

        F64 = F.astype(np.float64)
        for k in range(len(pts)):
            i, j = int(u[k]), int(v[k])
            rows = [catmull_rom(*F64[jj, i - 1:i + 3], u[k] - i)
                    for jj in range(j - 1, j + 3)]
            expect = np.clip(catmull_rom(*rows, v[k] - j), -TRUNC, TRUNC)
            assert f[k] == pytest.approx(expect, abs=1e-12)


class TestBenchmarkHooks:
    def test_tracer_patches_every_hook(self, monkeypatch):
        # The benchmark's tracer replaces module attributes by name; a renamed
        # or removed hook must fail here, not in a benchmark run.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                        / "perfbench"))
        import tracer

        originals = {name: getattr(kernels, name) for name in
                     ("bilinear_wf", "bilinear_fw", "bicubic_fw", "traverse_free")}
        F = np.full((12, 12), 0.01, dtype=np.float32)
        W = np.ones((12, 12), dtype=np.float32)
        W[:, 8:] = 0.0
        pts = np.array([[0.2, 0.2], [0.35, 0.2]])
        with tracer.installed(tracer.Tracer()) as t:
            kernels.bicubic_fw(F, W, 0.0, 0.0, RES, TRUNC, pts)
        assert {name: getattr(kernels, name) for name in originals} == originals
        # The partial-patch sample reaches bilinear_fw through the module
        # attribute, so the traced run counts it under bicubic_fw.
        spans = [(name, parent) for name, _, _, parent in t.spans]
        assert spans == [("kernels.bicubic_fw", -1), ("kernels.bilinear_fw", 0)]
