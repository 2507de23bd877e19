"""Kernel launch geometry, functional execution, and the timing model."""

import numpy as np
import pytest

from repro.gpu.errors import KernelLaunchError
from repro.gpu.kernel import (
    Kernel,
    KernelWork,
    LaunchConfig,
    ThreadSpace,
    kernel_duration,
)
from repro.sim.machine import TITAN_XP


# -- LaunchConfig / ThreadSpace ----------------------------------------------

def test_launch_config_scalar_and_tuple_dims():
    cfg = LaunchConfig.make(4, 256)
    assert cfg.grid == (4, 1, 1) and cfg.block == (256, 1, 1)
    assert cfg.total_threads == 1024
    cfg2 = LaunchConfig.make((2, 3), (16, 16))
    assert cfg2.threads_per_block == 256 and cfg2.n_blocks == 6


def test_launch_config_numpy_ints_accepted():
    cfg = LaunchConfig.make(np.int64(3), np.int64(128))
    assert cfg.total_threads == 384


def test_launch_config_for_elements_ceil_div():
    cfg = LaunchConfig.for_elements(1000, block=256)
    assert cfg.grid[0] == 4


def test_launch_config_validation():
    with pytest.raises(KernelLaunchError):
        LaunchConfig.make(0, 32)
    with pytest.raises(KernelLaunchError):
        LaunchConfig.make((1, 1, 1, 1), 32)
    with pytest.raises(KernelLaunchError):
        LaunchConfig.for_elements(0)


def test_threadspace_global_id_matches_cuda_formula():
    cfg = LaunchConfig.make(3, 4)
    ts = ThreadSpace(cfg)
    # blockIdx.x * blockDim.x + threadIdx.x, flat order
    assert list(ts.flat_global_id()) == list(range(12))
    assert list(ts.block_idx(0)) == [0] * 4 + [1] * 4 + [2] * 4


def test_threadspace_2d_block_linearization_x_fastest():
    cfg = LaunchConfig.make((1, 1), (4, 2))
    ts = ThreadSpace(cfg)
    assert list(ts.thread_idx(0)) == [0, 1, 2, 3, 0, 1, 2, 3]
    assert list(ts.thread_idx(1)) == [0, 0, 0, 0, 1, 1, 1, 1]


def _reference_coords(cfg):
    """Every lane's (thread x, y, z, block x, y, z) by div/mod of its flat
    index: blocks in linear order, x fastest within a block."""
    bx, by, _ = cfg.block
    gx, gy, _ = cfg.grid
    lane = np.arange(cfg.total_threads, dtype=np.int64)
    block_lin = lane // cfg.threads_per_block
    tid_lin = lane % cfg.threads_per_block
    return (tid_lin % bx, (tid_lin // bx) % by, tid_lin // (bx * by),
            block_lin % gx, (block_lin // gx) % gy, block_lin // (gx * gy))


@pytest.mark.parametrize("grid,block", [
    (7, 256), (3, 100), (1, 1), (5, 33),            # 1D, incl. partial warps
    ((4, 3), (32, 32)), ((2, 5), (7, 3)),           # 2D
    ((2, 3, 2), (4, 2, 3)), ((1, 1, 3), (1, 1, 5)),  # 3D
])
def test_threadspace_matches_full_decomposition(grid, block):
    cfg = LaunchConfig.make(grid, block)
    ref = _reference_coords(cfg)
    ts = ThreadSpace(cfg)
    for axis in range(3):
        tid, bid = ts.thread_idx(axis), ts.block_idx(axis)
        assert tid.dtype == bid.dtype == np.int64
        np.testing.assert_array_equal(tid, ref[axis])
        np.testing.assert_array_equal(bid, ref[3 + axis])
        np.testing.assert_array_equal(
            ts.global_id(axis), ref[3 + axis] * cfg.block[axis] + ref[axis])
    np.testing.assert_array_equal(ts.flat_global_id(),
                                  ref[3] * cfg.block[0] + ref[0])


# -- Kernel functional contract -------------------------------------------------

def _work_kernel(units):
    def fn(ts):
        return KernelWork("generic_op", np.full(ts.n, float(units)))

    return Kernel(fn, name="k", registers_per_thread=18)


def test_kernel_must_return_kernelwork():
    k = Kernel(lambda ts: 42, name="bad")
    with pytest.raises(KernelLaunchError, match="KernelWork"):
        k.run(LaunchConfig.make(1, 32), ())


def test_kernel_work_size_must_match_grid():
    k = Kernel(lambda ts: KernelWork("generic_op", np.ones(3)), name="short")
    with pytest.raises(KernelLaunchError, match="lanes"):
        k.run(LaunchConfig.make(1, 32), ())


# -- timing model -----------------------------------------------------------------

def test_empty_launch_costs_only_overhead():
    k = _work_kernel(0)
    cfg = LaunchConfig.make(1, 32)
    w = k.run(cfg, ())
    assert kernel_duration(TITAN_XP, k, cfg, w) == TITAN_XP.launch_overhead_s


def test_duration_scales_linearly_when_saturated():
    k = _work_kernel(100)
    # big grid: well past the saturation point
    cfg1 = LaunchConfig.make(4000, 256)
    cfg2 = LaunchConfig.make(8000, 256)
    oh = TITAN_XP.launch_overhead_s
    d1 = kernel_duration(TITAN_XP, k, cfg1, k.run(cfg1, ())) - oh
    d2 = kernel_duration(TITAN_XP, k, cfg2, k.run(cfg2, ())) - oh
    assert d2 / d1 == pytest.approx(2.0, rel=0.01)


def test_small_grid_underutilizes_device():
    """The paper's core GPU lesson: same total work, tiny grids lose."""
    total_work = 1_000_000.0

    def fn_small(ts):
        return KernelWork("mandel_iter", np.full(ts.n, total_work / ts.n))

    k = Kernel(fn_small, registers_per_thread=18)
    small_cfg = LaunchConfig.make(8, 256)      # 2048 threads
    big_cfg = LaunchConfig.make(2000, 256)     # 512000 threads
    d_small = kernel_duration(TITAN_XP, k, small_cfg, k.run(small_cfg, ()))
    d_big = kernel_duration(TITAN_XP, k, big_cfg, k.run(big_cfg, ()))
    assert d_small > 10 * d_big


def test_divergence_prices_warp_max():
    """One hot lane per warp costs as much as all lanes hot."""
    cfg = LaunchConfig.make(4000, 256)

    def hot_lane(ts):
        w = np.zeros(ts.n)
        w[::32] = 320.0  # lane 0 of each warp
        return KernelWork("generic_op", w)

    def uniform(ts):
        return KernelWork("generic_op", np.full(ts.n, 320.0))

    k_hot = Kernel(hot_lane, registers_per_thread=18)
    k_uni = Kernel(uniform, registers_per_thread=18)
    d_hot = kernel_duration(TITAN_XP, k_hot, cfg, k_hot.run(cfg, ()))
    d_uni = kernel_duration(TITAN_XP, k_uni, cfg, k_uni.run(cfg, ()))
    # same per-warp max -> same duration, despite 32x less useful work...
    assert d_hot == pytest.approx(d_uni, rel=0.35)
    # (the hot version is somewhat slower per useful lane due to the
    # fill term, but never 32x faster)
    assert d_hot > 0.5 * d_uni


def test_lane_rate_floor_for_ilp_kernels():
    """SHA-1-style kernels keep a per-thread floor at tiny grids."""
    def fn(ts):
        return KernelWork("sha1_byte", np.full(ts.n, 65536.0))

    k = Kernel(fn, registers_per_thread=48)
    cfg = LaunchConfig.make(1, 128)  # 4 warps only
    d = kernel_duration(TITAN_XP, k, cfg, k.run(cfg, ()))
    lane = TITAN_XP.lane_rates["sha1_byte"]
    expected = TITAN_XP.launch_overhead_s + 128 * 65536.0 / (lane * 128)
    assert d == pytest.approx(expected, rel=0.01)


def test_lane_floor_never_exceeds_peak():
    def fn(ts):
        return KernelWork("sha1_byte", np.full(ts.n, 64.0))

    k = Kernel(fn, registers_per_thread=32)
    cfg = LaunchConfig.make(10000, 256)  # enormous grid
    d = kernel_duration(TITAN_XP, k, cfg, k.run(cfg, ()))
    floor = 10000 * 256 * 64.0 / TITAN_XP.rate("sha1_byte")
    assert d >= floor


def test_oversized_block_rejected():
    k = _work_kernel(1)
    cfg = LaunchConfig(grid=(1, 1, 1), block=(2048, 1, 1))
    with pytest.raises(KernelLaunchError):
        kernel_duration(TITAN_XP, k, cfg, KernelWork("generic_op", np.ones(2048)))
