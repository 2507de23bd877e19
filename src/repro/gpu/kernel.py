"""Kernel objects, launch geometry and the kernel timing model.

A kernel is a Python callable executed once per launch over the whole
thread grid using numpy (one array lane per GPU thread).  It receives a
:class:`ThreadSpace` — the vectorized equivalent of CUDA's
``blockIdx/blockDim/threadIdx`` (or OpenCL's ``get_global_id``) — writes
results into device buffers, and returns a :class:`KernelWork` stating
how much work of which kind every lane performed.  The timing model then
prices the launch:

* **divergence** — a warp costs the *maximum* work among its 32 lanes
  (Section IV-A: "minimize divergence among threads of the same warp");
* **residency** — device throughput scales linearly with resident
  useful warps up to the latency-hiding saturation point
  (``warps_for_peak_per_sm``), reproducing the paper's observation that
  2,000-thread per-line kernels leave a 61,440-resident-thread Titan XP
  mostly idle until lines are batched 32 at a time;
* **occupancy** — residency per SM honours the CC-6.1 limits via
  :func:`repro.gpu.occupancy.occupancy` (the paper checks its kernel's
  18 registers are not limiting);
* a fixed per-launch overhead (the "large number of launched kernels
  with small workloads" cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.gpu.errors import KernelLaunchError
from repro.gpu.occupancy import occupancy
from repro.sim.machine import GpuSpec

Dim3 = Tuple[int, int, int]


def _as_dim3(v: int | Sequence[int], what: str) -> Dim3:
    if isinstance(v, (int, np.integer)):
        dims: Tuple[int, ...] = (int(v),)
    else:
        dims = tuple(int(x) for x in v)
    if not 1 <= len(dims) <= 3:
        raise KernelLaunchError(f"{what} must have 1-3 dimensions, got {dims!r}")
    if any(d < 1 for d in dims):
        raise KernelLaunchError(f"{what} dimensions must be >= 1, got {dims!r}")
    return dims + (1,) * (3 - len(dims))  # type: ignore[return-value]


@dataclass(frozen=True)
class LaunchConfig:
    """CUDA's ``<<<grid, block>>>`` / OpenCL's global+local sizes."""

    grid: Dim3
    block: Dim3

    @staticmethod
    def make(grid: int | Sequence[int], block: int | Sequence[int]) -> "LaunchConfig":
        return LaunchConfig(_as_dim3(grid, "grid"), _as_dim3(block, "block"))

    @property
    def threads_per_block(self) -> int:
        bx, by, bz = self.block
        return bx * by * bz

    @property
    def n_blocks(self) -> int:
        gx, gy, gz = self.grid
        return gx * gy * gz

    @property
    def total_threads(self) -> int:
        return self.n_blocks * self.threads_per_block

    @staticmethod
    def for_elements(n: int, block: int = 256) -> "LaunchConfig":
        """1D config covering ``n`` elements (the usual ceil-div launch)."""
        if n < 1:
            raise KernelLaunchError("need at least one element")
        return LaunchConfig.make(-(-n // block), block)


class ThreadSpace:
    """Vectorized thread-coordinate helpers for one launch.

    All arrays are aligned to the *flat lane order*: blocks in
    ``blockIdx`` linear order, threads within a block linearized with x
    fastest (matching hardware warp formation — lanes 0..31 of a warp
    are 32 consecutive flat threads of the block).

    Coordinates are built lazily, one axis at a time and only for the
    axes a kernel reads, as tiled/repeated index patterns rather than
    div/mod passes over every lane.  In a 1D launch the global id is the
    lane index itself.
    """

    def __init__(self, cfg: LaunchConfig):
        self.cfg = cfg
        self._cache: dict[tuple[str, int], np.ndarray] = {}

    @property
    def n(self) -> int:
        return self.cfg.total_threads

    @staticmethod
    def _axis_pattern(dims: Dim3, axis: int) -> np.ndarray:
        """Index along ``axis`` of each point of ``dims``, x fastest."""
        inner = int(np.prod(dims[:axis]))
        outer = int(np.prod(dims[axis + 1:]))
        return np.tile(np.repeat(np.arange(dims[axis], dtype=np.int64), inner),
                       outer)

    def thread_idx(self, axis: int = 0) -> np.ndarray:
        key = ("thread", axis)
        if key not in self._cache:
            self._cache[key] = np.tile(self._axis_pattern(self.cfg.block, axis),
                                       self.cfg.n_blocks)
        return self._cache[key]

    def block_idx(self, axis: int = 0) -> np.ndarray:
        key = ("block", axis)
        if key not in self._cache:
            self._cache[key] = np.repeat(self._axis_pattern(self.cfg.grid, axis),
                                         self.cfg.threads_per_block)
        return self._cache[key]

    def global_id(self, axis: int = 0) -> np.ndarray:
        """``blockIdx.axis * blockDim.axis + threadIdx.axis`` /
        OpenCL's ``get_global_id(axis)``."""
        cfg = self.cfg
        if axis == 0 and cfg.block[1:] == cfg.grid[1:] == (1, 1):
            return np.arange(self.n, dtype=np.int64)
        return self.block_idx(axis) * cfg.block[axis] + self.thread_idx(axis)

    def flat_global_id(self) -> np.ndarray:
        """The paper's ``threadIdGlobal`` for 1D launches (Listing 2 line 2)."""
        return self.global_id(0)


@dataclass
class KernelWork:
    """Per-lane work accounting returned by a kernel body.

    ``work`` has one entry per launched thread (flat lane order); idle /
    out-of-range lanes carry 0.  ``kind`` names the rate in the GPU spec.
    """

    kind: str
    work: np.ndarray

    def __post_init__(self) -> None:
        self.work = np.asarray(self.work, dtype=np.float64)


@dataclass
class Kernel:
    """A named device function plus its static resource usage."""

    fn: Callable[..., KernelWork]
    name: str = ""
    registers_per_thread: int = 32
    shared_mem_per_block: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            self.name = getattr(self.fn, "__name__", "kernel")

    def run(self, cfg: LaunchConfig, args: tuple) -> KernelWork:
        ts = ThreadSpace(cfg)
        result = self.fn(ts, *args)
        if not isinstance(result, KernelWork):
            raise KernelLaunchError(
                f"kernel {self.name!r} must return KernelWork, got {type(result)}"
            )
        if result.work.size != cfg.total_threads:
            raise KernelLaunchError(
                f"kernel {self.name!r} returned work for {result.work.size} lanes, "
                f"launch has {cfg.total_threads} threads"
            )
        return result


def kernel_cost(spec: GpuSpec, kernel: Kernel, cfg: LaunchConfig,
                work: KernelWork) -> tuple[float, dict]:
    """Virtual seconds for one launch plus the model's intermediate stats.

    The stats dict (warps, busy warps, warp fill, resident warps,
    theoretical occupancy, achieved rate) feeds trace spans so a Chrome
    timeline can show *why* a launch took as long as it did.  See the
    module docstring for the model itself.
    """
    tpb = cfg.threads_per_block
    if tpb > spec.max_threads_per_block:
        raise KernelLaunchError(
            f"block of {tpb} threads exceeds limit {spec.max_threads_per_block}"
        )
    occ = occupancy(spec, tpb, kernel.registers_per_thread,
                    kernel.shared_mem_per_block)

    warp = spec.warp_size
    wpb = -(-tpb // warp)
    per_block = work.work.reshape(cfg.n_blocks, tpb)
    if tpb % warp:
        pad = np.zeros((cfg.n_blocks, wpb * warp - tpb))
        per_block = np.concatenate([per_block, pad], axis=1)
    lanes = per_block.reshape(cfg.n_blocks, wpb, warp)
    warp_cost = lanes.max(axis=2)                     # divergence: max lane
    active = lanes > 0
    nonempty = warp_cost > 0
    n_warps = cfg.n_blocks * wpb
    n_nonempty = int(nonempty.sum())
    stats = {
        "threads": cfg.total_threads,
        "warps": n_warps,
        "busy_warps": n_nonempty,
        "occupancy": occ.fraction(spec),
        "fill": 0.0,
        "rate": 0.0,
    }
    if n_nonempty == 0:
        return spec.launch_overhead_s, stats

    fill = float(active.sum()) / (n_nonempty * warp)  # valid lanes per busy warp
    capacity = spec.sms * occ.warps_per_sm
    resident = min(n_warps, capacity)
    useful = (n_nonempty / n_warps) * fill
    saturation = spec.warps_for_peak_per_sm * spec.sms
    peak = spec.rate(work.kind)
    rate = peak * min(1.0, resident * useful / saturation)
    lane = spec.lane_rates.get(work.kind)
    if lane is not None:
        # ILP floor: every resident useful lane sustains at least `lane`
        # units/s regardless of occupancy (see GpuSpec.lane_rates).
        rate = min(peak, max(rate, lane * warp * resident * useful))
    stats["fill"] = fill
    stats["resident_warps"] = resident
    stats["rate"] = rate
    return spec.launch_overhead_s + warp * float(warp_cost.sum()) / rate, stats


def kernel_duration(spec: GpuSpec, kernel: Kernel, cfg: LaunchConfig,
                    work: KernelWork) -> float:
    """Virtual seconds for one launch (duration part of :func:`kernel_cost`)."""
    return kernel_cost(spec, kernel, cfg, work)[0]
