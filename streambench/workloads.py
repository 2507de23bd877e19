"""The benchmark's three seeded workloads.

Each workload drives the program only through its public entry points
(``repro.core.run.execute``, the apps' public functions) and builds its
inputs from the seed.  A workload has three phases:

* ``__init__`` makes the inputs (not timed);
* :meth:`setup` does the one-off work before the first timed run
  (graph and plan build, escape grids, cold kernel compile, cold LZSS
  fill); it is part of ``setup_s``;
* :meth:`run_once` times one run call, then checks its output against
  the reference outside the timed region.

:meth:`layer_metrics` times the layers on the workload's path, on its
item shapes (see :mod:`layers`), and prices the path with them.  Layers
off the path are left out; the command reports them as 0.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

import layers
from repro.apps.dedup.container import verify_archive
from repro.apps.dedup.pipeline_gpu import GpuDedupConfig, dedup_gpu
from repro.apps.dedup.rabin import GearChunker, make_batches
from repro.apps.datasets import parsec_large
from repro.apps.lzss import cache as lzss_cache
from repro.apps.mandelbrot import sequential as mandel_seq
from repro.apps.mandelbrot.params import MandelParams
from repro.apps.mandelbrot.pixelstream import PixelLineSource, pixel_stat
from repro.core.config import ExecConfig, ExecMode
from repro.core.graph import Farm, StageSpec, linear_graph
from repro.core.opt.bodycomp import try_compile_spec
from repro.core.opt.vectorize import kernel_cache_stats
from repro.core.plan import build_plan
from repro.core.run import execute
from repro.core.stage import FunctionStage, IterSource, Source
from repro.sim.machine import paper_machine


@dataclass
class Rep:
    """One timed run call and what it produced."""

    wall: float
    items: int
    mb: float
    latencies: List[float] = field(default_factory=list)  # seconds
    outside_makespan: float = 0.0
    ok: bool = False
    details: Dict[str, Any] = field(default_factory=dict)


# -- stage bodies (module level: the body compiler reads their source) ----

def mix(item):
    """Integer hash of an ``(x, due)`` item; the loop keeps the body
    compiler from lowering it."""
    x, due = item
    h = x
    for _ in range(2):
        h = (h * 2654435761 + 40503) & 0xFFFFFFFF
    return (h, due)


def passthrough(item):
    return item


class Arrivals:
    """Sink body stamping each arrival with the wall clock."""

    def __init__(self) -> None:
        self.times: List[float] = []

    def __call__(self, item):
        self.times.append(time.perf_counter())
        return item


class PacedArrivals:
    """Sink body for the open loop: latency from an item's due time."""

    def __init__(self) -> None:
        self.latencies: List[float] = []

    def __call__(self, item):
        value, due = item
        self.latencies.append(time.perf_counter() - due)
        return value


class PacedSource(Source):
    """Open-loop source: item ``i`` is due at ``start + i / rate``.

    Items carry their due time; a stalled pipeline delays later items'
    send, and that wait counts in their latency.
    """

    def __init__(self, xs: List[int], rate: float):
        self.xs = xs
        self.rate = rate
        self.late: List[float] = []

    def generate(self, ctx):
        clock, sleep, late = time.perf_counter, time.sleep, self.late.append
        start = clock()
        for i, x in enumerate(self.xs):
            due = start + i / self.rate
            now = clock()
            if due > now:
                sleep(due - now)
                now = clock()
            late(now - due)
            yield (x, due)


class PacedLineSource(PixelLineSource):
    """PixelLineSource on a fixed line rate: line ``i`` is due at
    ``start + i / rate``; the due times are kept in ``self.due``."""

    def __init__(self, counts: np.ndarray, niter: int, rate: float):
        super().__init__(counts, niter)
        self.rate = rate
        self.due: List[float] = []
        self.late: List[float] = []

    def generate(self, ctx):
        clock, sleep = time.perf_counter, time.sleep
        start = clock()
        for i, block in enumerate(super().generate(ctx)):
            due = start + i / self.rate
            now = clock()
            if due > now:
                sleep(due - now)
                now = clock()
            self.late.append(now - due)
            self.due.append(due)
            yield block


def _seq_rate(job, items: int, reps: int = 5) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        job()
        samples.append(items / (time.perf_counter() - t0))
    return statistics.median(samples)


def _ledger(lay: Dict[str, float], predicted: float,
            measured: float) -> Dict[str, float]:
    lay["ledger.predicted_us_per_item"] = predicted
    lay["ledger.residual_us_per_item"] = measured - predicted
    return lay


class Workload:
    name = ""
    why = ""
    #: ``--trace 1`` also runs the workload on the process backend
    probe_process = False
    #: time metrics take each job's fastest time over the runs instead of
    #: the median run, as ``timeit`` does; a run's jobs are timed one by
    #: one in ``Rep.latencies``.  Right for jobs on one thread, whose
    #: every slow run is other tenants' load on the host; a multi-threaded
    #: run's speed also varies with its own thread scheduling, in both
    #: directions, which the median reports.
    fast_end = False

    def setup(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        """Compute what the checks compare against (not timed)."""

    def run_once(self, tracer=None, workers: str = "thread") -> Rep:
        raise NotImplementedError

    def baseline_items_per_s(self) -> float:
        raise NotImplementedError

    def counters(self, reps: List[Rep]) -> Dict[str, float]:
        """Counts that repeat exactly: cache regimes and simulated
        results, over the untraced runs ``reps``."""
        return {}

    def layer_metrics(self, e2e: Dict[str, float]) -> Dict[str, float]:
        """Costs of the layers on this workload's path, and its ledger.

        ``e2e`` holds the measured end-to-end values, plus
        ``outside_makespan_s`` (wall minus ``RunResult.makespan``).
        """
        raise NotImplementedError

    def diagnostics(self, reps: List[Rep]) -> Dict[str, Any]:
        return {}


def _open_loop_diagnostics(reps: List[Rep]) -> Dict[str, float]:
    """Tail latency, and how late the open-loop generator ran."""
    diag = {}
    lat = [v for r in reps for v in r.latencies]
    late = [v for r in reps for v in r.details["late"]]
    if len(lat) >= 100:
        diag["latency_p99_ms"] = float(np.percentile(lat, 99)) * 1e3
    if len(late) >= 100:
        diag["gen.late_ms_p99"] = float(np.percentile(late, 99)) * 1e3
    return diag


def _obs_layers() -> Dict[str, float]:
    return {"obs.probe_tick_us": layers.probe_tick_us(),
            "obs.span_us": layers.span_us()}


# -- farm-paced ------------------------------------------------------------

class FarmPaced(Workload):
    name = "farm-paced"
    why = ("an ordered 2-replica thread farm of a body the body compiler "
           "cannot lower, fed open loop at 10k items/s: prices the "
           "per-envelope path, and park/wake and reorder hold set the "
           "latency")
    RATE = 10000.0
    N_ITEMS = 10000
    REPLICAS = 2

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.xs = [int(v) for v in rng.integers(0, 1 << 31, self.N_ITEMS)]

    def _graph(self, source, sink):
        return linear_graph(
            source,
            Farm(StageSpec(FunctionStage(mix), "mix", vectorized="auto"),
                 replicas=self.REPLICAS, ordered=True, name="farm"),
            StageSpec(FunctionStage(sink), "sink"))

    def _config(self, tracer=None) -> ExecConfig:
        return ExecConfig(mode="native", tracer=tracer)

    def setup(self) -> None:
        build_plan(self._graph(PacedSource(self.xs, self.RATE),
                               PacedArrivals()), self._config())

    def reference(self) -> None:
        self.expected = [mix((x, 0.0))[0] for x in self.xs]

    def _check(self, result) -> bool:
        # the scalar path must really be the one measured
        fallback = str(result.details["opt"]["bodycomp"].get("mix", ""))
        return (result.outputs == self.expected
                and fallback.startswith("fallback"))

    def run_once(self, tracer=None, workers="thread") -> Rep:
        source, sink = PacedSource(self.xs, self.RATE), PacedArrivals()
        graph = self._graph(source, sink)
        t0 = time.perf_counter()
        result = execute(graph, self._config(tracer))
        wall = time.perf_counter() - t0
        return Rep(wall, len(self.xs), 8 * len(self.xs) / (1 << 20),
                   sink.latencies, wall - result.makespan,
                   self._check(result),
                   {"stage_metrics": result.stage_metrics,
                    "makespan": result.makespan, "late": source.late})

    def baseline_items_per_s(self) -> float:
        items = [(x, 0.0) for x in self.xs]
        return _seq_rate(lambda: [passthrough(mix(it)) for it in items],
                         len(items))

    def layer_metrics(self, e2e):
        item = (self.xs[0], 0.0)
        lay = {
            "items.envelope_us": layers.envelope_us(item),
            "channel.spsc_hop_us": layers.spsc_hop_us(item),
            "channel.mpmc_hop_us": layers.mpmc_hop_us(item),
            "channel.wakeup_us": layers.wakeup_us(item),
            "ordering.rob_push_inorder_us": layers.rob_push_us(item, False),
            "ordering.rob_push_shuffled_us": layers.rob_push_us(item, True),
            "stage.call_us": layers.stage_call_us(mix, item),
            "stage.sink_call_us": layers.stage_call_us(passthrough, item),
            "plan.build_ms": layers.plan_build_ms(
                lambda: self._graph(PacedSource(self.xs, self.RATE),
                                    PacedArrivals()), self._config()),
            "executor.outside_makespan_s": e2e["outside_makespan_s"],
        }
        lay.update(_obs_layers())
        # envelope, SPSC hop to a replica, body, MPMC hop to the sink,
        # in-order reorder push, sink call; each hop into a near-empty
        # queue wakes a parked consumer
        predicted = (lay["items.envelope_us"] + lay["channel.spsc_hop_us"]
                     + lay["stage.call_us"] + lay["channel.mpmc_hop_us"]
                     + lay["ordering.rob_push_inorder_us"]
                     + lay["stage.sink_call_us"]
                     + 2 * lay["channel.wakeup_us"])
        return _ledger(lay, predicted, e2e["latency_p50_ms"] * 1e3)

    def diagnostics(self, reps):
        diag: Dict[str, Any] = {}
        last = reps[-1].details if reps else {}
        makespan = last.get("makespan") or 0.0
        for name, m in (last.get("stage_metrics") or {}).items():
            if makespan > 0:
                diag[f"stage_util.{name}"] = m.busy_time / (
                    makespan * max(1, m.replicas))
        diag.update(_open_loop_diagnostics(reps))
        return diag


# -- pixels-columnar -----------------------------------------------------

def _frame_params(seed: int, frames: int, dim: int,
                  niter: int = 256) -> List[MandelParams]:
    """Seeded windows near the paper's default view (all with structure)."""
    rng = np.random.default_rng(seed)
    return [MandelParams(dim=dim, niter=niter,
                         init_a=-0.80 + float(rng.uniform(-0.05, 0.05)),
                         init_b=0.05 + float(rng.uniform(-0.05, 0.05)),
                         range_=0.20)
            for _ in range(frames)]


class PixelsColumnar(Workload):
    name = "pixels-columnar"
    why = ("Mandelbrot frames streamed at a fixed line rate as line "
           "ItemBlocks through a compiled pixel kernel to a block sink: the "
           "columnar fast path, with the per-item scalar path bypassed")
    # The gated runs use the thread backend: on the process backend about
    # one run in 60 raises a spurious "failed to exit" error, which would
    # make every comparison of failed runs a coin toss.  --trace 1 prices
    # the process driver and counts those errors (see README.md).
    probe_process = True
    FRAMES = 4
    DIM = 384
    # Open loop, at about a third of the closed-loop line rate on a 2-vCPU
    # VM: closed-loop runs on that host swung by up to 2x from run to run
    # and by a third between minutes, past any usable bound.
    LINE_RATE = 3000.0

    def __init__(self, seed: int):
        self.params = _frame_params(seed, self.FRAMES, self.DIM)
        self.niter = self.params[0].niter
        self.items = self.FRAMES * self.DIM * self.DIM

    def _spec(self) -> StageSpec:
        return StageSpec(FunctionStage(pixel_stat), "pixel_stat",
                         vectorized="auto")

    def _graph(self, source, sink):
        # max_replicas keeps the 1-replica farm an ordered farm (inert
        # without a tuning policy), so blocks pass the range reorder path
        return linear_graph(
            source,
            Farm(self._spec(), replicas=1, max_replicas=2, ordered=True,
                 name="pixels"),
            StageSpec(FunctionStage(sink), "sink", accepts_blocks=True))

    def _config(self, tracer=None, workers="thread") -> ExecConfig:
        # batch_size 1 (the default): a paced line is handed on at once
        return ExecConfig(mode="native", workers=workers, tracer=tracer)

    def _source(self) -> PacedLineSource:
        return PacedLineSource(self.counts, self.niter, self.LINE_RATE)

    def setup(self) -> None:
        self.counts = np.concatenate(
            [mandel_seq.mandelbrot_grid(p) for p in self.params])
        self.grid_misses = mandel_seq._grid_cached.cache_info().misses
        build_plan(self._graph(self._source(), Arrivals()), self._config())

    def reference(self) -> None:
        self.image = np.concatenate(
            [mandel_seq.mandelbrot_sequential(p) for p in self.params])

    def _check(self, result) -> bool:
        opt = result.details["opt"]
        if (opt["bodycomp"].get("pixel_stat") != "compiled"
                or opt["columnar"].get("pixel_stat") != "columnar"
                or opt["columnar"].get("sink") != "columnar"):
            return False  # the run quietly measured the object path
        colors = np.fromiter((c for c, _ in result.outputs), dtype=np.uint8,
                             count=len(result.outputs))
        return (colors.size == self.image.size
                and bool((colors.reshape(self.image.shape)
                          == self.image).all()))

    def run_once(self, tracer=None, workers="thread") -> Rep:
        source, sink = self._source(), Arrivals()
        graph = self._graph(source, sink)
        cfg = self._config(tracer, workers)
        hits = kernel_cache_stats()["hits"]
        t0 = time.perf_counter()
        result = execute(graph, cfg)
        wall = time.perf_counter() - t0
        hits = kernel_cache_stats()["hits"] - hits
        # the farm is ordered: the k-th block at the sink is line k
        lat = [a - d for a, d in zip(sink.times, source.due)]
        return Rep(wall, self.items, 16 * self.items / (1 << 20), lat,
                   wall - result.makespan, self._check(result),
                   {"kernel_cache_hits": hits, "late": source.late})

    def baseline_items_per_s(self) -> float:
        return _seq_rate(
            lambda: [mandel_seq.mandelbrot_sequential(p)
                     for p in self.params], self.items)

    def diagnostics(self, reps):
        return _open_loop_diagnostics(reps)

    def counters(self, reps):
        return {"opt.kernel_cache_hits": statistics.mean(
                    r.details["kernel_cache_hits"] for r in reps),
                "mandel.grid_cache_misses": float(self.grid_misses)}

    def layer_metrics(self, e2e):
        block = next(iter(PixelLineSource(self.counts[:self.DIM],
                                          self.niter).generate(None)))
        kernel, _ = try_compile_spec(self._spec())
        out_block = kernel.call_block(block)
        lay = {
            "items.envelope_us": layers.envelope_us(block),
            "channel.spsc_hop_us": layers.spsc_hop_us(block),
            "channel.wakeup_us": layers.wakeup_us(block),
            "stage.sink_call_us": layers.stage_call_us(passthrough,
                                                       out_block),
            "opt.compile_ms": layers.compile_ms(self._spec),
            "opt.kernel_block_us": layers.kernel_block_us(kernel, block),
            "ordering.rob_push_range_us":
                layers.rob_push_range_us(out_block),
            "items.block_to_items_us_per_item":
                layers.block_to_items_us_per_item(out_block),
            "plan.build_ms": layers.plan_build_ms(
                lambda: self._graph(self._source(), Arrivals()),
                self._config()),
            "executor.outside_makespan_s": e2e["outside_makespan_s"],
        }
        lay.update(layers.shm_frame_costs(block))
        lay.update(_obs_layers())
        # a line's latency: one envelope, a ring hop in and one out, each
        # waking a parked consumer, the kernel, the range push and the
        # sink call (output materialization comes after the stream)
        predicted = (lay["items.envelope_us"]
                     + 2 * (lay["channel.spsc_hop_us"]
                            + lay["channel.wakeup_us"])
                     + lay["opt.kernel_block_us"]
                     + lay["ordering.rob_push_range_us"]
                     + lay["stage.sink_call_us"])
        return _ledger(lay, predicted, e2e["latency_p50_ms"] * 1e3)


# -- dedup-sim -----------------------------------------------------------

class DedupSim(Workload):
    name = "dedup-sim"
    why = ("the Fig. 5 SPar+GPU Dedup configs in simulated mode: sim "
           "engine, GPU device model, SPar and Dedup, which no native "
           "workload touches")
    SIZE = 512 * 1024
    BATCH = 64 * 1024
    REPLICAS = 19
    fast_end = True  # the simulation runs on one thread

    def __init__(self, seed: int):
        self.data = parsec_large(self.SIZE, seed=seed)
        self.configs = [
            GpuDedupConfig(api="cuda", model="spar", replicas=self.REPLICAS,
                           batch_size=self.BATCH),
            GpuDedupConfig(api="opencl", model="spar",
                           replicas=self.REPLICAS, mem_spaces=2,
                           batch_size=self.BATCH),
            GpuDedupConfig(api="cuda", model="spar", replicas=self.REPLICAS,
                           n_gpus=2, batch_size=self.BATCH),
        ]

    def _job(self, cfg, tracer=None):
        machine = paper_machine(cfg.n_gpus)
        sim = ExecConfig(mode=ExecMode.SIMULATED, machine=machine,
                         tracer=tracer)
        return dedup_gpu(self.data, cfg, machine=machine,
                         prechunked=self.batches, exec_config=sim)

    def setup(self) -> None:
        self.batches = make_batches(self.data, GearChunker(),
                                    batch_size=self.BATCH)
        # the first config fills the LZSS memo cold; timed runs see it warm
        outs = [self._job(cfg) for cfg in self.configs]
        self.makespans = [o.result.makespan for o in outs]
        self.dedup_ratio = outs[0].store.dedup_ratio()
        self.hits0, self.misses0 = lzss_cache.hits, lzss_cache.misses

    def run_once(self, tracer=None, workers="thread") -> Rep:
        walls, outs = [], []
        for cfg in self.configs:
            t0 = time.perf_counter()
            outs.append(self._job(cfg, tracer))
            walls.append(time.perf_counter() - t0)
        ok = all(verify_archive(o.archive, self.data) for o in outs)
        ok = ok and [o.result.makespan for o in outs] == self.makespans
        n = len(self.configs)
        return Rep(sum(walls), n * len(self.batches),
                   n * len(self.data) / (1 << 20), walls, 0.0, ok)

    def baseline_items_per_s(self) -> float:
        cfg = GpuDedupConfig(api="cuda", model="single", batch_size=self.BATCH)
        return _seq_rate(
            lambda: dedup_gpu(self.data, cfg, prechunked=self.batches),
            len(self.batches))

    def counters(self, reps):
        hits = lzss_cache.hits - self.hits0
        misses = lzss_cache.misses - self.misses0
        return {"sim.virtual_makespan_s": float(sum(self.makespans)),
                "lzss.cache_hit_ratio": (hits / (hits + misses)
                                         if hits + misses else 0.0),
                "dedup.dedup_ratio": float(self.dedup_ratio)}

    def layer_metrics(self, e2e):
        corpus = self.data[:128 * 1024]
        batches = make_batches(corpus, GearChunker(), batch_size=self.BATCH)
        job_cfg = GpuDedupConfig(api="cuda", model="single",
                                 batch_size=self.BATCH)

        def graph():
            # the shape SPar lowers Fig. 3 to: a replicated stage between
            # a source and three serial stages
            return linear_graph(
                IterSource(self.batches),
                StageSpec(FunctionStage(passthrough), "sha1",
                          replicas=self.REPLICAS),
                StageSpec(FunctionStage(passthrough), "dupcheck"),
                StageSpec(FunctionStage(passthrough), "compress"),
                StageSpec(FunctionStage(passthrough), "write"))
        lay = {
            "dedup.chunk_mb_per_s": layers.chunk_mb_per_s(corpus,
                                                          self.BATCH),
            "sim.us_per_item": layers.sim_us_per_item(),
            "plan.build_ms": layers.plan_build_ms(
                graph, ExecConfig(mode=ExecMode.SIMULATED)),
            # empties the LZSS memo: the counters were read before
            "lzss.cold_us_per_kb": layers.lzss_cold_us_per_kb(
                lambda: dedup_gpu(corpus, job_cfg, prechunked=batches),
                len(corpus) / 1024),
        }
        # after the LZSS job: FindMatch sees the memo warm, as in timed runs
        lay.update(layers.gpu_launch_ms(batches[0]))
        lay.update(_obs_layers())
        # per batch and config: two kernel launches and five sim units
        # (sim.us_per_item prices a three-unit graph)
        predicted = (1e3 * (lay["gpu.sha1_launch_ms"]
                            + lay["gpu.findmatch_launch_ms"])
                     + lay["sim.us_per_item"] * 5 / 3)
        return _ledger(lay, predicted, 1e6 / e2e["items_per_s"])


WORKLOADS = {w.name: w for w in (FarmPaced, PixelsColumnar, DedupSim)}
