"""Per-layer costs: the benchmark's own timed calls into each layer.

Every function here calls one layer's public classes directly, outside
any pipeline, and returns a cost per operation.  Generic layers (items,
channels, ordering, stage, shm) are timed on the workload's own item
shape; app-specific layers (body compiler, GPU model, LZSS, Dedup,
simulator) are timed on the shapes of the workload whose path they are
on.

Each timing is the median of several repetitions.  The costs feed the
layer ledger (``Workload.layer_metrics``): a workload's predicted
per-item cost is the sum of the layer costs along its plan path, in the
per-item ``g`` / per-batch ``l`` form of bulk-synchronous
pseudo-streaming.
"""

from __future__ import annotations

import pickle
import random
import statistics
import threading
import time
from typing import Any, Callable, Dict, List

import numpy as np

from repro.apps.dedup.gpu_kernels import DIGEST_BYTES, make_sha1_kernel
from repro.apps.dedup.rabin import GearChunker, make_batches
from repro.apps.lzss import cache
from repro.apps.lzss.gpu import make_findmatch_kernel
from repro.core.channel import AbortSignal, MpmcChannel, ShmChannel, SpscChannel
from repro.core.config import ExecConfig
from repro.core.graph import StageSpec, linear_graph
from repro.core.items import EOS, Envelope
from repro.core.opt.bodycomp import clear_body_cache, try_compile_spec
from repro.core.ordering import SimpleReorderBuffer
from repro.core.plan import build_plan
from repro.core.run import execute
from repro.core.stage import FunctionStage, IterSource, StageContext
from repro.gpu.cuda import CudaRuntime
from repro.obs import CAT_STAGE, SpanRecorder, UnitProbe
from repro.sim.machine import paper_machine

REPS = 7


def per_op_us(fn: Callable[[int], Any], n: int, reps: int = REPS) -> float:
    """Median over ``reps`` of the µs per operation of ``fn(n)``."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(n)
        samples.append((time.perf_counter() - t0) / n * 1e6)
    return statistics.median(samples)


# -- items ---------------------------------------------------------------

def envelope_us(payload: Any) -> float:
    def loop(n):
        for i in range(n):
            Envelope(i, 0, payload)
    return per_op_us(loop, 20000)


def block_to_items_us_per_item(block: Any) -> float:
    return per_op_us(lambda n: [block.to_items() for _ in range(n)],
                     20) / block.count


# -- channels ------------------------------------------------------------

def _hop_us(make, payload: Any) -> float:
    ch = make(512, AbortSignal())
    env = Envelope(0, 0, payload)

    def loop(n):
        put, get = ch.put, ch.get
        for _ in range(n):
            put(env)
            get()
    return per_op_us(loop, 20000)


def spsc_hop_us(payload: Any) -> float:
    return _hop_us(SpscChannel, payload)


def mpmc_hop_us(payload: Any) -> float:
    return _hop_us(MpmcChannel, payload)


def wakeup_us(payload: Any, samples: int = 300) -> float:
    """Median time from ``put`` to a parked consumer's ``get`` return."""
    ch = SpscChannel(512, AbortSignal(), blocking=True)
    lat: List[float] = []

    def consumer():
        while True:
            item = ch.get()
            t1 = time.perf_counter()
            if item is EOS:
                return
            lat.append(t1 - item[0])

    th = threading.Thread(target=consumer, name="wakeup-consumer")
    th.start()
    try:
        for _ in range(samples):
            time.sleep(0.0005)  # let the consumer park
            ch.put((time.perf_counter(), payload))
    finally:
        ch.put(EOS)
        th.join(timeout=10)
    return statistics.median(lat) * 1e6


def _frame_kb(payloads: List[Any]) -> float:
    """KB of a shm frame of one envelope per payload (protocol 5, with
    numpy columns out of band, as ShmChannel.put_obj writes it)."""
    bufs: List[Any] = []
    data = pickle.dumps([Envelope(0, 0, p) for p in payloads], protocol=5,
                        buffer_callback=bufs.append)
    return (len(data) + sum(b.raw().nbytes for b in bufs)) / 1024


def shm_frame_costs(payload: Any) -> Dict[str, float]:
    """ShmChannel put_obj+get_obj round trips on the workload's payload.

    Frames carry lists of envelopes, as the process backend ships them.
    The per-frame cost ``l`` is a frame of one envelope; the per-KB cost
    ``g`` is the slope up to a frame of as many envelopes as fill about
    256 KB.
    """
    small = [Envelope(0, 0, payload)]
    many = max(2, min(4096, int(256 / max(_frame_kb([payload]), 1e-3))))
    # distinct copies: pickle would send one shared payload only once
    raw = pickle.dumps(payload)
    copies = [pickle.loads(raw) for _ in range(many)]
    big = [Envelope(i, 0, p) for i, p in enumerate(copies)]
    ch = ShmChannel(1 << 20, None)
    try:
        def trip(obj):
            def loop(n):
                for _ in range(n):
                    ch.put_obj(obj, len(obj))
                    ch.get_obj()
            return loop
        t_small = per_op_us(trip(small), 200)
        t_big = per_op_us(trip(big), 20)
    finally:
        ch.close()
        ch.unlink()
    return {"channel.shm_frame_us": t_small,
            "channel.shm_us_per_kb":
                (t_big - t_small) / (_frame_kb(copies) - _frame_kb([payload]))}


# -- ordering ------------------------------------------------------------

def rob_push_us(payload: Any, shuffled: bool) -> float:
    """SimpleReorderBuffer.push per item, in order or skewed as a
    2-replica farm delivers (neighbours swapped in seeded windows)."""
    n_items = 20000
    seqs = list(range(n_items))
    if shuffled:
        rng = random.Random(1)
        for w in range(0, n_items, 8):
            window = seqs[w:w + 8]
            rng.shuffle(window)
            seqs[w:w + 8] = window

    def loop(n):
        rob = SimpleReorderBuffer()
        push = rob.push
        for s in seqs:
            for _ in push(s, payload):
                pass
    return per_op_us(loop, n_items)


def rob_push_range_us(block: Any) -> float:
    """SimpleReorderBuffer.push_range per block, in order."""

    count = block.count

    def loop(n):
        rob = SimpleReorderBuffer()
        for k in range(n):
            for _ in rob.push_range(k * count, count, block):
                pass
    return per_op_us(loop, 5000)


# -- stage ---------------------------------------------------------------

def stage_call_us(fn: Callable[[Any], Any], item: Any) -> float:
    stage = FunctionStage(fn)
    ctx = StageContext("bench", 0, 1)

    def loop(n):
        process = stage.process
        for _ in range(n):
            process(item, ctx)
    return per_op_us(loop, 20000)


# -- optimizer (body compiler + kernel) -----------------------------------

def compile_ms(spec_factory: Callable[[], Any]) -> float:
    """Cold body compile of one ``vectorized="auto"`` stage spec."""
    samples = []
    for _ in range(REPS):
        clear_body_cache()
        spec = spec_factory()
        t0 = time.perf_counter()
        kernel, reason = try_compile_spec(spec)
        samples.append((time.perf_counter() - t0) * 1e3)
        if kernel is None:
            raise RuntimeError(f"body did not compile: {reason}")
    return statistics.median(samples)


def kernel_block_us(kernel: Any, block: Any) -> float:
    def loop(n):
        for _ in range(n):
            kernel.call_block(block)
    return per_op_us(loop, 500)


def plan_build_ms(make_graph: Callable[[], Any], cfg: Any) -> float:
    samples = []
    for _ in range(REPS):
        graph = make_graph()
        t0 = time.perf_counter()
        build_plan(graph, cfg)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


# -- observability -------------------------------------------------------

def probe_tick_us() -> float:
    probe = UnitProbe("stage", "bench")

    def loop(n):
        record = probe.record
        for _ in range(n):
            record(2e-6, 1)
    return per_op_us(loop, 20000)


def span_us() -> float:
    def loop(n):
        span = SpanRecorder().span
        for i in range(n):
            span(CAT_STAGE, "bench[0]", "bench", i * 1e-6, i * 1e-6 + 5e-7)
    return per_op_us(loop, 20000)


# -- simulator -----------------------------------------------------------

def sim_us_per_item(n_items: int = 2000) -> float:
    """Wall µs per item of a source -> 2-farm -> sink graph run in
    simulated mode: the discrete-event engine plus the sim executor."""
    def loop(n):
        graph = linear_graph(
            IterSource(range(n)),
            StageSpec(FunctionStage(abs), "work", replicas=2),
            StageSpec(FunctionStage(abs), "sink"))
        execute(graph, ExecConfig(mode="simulated"))
    return per_op_us(loop, n_items, reps=5)


# -- GPU model, LZSS, Dedup ----------------------------------------------

def gpu_launch_ms(batch: Any) -> Dict[str, float]:
    """One SHA-1 and one batched FindMatch launch on the CUDA device
    model, for one Dedup batch (launch plus stream synchronize)."""


    cuda = CudaRuntime(paper_machine(1))
    size, n_blocks = len(batch.data), batch.n_blocks
    d_in = cuda.malloc(size)
    d_starts = cuda.malloc(8 * n_blocks, dtype=np.int64)
    d_dig = cuda.malloc(DIGEST_BYTES * n_blocks)
    d_mlen = cuda.malloc(4 * size, dtype=np.int32)
    d_moff = cuda.malloc(4 * size, dtype=np.int32)
    h_in = cuda.malloc_host(size)
    h_starts = cuda.malloc_host(8 * n_blocks, dtype=np.int64)
    h_in.raw[:size] = np.frombuffer(batch.data, dtype=np.uint8)
    h_starts.raw.view(np.int64)[:n_blocks] = np.asarray(
        batch.start_positions, dtype=np.int64)
    stream = cuda.stream_create()
    cuda.memcpy_h2d_async(d_in, h_in, stream, nbytes=size)
    cuda.memcpy_h2d_async(d_starts, h_starts, stream, nbytes=8 * n_blocks)
    cuda.stream_synchronize(stream)
    sha1, findmatch = make_sha1_kernel(), make_findmatch_kernel()

    def timed(launch):
        samples = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            launch()
            cuda.stream_synchronize(stream)
            samples.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(samples)

    out = {
        "gpu.sha1_launch_ms": timed(lambda: cuda.launch(
            sha1, -(-n_blocks // 256), 256, d_in, size, d_starts, n_blocks,
            d_dig, stream=stream)),
        "gpu.findmatch_launch_ms": timed(lambda: cuda.launch(
            findmatch, -(-size // 256), 256, d_in, size, d_starts, n_blocks,
            d_mlen, d_moff, stream=stream)),
    }
    for buf in (d_in, d_starts, d_dig, d_mlen, d_moff):
        buf.free()
    for buf in (h_in, h_starts):
        buf.free()
    return out


def lzss_cold_us_per_kb(run_job: Callable[[], Any], kb: float) -> float:
    """Cold minus warm wall time of one Dedup job, per input KB.

    Empties the process-wide LZSS memo first, so call it only after the
    workload's own counters have been read.
    """
    samples = []
    for _ in range(3):
        cache.clear()
        t0 = time.perf_counter()
        run_job()
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_job()
        warm = time.perf_counter() - t0
        samples.append((cold - warm) / kb * 1e6)
    return statistics.median(samples)


def chunk_mb_per_s(data: bytes, batch_size: int) -> float:
    samples = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        make_batches(data, GearChunker(), batch_size=batch_size)
        samples.append(len(data) / (1 << 20) / (time.perf_counter() - t0))
    return statistics.median(samples)
