"""LZSS tests: format, matcher equivalence, roundtrips, GPU kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lzss import (
    MAX_CODED,
    MIN_MATCH,
    WINDOW_SIZE,
    compress,
    compress_block,
    compress_batch_gpu,
    decompress,
    find_longest_match,
    find_longest_match_bruteforce,
)
from repro.apps.lzss.format import LzssFormatError, TokenWriter, tokens_to_stream
from repro.apps.lzss.gpu import GpuLzss, make_findmatch_kernel
from repro.apps.lzss.reference import roundtrip
from repro.gpu.cuda import CudaRuntime
from repro.sim.context import WorkCursor, use_cursor
from repro.sim.machine import paper_machine


# -- token stream format --------------------------------------------------------

def test_token_writer_literal_flags():
    w = TokenWriter()
    for b in b"abc":
        w.literal(b)
    stream = w.getvalue()
    assert stream[0] == 0b111  # three literal flag bits
    assert stream[1:] == b"abc"
    assert decompress(stream, 3) == b"abc"


def test_match_encoding_roundtrip():
    stream = tokens_to_stream([("lit", ord("x")), ("lit", ord("y")),
                               ("lit", ord("z")), ("match", 3, 3)])
    assert decompress(stream, 6) == b"xyzxyz"


def test_match_bounds_validated():
    w = TokenWriter()
    with pytest.raises(LzssFormatError):
        w.match(0, 5)
    with pytest.raises(LzssFormatError):
        w.match(WINDOW_SIZE + 1, 5)
    with pytest.raises(LzssFormatError):
        w.match(1, MIN_MATCH - 1)
    with pytest.raises(LzssFormatError):
        w.match(1, MAX_CODED + 1)


def test_decompress_detects_truncation_and_garbage():
    stream = tokens_to_stream([("lit", 65)])
    with pytest.raises(LzssFormatError):
        decompress(stream, 2)  # expects more output
    with pytest.raises(LzssFormatError):
        decompress(stream + b"junk", 1)  # trailing bytes
    with pytest.raises(LzssFormatError):
        decompress(b"", 1)


def test_decompress_rejects_match_before_block_start():
    w = TokenWriter()
    w.literal(65)
    w.match(5, 3)  # reaches 4 bytes before block start
    with pytest.raises(LzssFormatError, match="before block start"):
        decompress(w.getvalue(), 4)


# -- matcher ------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=1, max_size=160),
       st.integers(0, 159), st.data())
def test_matcher_equivalence_property(data, pos, aux):
    pos = min(pos, len(data) - 1)
    block_start = aux.draw(st.integers(0, pos))
    block_end = aux.draw(st.integers(pos + 1, len(data)))
    fast = find_longest_match(data, pos, block_start, block_end)
    brute = find_longest_match_bruteforce(data, pos, block_start, block_end)
    assert fast == brute


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=500), st.booleans())
def test_roundtrip_property(data, split):
    starts = [0] if not split or len(data) < 2 else [0, len(data) // 2]
    _blocks, restored = roundtrip(data, starts)
    assert restored == data


def test_matches_never_cross_block_boundary():
    # identical halves, but split into two blocks: no cross-block match
    data = b"ABCDEFGH" * 8
    half = len(data) // 2
    length, distance = find_longest_match(data, half, half, len(data))
    assert length == 0  # nothing before `half` inside the block


def test_no_overlapping_matches():
    # runs compress to at most distance >= length tokens (Listing 3's bound)
    data = b"a" * 100
    stream = compress_block(data, 0, len(data))
    assert decompress(stream, 100) == data
    pos, n = 0, len(stream)
    out_len = 0
    while out_len < 100:
        flags = stream[pos]
        pos += 1
        for bit in range(8):
            if out_len >= 100:
                break
            if flags & (1 << bit):
                pos += 1
                out_len += 1
            else:
                code = (stream[pos] << 8) | stream[pos + 1]
                distance, length = (code >> 4) + 1, (code & 0xF) + MIN_MATCH
                assert distance >= length  # non-overlapping
                pos += 2
                out_len += length


def test_compress_block_starts_validation():
    with pytest.raises(ValueError):
        compress(b"abc", [1])
    with pytest.raises(ValueError):
        compress(b"abc", [0, 5])
    with pytest.raises(ValueError):
        compress(b"abcdef", [0, 4, 2])


def test_compressible_data_shrinks():
    data = b"the quick brown fox " * 100
    blocks = compress(data)
    assert sum(len(b) for b in blocks) < len(data) * 0.3


def test_incompressible_data_overhead_is_bounded():
    rng = np.random.default_rng(3)
    data = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
    blocks = compress(data)
    assert sum(len(b) for b in blocks) <= len(data) * 9 / 8 + 16


# -- GPU path ----------------------------------------------------------------------------

@pytest.fixture
def cuda():
    return CudaRuntime(paper_machine(1))


def _sample_batch():
    rng = np.random.default_rng(7)
    text = (b"stream processing with gpus " * 120)[:3000]
    noise = rng.integers(0, 256, 1500, dtype=np.uint8).tobytes()
    data = text + noise + text[:1000]
    return data, [0, 2048, 4096]


def test_gpu_batch_equals_cpu(cuda):
    data, starts = _sample_batch()
    cpu_blocks = compress(data, starts)
    gpu_blocks, _ = compress_batch_gpu(cuda, data, starts)
    assert gpu_blocks == cpu_blocks


def test_gpu_per_block_equals_batched(cuda):
    data, starts = _sample_batch()
    batched, lz = compress_batch_gpu(cuda, data, starts)
    per_block, _ = compress_batch_gpu(cuda, data, starts, per_block=True,
                                      lz=lz, stream=cuda.stream_create())
    assert per_block == batched


def test_gpu_batched_is_faster_than_per_block(cuda):
    data, starts = _sample_batch()
    m = paper_machine(1)

    def timed(per_block):
        rt = CudaRuntime(m)
        cursor = WorkCursor(0.0, cpu_spec=m.cpu, thread_id="t")
        with use_cursor(cursor):
            compress_batch_gpu(rt, data, starts, per_block=per_block)
        return cursor.now

    from repro.apps.lzss import cache

    cache.clear()
    t_batch = timed(False)
    cache.clear()
    t_per_block = timed(True)
    assert t_per_block > t_batch


def test_findmatch_kernel_lane_work_includes_startpos_scan():
    """Listing 3 lines 4-10: every thread scans the whole startPoss."""
    from repro.apps.lzss.gpu import _lane_work

    tid = np.arange(100)
    starts = np.array([0, 50])
    work = _lane_work(tid, 100, starts, 2)
    assert work[0] == 2  # nsp only (zero window at block start)
    assert work[49] == 2 + 49
    assert work[50] == 2  # new block: window resets
    assert work.shape == (100,)


def _lane_work_reference(tid, size, starts, nsp, dup):
    """Listing 3's lane work as a binary search of every lane's byte."""
    valid = tid < size
    clipped = np.minimum(tid, size - 1)
    bidx = np.clip(np.searchsorted(starts, clipped, side="right") - 1, 0, None)
    scan = np.minimum(clipped - starts[bidx], WINDOW_SIZE)
    work = np.where(valid, float(nsp) + scan, 0.0)
    in_dup = dup[bidx] & valid
    return np.where(in_dup, float(nsp), work)


def _random_starts(rng, size, anchored):
    """Sorted block starts, some repeated (zero-length blocks), the first
    at 0 or past it."""
    nsp = int(rng.integers(1, 40))
    starts = np.sort(rng.integers(0, size + 1, nsp)).astype(np.int64)
    if nsp > 3:
        starts[2] = starts[1]
    if anchored:
        starts[0] = 0
        return starts
    return np.maximum(starts, 1)


@pytest.mark.parametrize("anchored", [True, False])
def test_findmatch_lane_work_matches_binary_search(anchored):
    from repro.apps.lzss.gpu import _lane_work

    rng = np.random.default_rng(7 if anchored else 8)
    for _ in range(200):
        size = int(rng.integers(1, 20000))
        tail = int(rng.integers(0, 600))  # lanes past ``size``
        tid = np.arange(size + tail, dtype=np.int64)
        starts = _random_starts(rng, size, anchored)
        nsp = len(starts)
        dup = rng.random(nsp) < 0.3
        for flags in (dup, np.zeros(nsp, dtype=bool)):
            want = _lane_work_reference(tid, size, starts, nsp, flags)
            got = _lane_work(tid, size, starts, nsp, flags)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        plain = _lane_work(tid, size, starts, nsp)
        assert plain.tobytes() == want.tobytes()


def test_findmatch_lane_work_block_ends_and_trailing_empty_blocks():
    from repro.apps.lzss.gpu import _lane_work

    size = 10
    tid = np.arange(16)
    starts = np.array([0, 4, 4, 10, 10], dtype=np.int64)
    dup = np.array([False, True, False, True, False])
    work = _lane_work(tid, size, starts, 5, dup)
    assert work.tobytes() == _lane_work_reference(
        tid, size, starts, 5, dup).tobytes()
    assert list(work[:4]) == [5, 6, 7, 8]
    assert list(work[4:10]) == [5, 6, 7, 8, 9, 10]  # block 2, not dup block 1
    assert not work[10:].any()


#: virtual makespans of the Fig. 5 SPar+GPU Dedup configs on the corpus
#: below, pinned before lane accounting moved to segment expansion
_FIG5_SPAR_GPU_MAKESPANS = {
    "spar cuda batch": 0.005621594314236337,
    "spar opencl batch 2xmem": 0.005659347768781792,
    "spar cuda batch 2gpu": 0.004098006805666566,
    "spar cuda no-batch": 0.012605763912633591,
}


def test_fig5_spar_gpu_virtual_makespans_are_pinned():
    from repro.apps.datasets import parsec_large
    from repro.apps.dedup import dedup_gpu, verify_archive
    from repro.apps.dedup.pipeline_gpu import GpuDedupConfig
    from repro.apps.dedup.rabin import GearChunker, make_batches
    from repro.core.config import ExecConfig, ExecMode

    batch = 32 * 1024
    data = parsec_large(size=256 * 1024, seed=5)
    batches = make_batches(data, GearChunker(mask_bits=11, min_block=512,
                                             max_block=8192),
                           batch_size=batch)
    configs = [
        GpuDedupConfig(api="cuda", model="spar", batch_size=batch),
        GpuDedupConfig(api="opencl", model="spar", mem_spaces=2,
                       batch_size=batch),
        GpuDedupConfig(api="cuda", model="spar", n_gpus=2, batch_size=batch),
        GpuDedupConfig(api="cuda", model="spar", batch_opt=False,
                       batch_size=batch),
    ]
    got = {}
    for cfg in configs:
        machine = paper_machine(cfg.n_gpus)
        out = dedup_gpu(data, cfg, machine=machine, prechunked=batches,
                        exec_config=ExecConfig(mode=ExecMode.SIMULATED,
                                               machine=machine))
        assert verify_archive(out.archive, data)
        got[cfg.label] = out.result.makespan
    assert got == _FIG5_SPAR_GPU_MAKESPANS


def test_gpu_state_reuse_and_free(cuda):
    data, starts = _sample_batch()
    lz = GpuLzss(cuda, max_batch=len(data), max_blocks=8)
    st = cuda.stream_create()
    b1 = lz.compress_batch(data, starts, st)
    b2 = lz.compress_batch(data, starts, st, input_already_on_device=True)
    assert b1 == b2
    used_before = cuda.devices[0].mem_used
    lz.free()
    assert cuda.devices[0].mem_used < used_before


def test_lzss_cache_hits_across_paths(cuda):
    from repro.apps.lzss import cache

    data, starts = _sample_batch()
    compress(data, starts)           # CPU fills the cache
    before = cache.hits
    gpu_blocks, _ = compress_batch_gpu(cuda, data, starts)
    assert cache.hits > before       # GPU path reused the entries
    assert gpu_blocks == compress(data, starts)
