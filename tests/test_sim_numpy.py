"""Unit tests of the simulator's numpy kernel, which need numpy installed.

tests/test_sim.py tests the rest of the simulator and runs without numpy;
the checks the two kernels share are written there once.
"""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from newcomb import sim
from test_sim import (
    _DRAWN_QS,
    _KERNEL_SPANS,
    _assert_kernel_counts_the_draws,
    _assert_kernel_counts_the_draws_across_chunks,
    _threshold,
)

# numpy's kernel with the trials it handles in one pass
KERNELS = pytest.mark.parametrize("count, chunk", [(sim._count_s1_numpy, sim._CHUNK)], ids=["numpy"])


@KERNELS
@settings(deadline=None)
@given(**_KERNEL_SPANS)
def test_kernel_counts_the_draws_of_trial_streams(count, chunk, seed, n, at_top, start, q):
    _assert_kernel_counts_the_draws(count, seed, n, at_top, start, q)


@KERNELS
@pytest.mark.parametrize("at_top", [False, True], ids=["from-0", "to-2^64"])
def test_kernel_counts_the_draws_of_trial_streams_across_chunks(count, chunk, at_top):
    _assert_kernel_counts_the_draws_across_chunks(count, chunk, at_top)


@settings(deadline=None)
@given(
    seed=st.integers(0, (1 << 64) - 1),
    n=st.integers(0, 4 * sim._LANES),
    at_top=st.booleans(),
    start=st.integers(0, (1 << 64) - 4 * sim._LANES),
    q=_DRAWN_QS,
)
def test_lane_and_numpy_kernels_agree_across_lane_passes(seed, n, at_top, start, q):
    # Spans of up to four lane passes, whose last pass is usually a short one;
    # at_top puts the span against 2^64, where the Weyl offset wraps
    start = (1 << 64) - n - start % 4 if at_top else start
    t = _threshold(q)
    assert sim._count_s1_lanes(seed, start, start + n, t) == sim._count_s1_numpy(seed, start, start + n, t)


def test_numpy_kernel_memory_is_bounded_by_one_chunk():
    # The kernel's arrays hold one _CHUNK-trial pass, so its peak does not grow
    # with the batch: 16 chunks peak within a few Python objects (not one
    # 512 KiB array of the pass) of 1 chunk.
    def peak(n):
        tracemalloc.start()
        try:
            sim._count_s1_numpy(5, 0, n, 1 << 63)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sim._count_s1_numpy(5, 0, 1, 1 << 63)  # numpy's import and first-call caches
    one, sixteen = peak(sim._CHUNK), peak(16 * sim._CHUNK)
    assert abs(sixteen - one) < 4096
    assert sixteen < 2 << 20
