"""Tests of the host-speed sampling that scales the benchmark's timings."""

from __future__ import annotations

import pytest

import hostspeed
from hostspeed import REF_SLICE_S, HostSpeed


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_reference_slice_is_timed():
    assert hostspeed.reference_slice() > 0


def test_reference_work_follows_the_gap():
    clock = Clock()
    speed = HostSpeed(clock=clock, run_slice=lambda: 2 * REF_SLICE_S)
    clock.now = 0.1
    speed.sample()
    assert speed.slices == []  # a gap under MIN_GAP_S waits for the next one
    clock.now = 10.0
    speed.sample()
    assert len(speed.slices) == round(hostspeed.SHARE * 10.0 / REF_SLICE_S)
    clock.now = 10.1
    speed.sample(force=True)
    assert len(speed.slices) == round(hostspeed.SHARE * 10.0 / REF_SLICE_S) + 1
    assert speed.slowdown() == pytest.approx(2.0)


def test_min_and_max_slices():
    clock = Clock()
    speed = HostSpeed(min_slices=10, clock=clock, run_slice=lambda: REF_SLICE_S)
    speed.sample(force=True)
    assert len(speed.slices) == 10
    clock.now = 1e6
    speed.sample()
    assert len(speed.slices) == 10 + hostspeed.MAX_SLICES
    assert speed.slowdown() == pytest.approx(1.0)
