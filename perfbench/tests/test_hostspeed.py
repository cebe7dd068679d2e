"""The speed kernel does fixed work and scaling is proportional."""

import signal
import time

import pytest

from perfbench import hostspeed


def test_kernel_does_the_same_work_every_call():
    assert hostspeed.kernel() == hostspeed.kernel()


def test_scaled_is_proportional_to_time_and_inverse_to_kernel_time():
    ref = hostspeed.REF_KERNEL_S
    assert hostspeed.scaled(2.0, [ref]) == pytest.approx(2.0)
    assert hostspeed.scaled(2.0, [ref, 3 * ref]) == pytest.approx(1.0)  # mean kernel time 2 * ref


def test_probe_samples_while_active_and_counts_its_own_time():
    with hostspeed.Probe(every_s=0.01) as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        samples = probe.take()
    assert len(samples) >= 5
    assert probe.stolen == pytest.approx(sum(samples), rel=0.2)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.take()) == 1  # an empty pass still gets one sample
