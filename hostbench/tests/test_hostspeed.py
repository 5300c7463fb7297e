import signal
import time

import pytest

import hostspeed
from hostspeed import HostSpeed


def test_window_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    speed = HostSpeed()
    with speed.active():
        t_end = time.perf_counter() + 5 * hostspeed.SAMPLE_PERIOD_S
        while time.perf_counter() < t_end:
            pass
    assert len(speed.controls) >= 2 and speed.spent > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_short_window_gets_one_sample_after_it():
    speed = HostSpeed()
    with speed.active():
        pass
    assert len(speed.controls) == 1 and speed.spent == 0.0


def test_at_reference_nets_out_the_handler_and_scales_by_the_control():
    speed = HostSpeed()
    ref = hostspeed.CONTROL_REF_S
    speed.controls = [(ref, ref), (3 * ref, ref)]
    speed.spent = 0.5
    assert speed.at_reference(2.5) == pytest.approx(1.0)
    assert speed.at_reference(2.5, cpu=True) == pytest.approx(2.0)
