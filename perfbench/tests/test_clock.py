"""Rescaling to reference speed: the calibration samples near a time set
its factor, and the kernel never touches zwcalc."""

import subprocess
import sys
from pathlib import Path

import pytest

import clock


def calibration(samples):
    cal = clock.Calibration()
    for at, took in samples:
        cal.at.append(at)
        cal.took.append(took)
    return cal


def test_factor_is_the_median_kernel_time_in_the_window():
    ref = clock.REFERENCE_S
    cal = calibration([(0.0, ref), (0.5, 2 * ref), (0.9, 2 * ref),
                       (10.0, 4 * ref)])
    assert cal.factor(0.5) == pytest.approx(0.5)
    # only the sample at 10 s lies within a second of 9.5 s
    assert cal.factor(9.5) == pytest.approx(0.25)
    # nothing within a second of 5 s: the nearest sample, at 0.9 s
    assert cal.factor(5.0) == pytest.approx(0.5)
    assert cal.factor(20.0) == pytest.approx(0.25)


def test_maybe_sample_keeps_its_interval():
    cal = clock.Calibration()
    cal.maybe_sample()
    cal.maybe_sample()
    assert len(cal.took) == 1
    assert cal.took[0] > 0


def test_kernel_imports_no_zwcalc():
    code = ("import sys, clock; clock.kernel(); "
            "print(any(m.startswith('zwcalc') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=Path(clock.__file__).parent)
    assert out.stdout.strip() == "False"
