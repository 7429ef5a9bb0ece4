"""run_calibration refuses to start, or to fit, when its campaign cannot pin the fixture."""

from __future__ import annotations

import pytest

from isohull import calibration, harness
from isohull.harness import ConfigError, TrialError
from isohull.isotropy import NotSPDError


def injected_failure(*args, **kwargs):
    raise RuntimeError("injected failure")


@pytest.mark.parametrize("workers", [0, 999])
def test_bad_worker_count_fails_before_any_fit(monkeypatch, workers):
    for name in ("psi2_sphere_estimates", "bernstein_tail_table", "small_cap_constant"):
        monkeypatch.setattr(calibration, name, injected_failure)
    for name in ("ProcessPoolExecutor", "_trial_task"):
        monkeypatch.setattr(harness, name, injected_failure)
    with pytest.raises(ConfigError, match="^workers must be in"):
        calibration.run_calibration(workers)


def test_cell_without_a_record_fails_before_any_fit(monkeypatch):
    # a fixture that lacks a cell cannot pin that cell's figures
    real = harness.isotropy_constant

    def failing(volume, cov):
        if cov.shape == (3, 3):
            raise NotSPDError("injected failure")
        return real(volume, cov)

    monkeypatch.setattr(calibration, "default_grid", lambda: [(2, 4), (3, 6)])
    monkeypatch.setattr(harness, "isotropy_constant", failing)
    monkeypatch.setattr(calibration, "psi2_sphere_estimates", injected_failure)
    with pytest.raises(TrialError, match=r"cells \(n=3, m=6\)$"):
        calibration.run_calibration(1)
