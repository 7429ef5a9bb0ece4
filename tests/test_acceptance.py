"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The campaign-backed
criteria share one default-grid run (session fixture); its wall time is
asserted inside criterion 7.  They are marked ``slow``: ``pytest -m "not
slow"`` runs everything else.
"""

from __future__ import annotations

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from isohull.calibration import (
    bernstein_tail_table,
    build_fingerprint,
    diff_record_digests,
    load_fixture,
    psi2_sphere_estimates,
    record_digests,
)
from isohull.harness import (
    default_grid,
    check_inradius_bound,
    check_isotropy_threshold,
    check_second_moment_bound,
    derive_seed,
    run_experiment,
    ExperimentConfig,
)
from isohull.hull import inradius, symmetric_hull, validate_complex
from isohull.isotropy import isotropy_constant
from isohull.moments import (
    mc_moment_oracle,
    polytope_covariance,
    polytope_mean_square,
    polytope_volume,
)
from isohull.sphere_stats import (
    RngStream,
    bernstein_bound,
    cap_tail_prob,
    sample_symmetric_cloud,
    sphere_abs_moment,
    sphere_points,
)
from conftest import bounded_condition_map, cross_polytope_complex, implied_facets, random_complex
from oracles import (
    brute_force_facets,
    double_loop_cross_inner,
    facet_mean_square,
    facet_mean_square_pullback,
    isotropic_transform,
)

ACCEPT_SEED = 777001


@pytest.fixture(scope="session")
def fixture() -> dict:
    return load_fixture()


@pytest.fixture(scope="session")
def campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    config = ExperimentConfig(grid=tuple(default_grid()), output_dir=str(out), workers=2)
    t0 = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - t0
    return result, elapsed


def _report(k: int, name: str) -> None:
    print(f"ACCEPTANCE {k} ({name}): PASS")


def test_criterion_1_analytic_exactness():
    t0 = time.perf_counter()
    for n in range(2, 7):
        fc = cross_polytope_complex(n)
        vol = polytope_volume(fc)
        ms = polytope_mean_square(fc)
        cov = polytope_covariance(fc)
        rad = inradius(fc)
        rep = isotropy_constant(vol, cov)

        vol_ref = 2.0**n / math.factorial(n)
        ms_ref = 2.0 * n / ((n + 1) * (n + 2))
        cov_ref = 2.0 / ((n + 1) * (n + 2)) * np.eye(n)
        rad_ref = 1.0 / math.sqrt(n)
        lk_ref = math.sqrt(2.0 / ((n + 1) * (n + 2))) * (
            math.factorial(n) / 2.0**n
        ) ** (1.0 / n)

        assert abs(vol - vol_ref) <= 1e-10 * vol_ref
        assert abs(ms - ms_ref) <= 1e-10 * ms_ref
        assert np.abs(cov - cov_ref).max() <= 1e-10 * cov_ref.max()
        assert abs(rad - rad_ref) <= 1e-10 * rad_ref
        assert abs(rep.l_k - lk_ref) <= 1e-10 * lk_ref
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _report(1, "analytic exactness")


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    for n in (3, 4, 5):
        m = 3 * n
        for i in range(20):
            seed = derive_seed(ACCEPT_SEED, [2, n, i])
            fc = symmetric_hull(sample_symmetric_cloud(n, m, seed))
            est = mc_moment_oracle(fc, 100_000, RngStream(seed, (9,)))
            ms = polytope_mean_square(fc)
            cov = polytope_covariance(fc)
            assert abs(ms - est.mean_square) <= 4.0 * est.mean_square_se
            assert np.all(np.abs(cov - est.covariance) <= 4.0 * est.covariance_se)
            vol = polytope_volume(fc)
            assert est.volume is not None
            assert abs(vol - est.volume) <= 4.0 * est.volume_se
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f}s"
    _report(2, "oracle equivalence")


@pytest.mark.slow
def test_criterion_3_hull_correctness(campaign):
    t0 = time.perf_counter()
    count = 0
    i = 0
    while count < 50:
        n = 2 + i % 3
        m = n + 1 + (i * 5) % (12 - n)
        seed = derive_seed(ACCEPT_SEED, [3, i])
        i += 1
        cloud = sample_symmetric_cloud(n, m, seed)
        fc = symmetric_hull(cloud)
        assert validate_complex(fc).passed
        sym = np.vstack([cloud, -cloud])
        got = {frozenset(int(v) for v in row) for row in implied_facets(fc)["ids"]}
        assert got == brute_force_facets(sym), f"facet mismatch at (n={n}, m={m})"
        count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"

    # every complex constructed in the default campaign validated cleanly:
    # run_trial re-samples on any validation failure and records it
    result, _ = campaign
    assert not result.failures
    assert sum(r.resampled for r in result.records) == 0
    _report(3, "hull correctness vs oracle and campaign validation")


@pytest.mark.slow
def test_criterion_4_isotropy_identities(campaign):
    # directional second moments after the isotropic transform
    for n, m, tag in ((3, 9, 0), (4, 12, 1), (5, 15, 2)):
        fc = random_complex(n, m, derive_seed(ACCEPT_SEED, [4, tag]))
        _, cloud = isotropic_transform(fc)
        fc_iso = symmetric_hull(cloud)
        assert abs(polytope_volume(fc_iso) - 1.0) <= 1e-10
        cov_iso = polytope_covariance(fc_iso)
        thetas = sphere_points(n, 100, RngStream(ACCEPT_SEED, (4, 10, tag)))
        dirs = np.einsum("ti,ij,tj->t", thetas, cov_iso, thetas)
        assert (dirs.max() - dirs.min()) / dirs.mean() < 1e-8

    # affine invariance under bounded-condition maps
    for n, tag in ((3, 0), (4, 1)):
        fc = random_complex(n, 3 * n, derive_seed(ACCEPT_SEED, [4, 20, tag]))
        base = isotropy_constant(polytope_volume(fc), polytope_covariance(fc)).l_k
        st = RngStream(ACCEPT_SEED, (4, 21, tag))
        for _ in range(2):
            T = bounded_condition_map(st, n, 0.4, 3.6)  # condition <= 10
            fc2 = symmetric_hull(fc.points @ T.T)
            lk2 = isotropy_constant(polytope_volume(fc2), polytope_covariance(fc2)).l_k
            assert abs(lk2 - base) <= 1e-8 * base

    # l_k <= identity_bound on 100% of campaign trials
    result, _ = campaign
    assert all(r.l_k <= r.identity_bound + 1e-12 for r in result.records)

    # closed form lower-bounds the sampled GL(n) functional
    for tag in range(5):
        n = 3 + tag % 3
        fc = random_complex(n, 3 * n, derive_seed(ACCEPT_SEED, [4, 30, tag]))
        vol = polytope_volume(fc)
        cov = polytope_covariance(fc)
        l_k = isotropy_constant(vol, cov).l_k
        T = np.asarray(RngStream(ACCEPT_SEED, (4, 31, tag)).gaussian((10_000, n, n)))
        dets = np.abs(np.linalg.det(T))
        keep = dets > 1e-8
        T = T[keep] / dets[keep, None, None] ** (1.0 / n)
        funcs = np.einsum("tij,jk,tik->t", T, cov, T) / vol ** (2.0 / n)
        assert T.shape[0] == 10_000
        assert np.all(l_k <= np.sqrt(funcs / n) + 1e-10)
    _report(4, "isotropy identities")


@pytest.mark.slow
def test_criterion_5_formula_cross_paths(campaign):
    stream = RngStream(ACCEPT_SEED, (5,))
    for i in range(1000):
        n = 2 + i % 7
        V = sphere_points(n, n, stream)
        assert abs(facet_mean_square(V) - facet_mean_square_pullback(V)) <= 1e-12

    for n in range(2, 7):
        assert np.all(cross_polytope_complex(n).cross_sums == 0.0)

    # the hull pass's cross sums and the trace identity on fresh complexes;
    # the campaign enforces the identity per trial
    for tag in range(20):
        n = 2 + tag % 6
        fc = random_complex(n, 2 * n + 3, derive_seed(ACCEPT_SEED, [5, tag]))
        full = implied_facets(fc)
        for f in range(fc.facet_count):
            expected = double_loop_cross_inner(fc.vertices[full["ids"][f]])
            assert abs(full["cross_sums"][f] - expected) <= 1e-12
        ms = polytope_mean_square(fc)
        assert abs(np.trace(polytope_covariance(fc)) - ms) <= 1e-10 * ms
    result, _ = campaign
    assert not result.failures  # run_trial asserts the identity on every trial
    _report(5, "formula cross-paths")


def test_criterion_6_sphere_statistics(fixture):
    for n in range(2, 51):
        assert abs(sphere_abs_moment(n, 2) - 1.0 / n) <= 1e-13

    draws = 100_000
    for n in (3, 6, 10):
        g = sphere_points(n, draws, RngStream(ACCEPT_SEED, (6, n)))
        for alpha in (0.15, 0.35, 0.6):
            p = cap_tail_prob(n, alpha)
            freq = float(np.mean(np.abs(g[:, 0]) > alpha))
            se = math.sqrt(p * (1.0 - p) / draws)
            assert abs(freq - p) <= 4.0 * se

    a_hat = fixture["psi2"]["a_hat"]
    estimates = psi2_sphere_estimates()
    assert set(estimates) == {2, 8, 32, 64}
    assert all(est <= a_hat for est in estimates.values())

    rows = bernstein_tail_table(a_hat)
    assert rows and all(row["tail"] <= row["bound"] for row in rows)
    assert all(
        row["bound"] == bernstein_bound(row["N"], row["eps"], a_hat) for row in rows
    )
    _report(6, "closed-form sphere statistics")


@pytest.mark.slow
def test_criterion_7_calibrated_campaign(campaign, fixture):
    result, elapsed = campaign
    assert elapsed < 600.0, f"campaign took {elapsed:.0f}s"
    assert len(result.records) == 28 * 200
    assert not result.failures
    for r in result.records:
        assert 0.0 < r.mean_square <= 1.0
        assert 0.0 < r.inradius <= 1.0 + 1e-9
        assert r.max_facet_cross >= -r.n
        assert r.l_k > 0.0

    # (a) inradius violations equal the pilot fixture exactly; violations
    # occur only at ratios below the Lemma's (unspecified) m >= C n regime
    expected = {(n, m): v for n, m, v in fixture["campaign"]["inradius_violations"]}
    report = check_inradius_bound(result.records)
    for cell in report:
        assert cell["violations"] == expected[(cell["n"], cell["m"])]
    assert all(v == 0 for (n, m), v in expected.items() if m >= 3 * n)

    # (b) C_emp reproduces the fixture per cell; the band over the
    # documented slice (m = 3n, n in 4..8) stays within a factor two
    second = check_second_moment_bound(result.records)
    stored = {(n, m): v for n, m, v in fixture["campaign"]["c_emp_cells"]}
    for cell in second["cells"]:
        assert cell["c_emp"] == pytest.approx(stored[(cell["n"], cell["m"])], rel=1e-12)
    band = fixture["campaign"]["c_emp_band"]
    assert band["hi"] / band["lo"] <= 2.0
    for n, m, v in band["cells"]:
        assert band["lo"] <= v <= band["hi"]

    # (c) every trial satisfies l_k <= c_star
    c_star = fixture["campaign"]["c_star"]
    fractions = check_isotropy_threshold(result.records, c_star)
    assert all(cell["fraction"] == 1.0 for cell in fractions)

    # vol_root growth statistic reproduces the pilot and stays positive
    growth = {(c["n"], c["m"]): c["growth_stat"] for c in result.summary["cells"]}
    for n, m, v in fixture["campaign"]["growth_stat"]["cells"]:
        assert growth[(n, m)] == pytest.approx(v, rel=1e-12)
    assert fixture["campaign"]["growth_stat"]["min"] > 0.0
    _report(7, "calibrated campaign checks")


@pytest.mark.slow
def test_criterion_8_determinism(campaign, fixture, tmp_path):
    # full-scale: the acceptance campaign must reproduce the calibration
    # pilot's bytes (different process, same config, same build)
    result, _ = campaign
    csv_hash = hashlib.sha256(Path(result.paths["csv"]).read_bytes()).hexdigest()
    jsonl_hash = hashlib.sha256(Path(result.paths["jsonl"]).read_bytes()).hexdigest()

    # name what differs before the whole-file asserts: each (cell, column)
    # digest that moved, and the pilot's build next to this one
    pinned = {(n, m): cols for n, m, cols in fixture["campaign"]["record_digests"]}
    diffs = diff_record_digests(pinned, record_digests(result.records))
    for d in diffs:
        print(
            f"criterion 8: (n={d['n']}, m={d['m']}) {d['column']} differs, "
            f"relative fsum difference {d['rel_fsum_diff']:+.2e}"
        )
    why = (
        f"{len(diffs)} (cell, column) digests differ from the pinned pilot; "
        "record bytes are pinned per build, so on another build re-pin under "
        "the recalibration protocol.\n"
        f"fixture build: {fixture['provenance']['build']}\n"
        f"this build:    {build_fingerprint()}"
    )
    assert csv_hash == fixture["campaign"]["records_csv_sha256"], why
    assert jsonl_hash == fixture["campaign"]["records_jsonl_sha256"], why

    # worker-count independence: two complete runs, byte-compared
    grid = ((2, 4), (3, 6), (4, 9), (5, 11))
    runs = []
    for workers in (1, 2):
        cfg = ExperimentConfig(
            grid=grid,
            trials=8,
            master_seed=ACCEPT_SEED,
            output_dir=str(tmp_path / f"w{workers}"),
            workers=workers,
        )
        res = run_experiment(cfg)
        runs.append(
            (
                Path(res.paths["csv"]).read_bytes(),
                Path(res.paths["jsonl"]).read_bytes(),
            )
        )
    assert runs[0] == runs[1]
    _report(8, "end-to-end determinism")
