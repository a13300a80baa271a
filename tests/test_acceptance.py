"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line with the measured quantities so
the run log is auditable.  Criterion 2 is implemented exactly as stated
and is expected to fail: compressing i[H,A] onto an exact spectral
window of the same discrete H always produces a traceless block (the
finite-dimensional virial identity forces a zero diagonal), so the raw
minimum cannot sit near +2.  The failure is intentional and documented;
the corrected estimator (criterion 3) carries the positivity instead.
"""

import math
import time

import numpy as np
import pytest

from conftest import channel_bases
from mourre_lab.cli import ExperimentConfig, run
from mourre_lab.grid import PROFILES, make_grid, make_steplike
from mourre_lab.hypotheses import OPERATOR_TAGS, c1_probe, compactness_ladder
from mourre_lab.mourre import (
    analytic_rho,
    estimate_rho_window,
    transfer_verify,
    virial_defects,
)
from mourre_lab.operators import build_pair
from mourre_lab.scattering import (
    completeness_probe,
    gaussian_averaged_oracle,
    make_channel_packet,
    scattering_coefficients,
)
from mourre_lab.spectral import EnergyWindow, bump, eigendecompose


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def build_ops(L, n, v_minus=0.0, v_plus=1.0, profile="smooth_step", bump_field=None):
    g = make_grid(L, n)
    return build_pair(make_steplike(g, v_minus, v_plus, profile=profile, bump=bump_field))


def build(L, n, **kwargs):
    ops = build_ops(L, n, **kwargs)
    return ops, eigendecompose(ops.H)


@pytest.fixture(scope="module")
def free_1601():
    ops = build_ops(40.0, 1601, v_plus=0.0)
    return ops, channel_bases(ops)[0]


@pytest.fixture(scope="module")
def well_1601():
    g = make_grid(40.0, 1601)
    return build(40.0, 1601, profile="smooth_step",
                 bump_field=-2.0 * bump(0.0, 2.0)(g.nodes))


def test_criterion_1_analytic_rho():
    checks = [
        analytic_rho(0.0, 1.0, -1.0) == math.inf,
        analytic_rho(0.0, 1.0, 0.5) == 1.0,
        analytic_rho(0.0, 1.0, 2.0) == 2.0,
        analytic_rho(0.0, 1.0, 0.0) == 0.0,
        analytic_rho(0.0, 1.0, 1.0) == 0.0,
        analytic_rho(0.0, 1.0, 1.0 - 1e-12) == pytest.approx(2.0, abs=1e-10),
    ]
    report(1, all(checks),
           "closed form: (0,1,-1)->inf, (0,1,0.5)->1, (0,1,2)->2, kinks at v-=0, v+=1")


def test_criterion_2_free_pair_raw_window(free_1601):
    t0 = time.time()
    ops, dec_m = free_1601
    est = estimate_rho_window(ops, dec_m, ops.commutator_iH0A0, EnergyWindow(1.0, 0.1))
    lo, hi = 1.8 * 0.95, 2.2
    ok = lo <= est.raw_min <= hi
    report(2, ok,
           f"free-pair raw_min = {est.raw_min:.3e}, required [{lo}, {hi}] "
           f"(n=1601, L=40, lambda=1, eps=0.1; {time.time()-t0:.0f}s) — "
           "the finite-dimensional virial identity zeroes the compression "
           "diagonal, so the raw window minimum cannot reach +2")


def test_criterion_3_transfer():
    t0 = time.time()
    g = make_grid(160.0, 3201)
    ops = build_ops(160.0, 3201, profile="smooth_step",
                    bump_field=0.3 * bump(0.0, 2.0)(g.nodes))
    rep = transfer_verify(ops, [0.3, 0.5, 1.5, 2.0], eps=0.1, tol=0.2)
    detail = ", ".join(
        f"lam={l}: margin={m:.3f}" for l, m in zip(rep.lambda_samples, rep.margins)
    )
    report(3, rep.verdict and len(rep.lambda_samples) == 4,
           f"{detail} (tol -0.2, L=160, n=3201; {time.time()-t0:.0f}s)")


def test_criterion_4_virial(well_1601):
    t0 = time.time()
    ops, dec_H = well_1601
    n_bound = int((dec_H.eigenvalues < 0.0).sum())
    defects = virial_defects(ops, dec_H, range(20))
    report(4, bool(np.max(defects) <= 1e-10),
           f"max defect {np.max(defects):.2e} over 20 eigenvectors "
           f"({n_bound} bound state(s) included; {time.time()-t0:.0f}s)")


def test_criterion_5_compactness_surrogates():
    t0 = time.time()
    levels = [(40.0, 801), (40.0, 1601), (40.0, 3201)]
    ladder = compactness_ladder(build_ops, levels, bump(0.5, 0.4), OPERATOR_TAGS)
    verdicts = {tag: rep.verdict for tag, rep in ladder.items()}
    tails = {tag: max(rep.tail_ratio) for tag, rep in ladder.items()}
    ok_compact = all(verdicts[t] == "compact-consistent"
                     for t in ("ii", "iii", "iv", "short", "long"))
    ok_control = verdicts["identity"] == "non-compact"
    worst = max(tails[t] for t in ("ii", "iii", "iv", "short", "long"))
    separation = tails["identity"] / worst
    report(5, ok_compact and ok_control and separation >= 100.0,
           f"verdicts {verdicts}, tail separation {separation:.0f}x "
           f"(levels n=801/1601/3201 at L=40; {time.time()-t0:.0f}s)")


def test_criterion_6_resolvent_commutator_identity():
    t0 = time.time()
    ops = build_ops(40.0, 801)
    rng = np.random.default_rng(17)
    states = rng.standard_normal((3, 801)) + 1j * rng.standard_normal((3, 801))
    states /= np.linalg.norm(states, axis=1)[:, None]
    rep = c1_probe(ops, states)
    report(6, rep.resolvent_identity_defect <= 1e-8,
           f"|| i[R,A] + R i[H,A] R || = {rep.resolvent_identity_defect:.2e} "
           f"<= 1e-8 (n=801, z=i; C1 verdict {rep.verdict}; {time.time()-t0:.0f}s)")


def test_criterion_7_scattering_cross_check():
    t0 = time.time()
    ops = build_ops(40.0, 1601, profile="sharp_step")
    coeff = scattering_coefficients(ops, 2.0, sigma=3.0)
    step, reach = PROFILES["sharp_step"]
    oracle = gaussian_averaged_oracle(2.0, 0.0, 1.0, 3.0, lambda x: step(x, 0.0, 1.0)[0], reach)
    dr = abs(coeff.reflection - oracle.reflection)
    dt = abs(coeff.transmission - oracle.transmission)
    ok = dr <= 0.02 and dt <= 0.02 and coeff.flux_defect < 1e-2
    report(7, ok,
           f"R={coeff.reflection:.5f} vs {oracle.reflection:.5f}, "
           f"T={coeff.transmission:.5f} vs {oracle.transmission:.5f}, "
           f"flux defect {coeff.flux_defect:.1e} (lambda=2, sharp step; "
           f"{time.time()-t0:.0f}s)")


def test_criterion_8_completeness_probes(well_1601):
    t0 = time.time()
    ops, dec_H = well_1601
    g = ops.grid
    times = np.linspace(0.0, 8.0, 17)

    outgoing = completeness_probe(ops, dec_H, make_channel_packet(ops, 10.0, 1.5, 2.0), times)

    bs = dec_H.eigenvectors[:, 0].astype(complex)
    bs /= math.sqrt(g.dx) * np.linalg.norm(bs)
    bound = completeness_probe(ops, dec_H, bs, times)

    ok = (outgoing.verdict
          and min(outgoing.froufrou_norms) < 0.05
          and min(outgoing.converse_norms) < 0.05
          and not bound.verdict)
    report(8, ok,
           f"outgoing min norms ({min(outgoing.froufrou_norms):.4f}, "
           f"{min(outgoing.converse_norms):.4f}) < 0.05; bound-state control "
           f"verdict {bound.verdict} (stationary, froufrou stays at "
           f"{min(bound.froufrou_norms):.2f}; {time.time()-t0:.0f}s)")


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    blobs = []
    for _ in range(2):
        cfg = ExperimentConfig(
            experiment="scatter", L=40.0, n=801, profile="sharp_step",
            out_dir=str(tmp_path), params={"lambda": 2.0},
        )
        code = run(cfg)
        assert code in (0, 1)
        blobs.append((tmp_path / "scatter.json").read_bytes())
        cfg2 = ExperimentConfig(
            experiment="rho-scan", L=20.0, n=321, out_dir=str(tmp_path),
            params={"lambdas": [0.5, 2.0], "eps": 0.1},
        )
        assert run(cfg2) == 0
        blobs[-1] += (tmp_path / "rho_scan.csv").read_bytes()
        blobs[-1] += (tmp_path / "rho_scan.json").read_bytes()
    report(9, blobs[0] == blobs[1],
           f"repeated runs byte-identical across scatter + rho-scan reports "
           f"({len(blobs[0])} bytes; {time.time()-t0:.0f}s)")
