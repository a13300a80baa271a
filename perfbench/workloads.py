"""The benchmark's workloads: seeded configs and output checks.

Each workload is one CLI experiment whose heaviest layer no other
workload exercises much (see README.md).  Seed 0 is the frozen config;
other seeds move the energy samples, the eta centre or the packet within
ranges where the verdict holds, and keep every size fixed so that the
work per run does not depend on the seed.

Tolerances come from the resolution of the estimator that produced the
value, never from observed drift:

- rho estimates (raw, corrected, margins) come from a bisection that
  stops when the bracket is below BISECT_TOL * max(1, |rho|), the
  default of `estimate_rho_eta`;
- tail ratios sigma_20 / sigma_1 come from `eigvalsh` of a Gram matrix
  of dimension d, whose eigenvalues carry an absolute error of order
  d * eps * sigma_1^2, so the ratio is resolved to sqrt(d * eps);
- propagated norms are built from an eigenbasis orthonormal to a modest
  multiple of n * eps; PROPAGATION_ULPS * n * eps bounds it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

F64_EPS = 2.220446049250313e-16
BISECT_TOL = 1e-3
PROPAGATION_ULPS = 16.0
V_MINUS, V_PLUS = 0.0, 1.0
EPS = 0.1           # eta half-width of the rho scan and the transfer check
TRANSFER_TOL = 0.2  # accepted shortfall of the corrected rho below the closed form
SMOKE_N = 321


def analytic_rho(lam: float) -> float:
    """Closed-form rho of the steplike channel pair, written independently."""
    lo, hi = min(V_MINUS, V_PLUS), max(V_MINUS, V_PLUS)
    if lam < lo:
        return math.inf
    return 2.0 * (lam - (lo if lam < hi else hi))


def _close(value: float, ref: float, tol: float) -> bool:
    if math.isnan(ref) or math.isinf(ref):
        return math.isnan(value) if math.isnan(ref) else value == ref
    return abs(value - ref) <= tol


def _rho_tol(ref: float) -> float:
    return BISECT_TOL * max(1.0, abs(ref)) if math.isfinite(ref) else 0.0


def _away_from_thresholds(lam: float) -> bool:
    return min(abs(lam - V_MINUS), abs(lam - V_PLUS)) >= 2 * EPS


# ------------------------------------------------------------------ configs

def _base(experiment: str, L: float, n: int, params: dict) -> dict:
    return {"experiment": experiment, "L": L, "n": n, "v_minus": V_MINUS,
            "v_plus": V_PLUS, "profile": "smooth_step", "params": params}


def rho_scan_config(rng: Optional[random.Random], smoke: bool) -> dict:
    step = 0.02
    off = rng.uniform(0.0, step) if rng else 0.0
    return _base("rho-scan", 160.0, SMOKE_N if smoke else 1601, {
        "lambda_min": -0.5 + off, "lambda_max": 3.0 + off,
        "lambda_step": 0.25 if smoke else step, "eps": EPS})


def transfer_config(rng: Optional[random.Random], smoke: bool) -> dict:
    if rng:
        lambdas = [rng.uniform(0.25, 0.40), rng.uniform(0.45, 0.65),
                   rng.uniform(1.35, 1.65), rng.uniform(1.85, 2.15)]
    else:
        lambdas = [0.3, 0.5, 1.5, 2.0]
    cfg = _base("transfer", 160.0, SMOKE_N if smoke else 1201, {
        "bump_amplitude": 0.3, "bump_width": 2.0, "lambdas": lambdas,
        "eps": EPS, "tol": TRANSFER_TOL})
    del cfg["profile"]  # the bump selects smooth_step_plus_bump
    return cfg


def hypotheses_config(rng: Optional[random.Random], smoke: bool) -> dict:
    levels = [[40.0, 161], [40.0, SMOKE_N]] if smoke else [[40.0, 601], [40.0, 801]]
    return _base("hypotheses", 40.0, levels[0][1], {
        "levels": levels, "eta_center": rng.uniform(0.4, 0.6) if rng else 0.5,
        "eta_width": 0.4,
        "operators": ["ii", "iii", "iv", "short", "long", "identity"]})


def completeness_config(rng: Optional[random.Random], smoke: bool) -> dict:
    return _base("completeness", 40.0, SMOKE_N if smoke else 601, {
        "x0": rng.uniform(9.0, 11.0) if rng else 10.0,
        "k0": rng.uniform(1.35, 1.65) if rng else 1.5,
        "sigma": 2.0, "t_max": 8.0, "n_times": 161})


# ------------------------------------------------------------------ outputs

# Reports write non-finite floats as quoted strings; float() reads both forms.

def rho_scan_summary(out: Path) -> dict:
    rep = json.loads((out / "rho_scan.json").read_text())
    keys = ("lambda", "rho0_analytic", "rho_raw", "rho_corrected", "n_discarded", "margin")
    return {"verdict": rep["verdict"],
            "rows": [[float(row[k]) for k in keys] for row in rep["rows"]]}


def rho_scan_check(s: dict, cfg: dict) -> list[str]:
    bad = []
    for lam, rho0, _raw, corr, _nd, margin in s["rows"]:
        if not _close(rho0, analytic_rho(lam), 1e-12):
            bad.append(f"lambda={lam}: rho0 {rho0} is not the closed form")
        elif math.isfinite(rho0) and not _close(margin, corr - rho0, 1e-12):
            bad.append(f"lambda={lam}: margin {margin} != corrected - rho0")
        elif math.isfinite(rho0) and _away_from_thresholds(lam) and margin < -TRANSFER_TOL:
            bad.append(f"lambda={lam}: margin {margin} < -{TRANSFER_TOL}")
    return bad


def rho_scan_compare(s: dict, ref: dict, cfg: dict) -> list[str]:
    if len(s["rows"]) != len(ref["rows"]):
        return [f"{len(s['rows'])} rows, reference has {len(ref['rows'])}"]
    bad = []
    for row, rrow in zip(s["rows"], ref["rows"]):
        lam = rrow[0]
        if row[0] != lam or row[4] != rrow[4]:
            bad.append(f"lambda={lam}: lambda or n_discarded differs")
        for k, label in ((2, "raw"), (3, "corrected"), (5, "margin")):
            if not _close(row[k], rrow[k], _rho_tol(rrow[k])):
                bad.append(f"lambda={lam}: {label} {row[k]} vs reference {rrow[k]}")
    return bad


def transfer_summary(out: Path) -> dict:
    rep = json.loads((out / "transfer.json").read_text())
    return {"verdict": rep["verdict"],
            "lambda_samples": [float(x) for x in rep["lambda_samples"]],
            "rho0_analytic": [float(x) for x in rep["rho0_analytic"]],
            "margins": [float(x) for x in rep["margins"]],
            "excluded": [float(x) for x in rep["excluded"]]}


def transfer_check(s: dict, cfg: dict) -> list[str]:
    bad = []
    if not s["verdict"]:
        bad.append("transfer verdict failed")
    if s["excluded"] or len(s["margins"]) != len(cfg["params"]["lambdas"]):
        bad.append(f"samples excluded: {s['excluded']}")
    for lam, rho0, margin in zip(s["lambda_samples"], s["rho0_analytic"], s["margins"]):
        if not _close(rho0, analytic_rho(lam), 1e-12):
            bad.append(f"lambda={lam}: rho0 {rho0} is not the closed form")
        if not margin >= -cfg["params"]["tol"]:
            bad.append(f"lambda={lam}: margin {margin} below -tol")
    return bad


def transfer_compare(s: dict, ref: dict, cfg: dict) -> list[str]:
    bad = []
    if s["lambda_samples"] != ref["lambda_samples"]:
        bad.append("lambda samples differ from the reference")
    for lam, m, rm in zip(ref["lambda_samples"], s["margins"], ref["margins"]):
        if not _close(m, rm, _rho_tol(rm)):
            bad.append(f"lambda={lam}: margin {m} vs reference {rm}")
    return bad


def hypotheses_summary(out: Path) -> dict:
    rep = json.loads((out / "hypotheses.json").read_text())
    return {"verdict": rep["verdict"],
            "operators": {tag: {"verdict": op["verdict"],
                                "tail_ratio": [float(x) for x in op["tail_ratio"]]}
                          for tag, op in rep["operators"].items()}}


def hypotheses_check(s: dict, cfg: dict) -> list[str]:
    bad = [] if s["verdict"] else ["hypotheses verdict failed"]
    for tag in cfg["params"]["operators"]:
        want = "non-compact" if tag == "identity" else "compact-consistent"
        got = s["operators"].get(tag, {}).get("verdict")
        if got != want:
            bad.append(f"operator {tag}: {got}, expected {want}")
    return bad


def hypotheses_compare(s: dict, ref: dict, cfg: dict) -> list[str]:
    dims = [n for _, n in cfg["params"]["levels"]]
    bad = []
    for tag, rop in ref["operators"].items():
        op = s["operators"].get(tag)
        if op is None or op["verdict"] != rop["verdict"]:
            bad.append(f"operator {tag}: verdict differs from the reference")
            continue
        for d, t, rt in zip(dims, op["tail_ratio"], rop["tail_ratio"]):
            if not _close(t, rt, math.sqrt(d * F64_EPS)):
                bad.append(f"operator {tag} n={d}: tail ratio {t} vs reference {rt}")
    return bad


def completeness_summary(out: Path) -> dict:
    rep = json.loads((out / "completeness.json").read_text())
    return {"verdict": rep["verdict"],
            "min_froufrou": min(float(x) for x in rep["froufrou_norms"]),
            "min_converse": min(float(x) for x in rep["converse_norms"])}


def completeness_check(s: dict, cfg: dict) -> list[str]:
    return [] if s["verdict"] else ["completeness verdict failed"]


def completeness_compare(s: dict, ref: dict, cfg: dict) -> list[str]:
    tol = PROPAGATION_ULPS * cfg["n"] * F64_EPS
    return [f"{k}: {s[k]} vs reference {ref[k]}" for k in ("min_froufrou", "min_converse")
            if not _close(s[k], ref[k], tol)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Callable[[Optional[random.Random], bool], dict]
    summary: Callable[[Path], dict]
    check: Callable[[dict, dict], list]           # any seed: verdicts and closed form
    compare: Callable[[dict, dict, dict], list]   # seed 0: frozen reference

    def make_config(self, seed: int, smoke: bool = False) -> dict:
        return self.config(random.Random(f"{self.name}/{seed}") if seed else None, smoke)


WORKLOADS = {w.name: w for w in (
    Workload("rho-scan-L160",
             "assembly and dense eigh at L=160, n=1601, then 155 bisection estimates of rho "
             "over 176 energies; the only scan-heavy workload",
             rho_scan_config, rho_scan_summary, rho_scan_check, rho_scan_compare),
    Workload("transfer-L160",
             "dense eta(H), eta(H0) products and residual norms of transfer_verify at L=160, "
             "n=1201; no other workload does this work",
             transfer_config, transfer_summary, transfer_check, transfer_compare),
    Workload("hypotheses-ladder",
             "six compactness surrogates at n=601 and 801: the only SVD- and "
             "resolvent-heavy workload",
             hypotheses_config, hypotheses_summary, hypotheses_check, hypotheses_compare),
    Workload("completeness-n601",
             "486 wave-packet propagations at n=601; assembly is a small share, so "
             "assembly changes should not move it",
             completeness_config, completeness_summary, completeness_check,
             completeness_compare),
)}
