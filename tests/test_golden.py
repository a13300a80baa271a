"""Golden values: small CLI runs must reproduce their frozen outputs.

`golden.json` next to this file holds the outputs of four small
experiments, of the benchmark's rho-scan and transfer configs at L = 160,
of its hypotheses ladder at (40, 601) / (40, 801) and of its completeness
run at n = 601, the scatter run of acceptance criterion 7 and the
surrogate ladder of criterion 5 at n = 801 / 1601 / 3201.  Regenerate
it only on a commit whose outputs define "correct", from the repository
root, naming the entries to refreeze (all when none is named; the others
keep their frozen values):

    PYTHONPATH=src python3 tests/test_golden.py [NAME ...]

To compare two commits byte for byte, write the reports of the named
configs (all when none is named) under DIR/NAME on each, with a relative
`out_dir`, and `diff -r` the two directories:

    PYTHONPATH=src python3 tests/test_golden.py --write-reports DIR [NAME ...]

Each tolerance is the resolution of the estimator that produced the
value, never an observed drift:

- rho values (raw, corrected, margins) come from the bisection of
  `estimate_rho_eta`, which stops once its bracket is below
  BISECT_TOL * max(1, |rho|);
- singular values were frozen from `eigvalsh` of a Gram matrix of
  dimension d = n, whose eigenvalues carry an absolute error of order
  d * eps * sigma_1^2.  For a, b >= 0, |a - b| <= sqrt(|a^2 - b^2|), so
  every sigma_k (k = 1..10) is resolved to sqrt(d * eps) * sigma_1 and the
  tail ratio sigma_20 / sigma_1 to sqrt(d * eps).  A thin QR + SVD is
  resolved far more finely, so its values sit inside the same bound;
- `stability` is max_k |sigma_k(level) - sigma_k(finest)| / sigma_1(finest),
  a difference of two such values: 2 * sqrt(n * eps) with n the largest
  level (the levels' sigma_1 agree to within the drift tolerance, so the
  coarser level's error scales alike);
- verdicts are labels and must match exactly;
- propagated norms and E1 residuals are built from an eigenbasis
  orthonormal to a modest multiple of n * eps, bounded by
  ROUNDING_ULPS * n * eps (relative to max(1, |value|)); a residual is the
  top singular value of thin factors (`singular_values(..., top=1)`), a
  QR and an SVD that add only rounding of the same order;
- completeness norms, the range defect and the scattering R, T and
  |R + T - 1| are norms and masses of propagated states.  A state moved by
  U diag(e^{-itw}) U^T carries a relative error of about n * eps (U is
  orthonormal to a modest multiple of n * eps, and each product sums n
  terms), so a norm or a mass of a unit state moves by as much; they share
  the ROUNDING_ULPS * n * eps * max(1, |value|) bound above;
- boundary margins are L minus a grid node, the node where a cumulative
  mass first reaches a fixed fraction.  Rounding moves that node only
  when a cumulative mass sits within n * eps of the fraction, so margins
  and the admissible flags derived from them must match exactly;
- mode counts, energy samples and exclusions must match exactly.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest

from mourre_lab.cli import ExperimentConfig, run

GOLDEN = Path(__file__).with_name("golden.json")
F64_EPS = 2.220446049250313e-16
BISECT_TOL = 1e-3
ROUNDING_ULPS = 16.0

BASE = {"L": 40.0, "v_minus": 0.0, "v_plus": 1.0, "profile": "smooth_step"}
# name -> (experiment, config); the L = 160 entries and hypotheses-ladder are
# the benchmark's seed-0 configs (perfbench/workloads.py), criterion-5 the
# ladder of tests/test_acceptance.py
CONFIGS = {
    "rho-scan": ("rho-scan", dict(BASE, n=321, params={
        "lambda_min": -0.5, "lambda_max": 3.0, "lambda_step": 0.25, "eps": 0.1})),
    "transfer": ("transfer", dict(BASE, n=321, params={
        "lambdas": [0.3, 0.5, 1.05, 1.5, 2.0], "eps": 0.1, "tol": 0.2})),
    "hypotheses": ("hypotheses", dict(BASE, n=161, params={
        "levels": [[40.0, 161], [40.0, 321]], "eta_center": 0.5, "eta_width": 0.4,
        "operators": ["ii", "iii", "iv", "short", "long", "identity"]})),
    "hypotheses-ladder": ("hypotheses", dict(BASE, n=601, params={
        "levels": [[40.0, 601], [40.0, 801]], "eta_center": 0.5, "eta_width": 0.4,
        "operators": ["ii", "iii", "iv", "short", "long", "identity"]})),
    "criterion-5": ("hypotheses", dict(BASE, n=801, params={
        "levels": [[40.0, 801], [40.0, 1601], [40.0, 3201]], "eta_center": 0.5,
        "eta_width": 0.4, "operators": ["ii", "iii", "iv", "short", "long", "identity"]})),
    "completeness": ("completeness", dict(BASE, n=321, params={
        "x0": 10.0, "k0": 1.5, "sigma": 2.0, "t_max": 8.0, "n_times": 41})),
    "completeness-n601": ("completeness", dict(BASE, n=601, params={
        "x0": 10.0, "k0": 1.5, "sigma": 2.0, "t_max": 8.0, "n_times": 161})),
    "scatter": ("scatter", dict(BASE, n=1601, profile="sharp_step", params={
        "lambda": 2.0, "x0": -25.0, "sigma": 3.0})),
    "rho-scan-L160": ("rho-scan", dict(BASE, L=160.0, n=1601, params={
        "lambda_min": -0.5, "lambda_max": 3.0, "lambda_step": 0.02, "eps": 0.1})),
    "transfer-L160": ("transfer", dict(BASE, L=160.0, n=1201, params={
        "bump_amplitude": 0.3, "bump_width": 2.0, "lambdas": [0.3, 0.5, 1.5, 2.0],
        "eps": 0.1, "tol": 0.2})),
}
REPORTS = {"rho-scan": "rho_scan.json", "transfer": "transfer.json",
           "hypotheses": "hypotheses.json", "completeness": "completeness.json",
           "scatter": "scatter.json"}


def summarize(experiment: str, rep: dict) -> dict:
    """The frozen quantities of one report (non-finite values read back as floats)."""
    if experiment == "rho-scan":
        rows = rep["rows"]
        return {key: [float(row[key]) for row in rows]
                for key in ("lambda", "rho_raw", "rho_corrected", "margin", "n_discarded")}
    if experiment == "transfer":
        return {key: [float(x) for x in rep[key]]
                for key in ("lambda_samples", "excluded", "rho_H_estimate", "margins",
                            "eone_residuals")}
    if experiment == "hypotheses":
        return {tag: {"sigma_head": [[float(x) for x in sv[:10]] for sv in op["singular_values"]],
                      "tail_ratio": [float(x) for x in op["tail_ratio"]],
                      "stability": float(op["stability"]), "verdict": op["verdict"]}
                for tag, op in rep["operators"].items()}
    if experiment == "scatter":
        return {"verdict": rep["verdict"], **{
            key: float(rep[key]) for key in ("reflection", "transmission", "flux_defect")}}
    return {"verdict": rep["verdict"], "admissible": rep["admissible"],
            "range_defect": float(rep["range_defect"]), **{
                key: [float(x) for x in rep[key]]
                for key in ("froufrou_norms", "converse_norms", "boundary_margins")}}


def run_summary(name: str, out_dir: Path) -> dict:
    experiment, config = CONFIGS[name]
    cfg = ExperimentConfig(experiment=experiment, out_dir=str(out_dir), **config)
    code = run(cfg)
    if code == 2:
        raise RuntimeError(f"{experiment}: execution error")
    return summarize(experiment, json.loads((out_dir / REPORTS[experiment]).read_text()))


def _rho_tol(ref: float) -> float:
    return BISECT_TOL * max(1.0, abs(ref))


def _rounding_tol(n: int):
    return lambda ref: ROUNDING_ULPS * n * F64_EPS * max(1.0, abs(ref))


def _exact(ref: float) -> float:
    return 0.0


def _listed(value) -> list:
    return value if isinstance(value, list) else [value]


def mismatches(label: str, values, refs, tol) -> list[str]:
    values, refs = list(values), list(refs)
    if len(values) != len(refs):
        return [f"{label}: {len(values)} values, golden has {len(refs)}"]
    bad = []
    for k, (v, r) in enumerate(zip(values, refs)):
        if math.isnan(r) or math.isinf(r):
            same = math.isnan(v) if math.isnan(r) else v == r
        else:
            same = abs(v - r) <= tol(r)
        if not same:
            bad.append(f"{label}[{k}]: {v!r} vs golden {r!r}")
    return bad


def compare(name: str, got: dict, ref: dict) -> list[str]:
    experiment, config = CONFIGS[name]
    n = config["n"]
    if experiment == "rho-scan":
        checks = {"lambda": _exact, "n_discarded": _exact, "rho_raw": _rho_tol,
                  "rho_corrected": _rho_tol, "margin": _rho_tol}
    elif experiment == "transfer":
        checks = {"lambda_samples": _exact, "excluded": _exact, "rho_H_estimate": _rho_tol,
                  "margins": _rho_tol, "eone_residuals": _rounding_tol(n)}
    elif experiment in ("completeness", "scatter"):
        rounding = _rounding_tol(n)
        checks = ({"froufrou_norms": rounding, "converse_norms": rounding,
                   "boundary_margins": _exact, "admissible": _exact, "range_defect": rounding}
                  if experiment == "completeness" else
                  {"reflection": rounding, "transmission": rounding, "flux_defect": rounding})
        bad = [] if got["verdict"] == ref["verdict"] else [
            f"verdict {got['verdict']} vs golden {ref['verdict']}"]
        return bad + [msg for key, tol in checks.items()
                      for msg in mismatches(key, _listed(got[key]), _listed(ref[key]), tol)]
    else:
        dims = [d for _, d in config["params"]["levels"]]
        if sorted(got) != sorted(ref):
            return [f"operators {sorted(got)} vs golden {sorted(ref)}"]
        bad = []
        for tag, rop in ref.items():
            op = got[tag]
            if op["verdict"] != rop["verdict"]:
                bad.append(f"{tag}: verdict {op['verdict']} vs golden {rop['verdict']}")
            if len(op["sigma_head"]) != len(dims):
                bad.append(f"{tag}: {len(op['sigma_head'])} levels, golden has {len(dims)}")
                continue
            for d, head, rhead, t, rt in zip(dims, op["sigma_head"], rop["sigma_head"],
                                             op["tail_ratio"], rop["tail_ratio"]):
                res = math.sqrt(d * F64_EPS)
                bad += mismatches(f"sigma {tag} n={d}", head, rhead,
                                  lambda r, s1=rhead[0], res=res: res * s1)
                bad += mismatches(f"tail_ratio {tag} n={d}", [t], [rt], lambda r, res=res: res)
            bad += mismatches(f"stability {tag}", [op["stability"]], [rop["stability"]],
                              lambda r: 2.0 * math.sqrt(max(dims) * F64_EPS))
        return bad
    return [msg for key, tol in checks.items() for msg in mismatches(key, got[key], ref[key], tol)]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matches_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert compare(name, run_summary(name, tmp_path), golden[name]) == []


def write_reports(root: Path, names) -> None:
    """Write the JSON and CSV reports of each named config under root/NAME;
    out_dir is relative, so the embedded config reads the same on any checkout."""
    root.mkdir(parents=True, exist_ok=True)
    for name in names:
        experiment, config = CONFIGS[name]
        out = root / name
        out.mkdir(exist_ok=True)
        cwd = Path.cwd()
        try:
            os.chdir(out)
            run(ExperimentConfig(experiment=experiment, out_dir=".", **config))
        finally:
            os.chdir(cwd)
        print(f"{name}: written", file=sys.stderr)


if __name__ == "__main__":
    args = sys.argv[1:]
    reports = None
    if args[:1] == ["--write-reports"]:
        if len(args) < 2:
            sys.exit("--write-reports needs a directory")
        reports, args = Path(args[1]).resolve(), args[2:]
    names = args or sorted(CONFIGS)
    unknown = sorted(set(names) - set(CONFIGS))
    if unknown:
        sys.exit(f"unknown golden entries {unknown}; expected some of {sorted(CONFIGS)}")
    if reports is not None:
        write_reports(reports, names)
        sys.exit(0)
    frozen = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            out = Path(tmp) / name
            frozen[name] = run_summary(name, out)
            print(f"{name}: frozen", file=sys.stderr)
    GOLDEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
