"""Configuration-driven experiment runner.

One declarative JSON config per run; reports are emitted as JSON (with
the fully resolved config embedded) plus plot-ready CSV.  Exit status:
0 = all verdicts pass, 1 = a verdict fails, 2 = execution/config error.
All floating-point output is written at 17 significant digits and runs
are deterministic for a fixed config + seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

SCHEMA_VERSION = "1"
EXPERIMENTS = ("rho-scan", "transfer", "hypotheses", "scatter", "completeness")
THREADS_ENV = "MOURRE_LAB_THREADS"

# Accepted `params` keys per experiment (the README params table).  The
# potential bump is read by `_build`, so every experiment accepts it.
BUMP_PARAMS = ("bump_amplitude", "bump_width")
PARAMS = {
    "rho-scan": ("lambdas", "lambda_min", "lambda_max", "lambda_step", "eps"),
    "transfer": ("lambdas", "eps", "tol"),
    "hypotheses": ("levels", "eta_center", "eta_width", "operators"),
    "scatter": ("lambda", "sigma", "x0", "tol"),
    "completeness": ("x0", "k0", "sigma", "t_max", "n_times"),
}

__all__ = ["ExperimentConfig", "ConfigError", "load_config", "run", "emit_json", "emit_csv", "main"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    L: float = 40.0
    n: int = 1601
    v_minus: float = 0.0
    v_plus: float = 1.0
    profile: str = "smooth_step"
    seed: int = 0
    threads: Optional[int] = None
    out_dir: str = "."
    params: dict = field(default_factory=dict)


def load_config(path, experiment: Optional[str] = None,
                out_dir: Optional[str] = None,
                threads: Optional[int] = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    extra = set(raw) - known
    if extra:
        raise ConfigError(f"config: unknown field(s) {sorted(extra)}")
    if experiment is not None:
        raw["experiment"] = experiment
    if out_dir is not None:
        raw["out_dir"] = out_dir
    env_threads = os.environ.get(THREADS_ENV)
    if threads is not None:
        raw["threads"] = threads
    elif env_threads is not None:
        raw["threads"] = int(env_threads)
    cfg = ExperimentConfig(**raw)
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: {cfg.experiment!r} not in {EXPERIMENTS}")
    if cfg.L <= 0:
        raise ConfigError("L: must be positive")
    if cfg.n < 16 or cfg.n % 2 == 0:
        raise ConfigError("n: must be odd and >= 16")
    if cfg.threads is not None and cfg.threads < 1:
        raise ConfigError("threads: must be >= 1")
    if not isinstance(cfg.params, dict):
        raise ConfigError("params: must be a JSON object")
    allowed = PARAMS[cfg.experiment] + BUMP_PARAMS
    unknown = sorted(set(cfg.params) - set(allowed))
    if unknown:
        raise ConfigError(f"params: unknown key(s) {unknown} for {cfg.experiment}; "
                          f"expected some of {list(allowed)}")
    for key, val in cfg.params.items():
        if key.endswith(("tol", "eps", "sigma")) and isinstance(val, (int, float)) and val <= 0:
            raise ConfigError(f"params.{key}: must be positive")
    return cfg


# ---------------------------------------------------------------- output

def _float_token(x: float) -> str:
    """17 significant digits; non-finite values become quoted strings."""
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _dump(obj, pad: str) -> str:
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            f'{inner}{json.dumps(str(k))}: {_dump(v, inner)}'
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (f"{inner}{_dump(v, inner)}" for v in obj)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        return _float_token(float(obj))
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, complex):
        return _dump({"re": obj.real, "im": obj.imag}, pad)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def emit_json(report: dict, path) -> None:
    Path(path).write_text(_dump(report, "") + "\n")


def emit_csv(header: str, rows, path) -> None:
    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return format(float(v), ".17g")
        return str(v)

    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")


# ------------------------------------------------------------- experiments

def _build(cfg: ExperimentConfig, L: Optional[float] = None, n: Optional[int] = None):
    from .grid import make_cutoffs, make_grid, make_steplike
    from .operators import build_pair

    grid = make_grid(L if L is not None else cfg.L, n if n is not None else cfg.n)
    cut = make_cutoffs(grid)
    bump_field = None
    if "bump_amplitude" in cfg.params:
        amp = float(cfg.params["bump_amplitude"])
        width = float(cfg.params.get("bump_width", 1.0))
        u = grid.nodes / width
        bump_field = np.where(np.abs(u) < 1, amp * np.exp(1.0 - 1.0 / np.clip(1 - u**2, 1e-300, None)), 0.0)
        profile = "smooth_step_plus_bump"
    else:
        profile = cfg.profile
    pot = make_steplike(grid, cfg.v_minus, cfg.v_plus, profile=profile, bump=bump_field)
    return build_pair(grid, pot, cut)


def _run_rho_scan(cfg: ExperimentConfig, out: Path) -> bool:
    from .mourre import rho_scan

    p = cfg.params
    if "lambdas" in p:
        lambdas = [float(v) for v in p["lambdas"]]
    else:
        lo = float(p.get("lambda_min", -0.5))
        hi = float(p.get("lambda_max", 3.0))
        step = float(p.get("lambda_step", 0.1))
        lambdas = list(np.arange(lo, hi + 0.5 * step, step))
    eps = float(p.get("eps", 0.1))
    opset = _build(cfg)
    rows = rho_scan(opset, None, lambdas, eps)
    emit_csv("lambda,rho0_analytic,rho_raw,rho_corrected,n_discarded,margin",
             rows, out / "rho_scan.csv")
    report = {
        "schema_version": SCHEMA_VERSION, "experiment": cfg.experiment,
        "config": asdict(cfg),
        "rows": [dict(zip(("lambda", "rho0_analytic", "rho_raw", "rho_corrected",
                           "n_discarded", "margin"), r)) for r in rows],
        "verdict": True,
    }
    emit_json(report, out / "rho_scan.json")
    return True


def _run_transfer(cfg: ExperimentConfig, out: Path) -> bool:
    from .mourre import transfer_verify

    p = cfg.params
    samples = [float(v) for v in p.get("lambdas", (0.3, 0.5, 1.5, 2.0))]
    eps = float(p.get("eps", 0.1))
    tol = float(p.get("tol", 0.2))
    opset = _build(cfg)
    rep = transfer_verify(opset, None, samples, eps, tol)
    report = {
        "schema_version": SCHEMA_VERSION, "experiment": cfg.experiment,
        "config": asdict(cfg),
        "lambda_samples": rep.lambda_samples, "rho0_analytic": rep.rho0_analytic,
        "rho_H_estimate": rep.rho_H_estimate, "margins": rep.margins,
        "excluded": rep.excluded, "eone_residuals": rep.eone_residuals,
        "tol": rep.tol, "verdict": rep.verdict,
    }
    emit_json(report, out / "transfer.json")
    emit_csv("lambda,rho0_analytic,rho_estimate,margin,eone_residual",
             zip(rep.lambda_samples, rep.rho0_analytic, rep.rho_H_estimate,
                 rep.margins, rep.eone_residuals),
             out / "transfer.csv")
    return rep.verdict


def _run_hypotheses(cfg: ExperimentConfig, out: Path) -> bool:
    from .hypotheses import (
        assumption_operator,
        channel_decompositions,
        compactness_report,
        long_range_operator,
        short_range_operator,
    )
    from .spectral import bump

    p = cfg.params
    levels = [tuple(lv) for lv in p.get("levels", [[cfg.L, 401], [cfg.L, 801]])]
    center = float(p.get("eta_center", 0.5))
    width = float(p.get("eta_width", 0.4))
    which = list(p.get("operators", ["ii", "iii", "iv", "short", "long", "identity"]))
    eta = bump(center, width)
    z = 1j

    cache: dict = {}

    def level_data(L, n):
        key = (L, n)
        if key not in cache:
            opset = _build(cfg, L=L, n=n)
            cache[key] = (opset, channel_decompositions(opset))
        return cache[key]

    def make_builder(tag):
        def build(L, n):
            opset, decs = level_data(L, n)
            if tag in ("ii", "iii", "iv"):
                return assumption_operator(opset, decs, tag, eta)
            if tag == "short":
                return short_range_operator(opset, decs, z)[0]
            if tag == "long":
                return long_range_operator(opset, decs)
            if tag == "identity":
                return np.eye(n)
            raise ConfigError(f"params.operators: unknown tag {tag!r}")
        return build

    reports = {}
    verdict = True
    sv_rows = []
    for tag in which:
        rep = compactness_report(make_builder(tag), levels, label=tag)
        reports[tag] = {
            "refinement_levels": rep.refinement_levels,
            "singular_values": [sv.tolist() for sv in rep.singular_values],
            "tail_ratio": rep.tail_ratio, "stability": rep.stability,
            "verdict": rep.verdict, "thresholds": rep.thresholds,
        }
        want = "non-compact" if tag == "identity" else "compact-consistent"
        verdict = verdict and rep.verdict == want
        for li, sv in enumerate(rep.singular_values):
            for k, s in enumerate(sv):
                sv_rows.append((tag, li, k + 1, s))
    report = {
        "schema_version": SCHEMA_VERSION, "experiment": cfg.experiment,
        "config": asdict(cfg), "operators": reports, "verdict": verdict,
    }
    emit_json(report, out / "hypotheses.json")
    emit_csv("operator,level,k,sigma_k", sv_rows, out / "hypotheses_sv.csv")
    return verdict


def _run_scatter(cfg: ExperimentConfig, out: Path) -> bool:
    from .hypotheses import channel_decompositions
    from .scattering import gaussian_averaged_oracle, scattering_coefficients, sharp_step_oracle

    p = cfg.params
    lam = float(p.get("lambda", 2.0))
    sigma = float(p.get("sigma", 3.0))
    x0 = float(p.get("x0", -25.0))
    tol = float(p.get("tol", 0.02))
    opset = _build(cfg)
    decs = channel_decompositions(opset)
    coeff = scattering_coefficients(opset, decs, lam, x0=x0, sigma=sigma)
    oracle = sharp_step_oracle(lam, cfg.v_minus, cfg.v_plus)
    averaged = gaussian_averaged_oracle(lam, cfg.v_minus, cfg.v_plus, sigma)
    verdict = (abs(coeff.reflection - averaged.reflection) <= tol
               and abs(coeff.transmission - averaged.transmission) <= tol
               and coeff.flux_defect < 1e-2)
    report = {
        "schema_version": SCHEMA_VERSION, "experiment": cfg.experiment,
        "config": asdict(cfg),
        "energy": coeff.energy,
        "reflection": coeff.reflection, "transmission": coeff.transmission,
        "flux_defect": coeff.flux_defect,
        "oracle": {"reflection": oracle.reflection, "transmission": oracle.transmission},
        "oracle_averaged": {"reflection": averaged.reflection,
                            "transmission": averaged.transmission},
        "tol": tol, "verdict": verdict,
    }
    emit_json(report, out / "scatter.json")
    return verdict


def _run_completeness(cfg: ExperimentConfig, out: Path) -> bool:
    from .hypotheses import channel_decompositions
    from .scattering import completeness_probe, make_channel_packet

    p = cfg.params
    x0 = float(p.get("x0", 10.0))
    k0 = float(p.get("k0", 1.5))
    sigma = float(p.get("sigma", 3.0))
    tmax = float(p.get("t_max", 10.0))
    nt = int(p.get("n_times", 21))
    opset = _build(cfg)
    decs = channel_decompositions(opset)
    packet = make_channel_packet(opset.grid, "+" if x0 > 0 else "-", x0, k0, sigma)
    psi = opset.apply_J(packet.phi_minus, packet.phi_plus)
    psi = psi / (math.sqrt(opset.grid.dx) * np.linalg.norm(psi))
    times = np.linspace(0.0, tmax, nt)
    rep = completeness_probe(opset, decs, psi, times)
    report = {
        "schema_version": SCHEMA_VERSION, "experiment": cfg.experiment,
        "config": asdict(cfg),
        "times": rep.times, "froufrou_norms": rep.froufrou_norms,
        "converse_norms": rep.converse_norms, "boundary_margins": rep.boundary_margins,
        "admissible": rep.admissible, "range_defect": rep.range_defect,
        "verdict": rep.verdict,
    }
    emit_json(report, out / "completeness.json")
    emit_csv("t,froufrou_norm,converse_norm,boundary_margin",
             zip(rep.times, rep.froufrou_norms, rep.converse_norms, rep.boundary_margins),
             out / "completeness.csv")
    return rep.verdict


_RUNNERS = {
    "rho-scan": _run_rho_scan,
    "transfer": _run_transfer,
    "hypotheses": _run_hypotheses,
    "scatter": _run_scatter,
    "completeness": _run_completeness,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute the configured experiment; returns the process exit code."""
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        np.random.seed(cfg.seed % (2**32))
        ok = _RUNNERS[cfg.experiment](cfg, out)
    except ConfigError:
        raise
    except Exception as exc:  # exit 1 means a failed verdict, so every other failure is 2
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
        return 2
    return 0 if ok else 1


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mourre-lab",
        description="Run a configured two-channel commutator/scattering experiment.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--threads", type=int, default=None,
                        help=f"BLAS thread count (or set {THREADS_ENV})")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, experiment=args.experiment,
                          out_dir=args.out, threads=args.threads)
    except (ConfigError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(cfg.threads)
    try:
        return run(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
