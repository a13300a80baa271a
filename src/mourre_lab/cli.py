"""Configuration-driven experiment runner.

One declarative JSON config per run; reports are emitted as JSON (with
the config as given embedded) plus plot-ready CSV.  Exit status:
0 = all verdicts pass, 1 = a verdict fails, 2 = execution/config error.
rho-scan is a measurement with no verdict: whenever it runs it writes
"verdict": true and exits 0, however far its margins fall.
One rule, `_token`, writes every value of both reports, as read from the
report objects' own fields: true/false, integers, floats at 17 significant
digits (JSON quotes a non-finite one, CSV does not).  Runs are
deterministic for a fixed config and BLAS thread count.  `--threads` or the
`threads` field sets that count; with neither, it is the one OpenBLAS read
from OPENBLAS_NUM_THREADS at `import numpy`, and the last digits of several
reports follow it.  Runs use every field, but `hypotheses` uses no `n`
(only its type is checked) and reads `L` only for its default `levels`.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import blas
from .grid import PROFILES, make_grid, make_steplike
from .hypotheses import OPERATOR_TAGS, check_operator_tags, compactness_ladder
from .mourre import rho_scan, transfer_verify
from .operators import build_pair
from .scattering import (
    completeness_probe,
    continuum_oracle,
    gaussian_averaged_oracle,
    make_channel_packet,
    scattering_coefficients,
)
from .spectral import bump, eigendecompose

SCHEMA_VERSION = "1"

# Each experiment's `params` keys and defaults (the README params table); a
# given value must have the JSON type of its default.  An empty list stands
# for the default the runner derives: the lambda_min..lambda_max scan, or
# the levels [[L, 401], [L, 801]].  `_build` reads the bump keys, so every
# experiment accepts them; amplitude 0 means no bump.
PARAMS = {exp: dict(keys, bump_amplitude=0.0, bump_width=1.0) for exp, keys in {
    "rho-scan": {"lambdas": [], "lambda_min": -0.5, "lambda_max": 3.0, "lambda_step": 0.1,
                 "eps": 0.1},
    "transfer": {"lambdas": [0.3, 0.5, 1.5, 2.0], "eps": 0.1, "tol": 0.2},
    "hypotheses": {"levels": [], "eta_center": 0.5, "eta_width": 0.4,
                   "operators": list(OPERATOR_TAGS)},
    "scatter": {"lambda": 2.0, "sigma": 3.0, "tol": 0.02},
    "completeness": {"x0": 10.0, "k0": 1.5, "sigma": 3.0, "t_max": 10.0, "n_times": 21},
}.items()}
EXPERIMENTS = tuple(PARAMS)
_JSON_TYPES = {float: "finite number", int: "integer", str: "string", list: "list", dict: "object"}
# The item type of each list param whose default is empty
_ITEMS = {"lambdas": 0.0, "levels": [0.0, 0]}

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
    threads: Optional[int] = None
    out_dir: str = "."
    params: dict = field(default_factory=dict)


def _fits(value, default) -> bool:
    """Whether `value` has the JSON type of `default`: an integer fits a
    number, a number must be finite as a float (`json` reads NaN, Infinity
    and integers of any size), and the items of a list fit the first item
    of a non-empty default."""
    if isinstance(default, float):
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)
    if isinstance(default, list):
        return isinstance(value, list) and (not default or all(_fits(v, default[0]) for v in value))
    return type(value) is type(default)


def _check_type(name: str, value, default) -> None:
    if not _fits(value, default):
        kind = _JSON_TYPES[type(default)]
        if isinstance(default, list) and default:
            kind += f" of {_JSON_TYPES[type(default[0])]}s"
        raise ConfigError(f"{name}: expected a JSON {kind}, got {json.dumps(value)}")


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
    defaults = dict(vars(ExperimentConfig("")), threads=1)  # threads: null or an integer
    extra = set(raw) - set(defaults)
    if extra:
        raise ConfigError(f"config: unknown field(s) {sorted(extra)}")
    if experiment is not None:
        raw["experiment"] = experiment
    if out_dir is not None:
        raw["out_dir"] = out_dir
    if threads is not None:
        raw["threads"] = threads
    for key, value in raw.items():
        if not (key == "threads" and value is None):
            _check_type(key, value, defaults[key])
    cfg = ExperimentConfig(**raw)
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: {cfg.experiment!r} not in {EXPERIMENTS}")
    if cfg.L <= 0:
        raise ConfigError("L: must be positive")
    if cfg.experiment != "hypotheses" and (cfg.n < 16 or cfg.n % 2 == 0):  # it reads no n
        raise ConfigError("n: must be odd and >= 16")
    if cfg.profile not in PROFILES:
        raise ConfigError(f"profile: {cfg.profile!r} not in {tuple(PROFILES)}")
    if cfg.threads is not None and cfg.threads < 1:
        raise ConfigError("threads: must be >= 1")
    allowed = PARAMS[cfg.experiment]
    unknown = sorted(set(cfg.params) - set(allowed))
    if unknown:
        raise ConfigError(f"params: unknown key(s) {unknown} for {cfg.experiment}; "
                          f"expected some of {list(allowed)}")
    for key, val in cfg.params.items():
        _check_type(f"params.{key}", val, [_ITEMS[key]] if key in _ITEMS else allowed[key])
        if key.endswith(("tol", "eps", "sigma", "step", "width", "t_max")) and val <= 0:
            raise ConfigError(f"params.{key}: must be positive")
    p = {**allowed, **cfg.params}
    if cfg.profile == "sharp_step" and p["bump_amplitude"]:
        raise ConfigError(f"params.bump_amplitude: profile 'sharp_step' takes no bump, "
                          f"got {p['bump_amplitude']}")
    if cfg.experiment == "rho-scan" and p["lambda_max"] < p["lambda_min"]:
        raise ConfigError(f"params.lambda_max: {p['lambda_max']} is below "
                          f"lambda_min {p['lambda_min']}")
    levels = cfg.params.get("levels", [])
    if len(levels) == 1:
        raise ConfigError("params.levels: need at least two levels to compare, got one")
    for level in levels:
        if (len(level) != 2 or not isinstance(level[1], int) or level[0] <= 0
                or level[1] < 16 or level[1] % 2 == 0):
            raise ConfigError(f"params.levels: each level must be [L, n] with L > 0 and "
                              f"n an odd integer >= 16, got {json.dumps(level)}")
    if p.get("n_times", 2) < 2:
        raise ConfigError(f"params.n_times: need at least two times, got {p['n_times']}")
    listed = {"hypotheses": "operators", "transfer": "lambdas"}.get(cfg.experiment)
    if listed and not p[listed]:  # a run that checks nothing has no verdict to give
        raise ConfigError(f"params.{listed}: {cfg.experiment} needs at least one, got []")
    try:
        check_operator_tags(cfg.params.get("operators", []))
    except ValueError as exc:
        raise ConfigError(f"params.operators: {exc}") from None
    return cfg


# ---------------------------------------------------------------- output

_NUMBERS = (bool, np.bool_, int, np.integer, float, np.floating)


def _token(v) -> str:
    """A report value as written: true/false, an integer, a float at 17
    significant digits (nan, inf, -inf when non-finite), or str(v)."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


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
    if obj is None:
        return "null"
    token = _token(obj)
    if isinstance(obj, _NUMBERS) and token not in ("nan", "inf", "-inf"):
        return token
    return json.dumps(token)


def emit_json(report: dict, path) -> None:
    Path(path).write_text(_dump(report, "") + "\n")


def emit_csv(header: str, rows, path) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_token, row)) + "\n")


# ------------------------------------------------------------- experiments
#
# Each runner takes the config and its params (defaults filled in) and
# returns the verdict, the report payload, and the CSV table as
# (file name, header, rows), or None; `run` writes both reports.

def _bump_field(p: dict, x: np.ndarray) -> Optional[np.ndarray]:
    """The bump of the params at the points x, None for amplitude 0."""
    if not p["bump_amplitude"]:
        return None
    return float(p["bump_amplitude"]) * bump(0.0, float(p["bump_width"]))(x)


def _build(cfg: ExperimentConfig, p: dict, L: Optional[float] = None, n: Optional[int] = None):
    grid = make_grid(L if L is not None else cfg.L, n if n is not None else cfg.n)
    pot = make_steplike(grid, cfg.v_minus, cfg.v_plus, profile=cfg.profile,
                        bump=_bump_field(p, grid.nodes))
    return build_pair(pot)


def _check_full_basis(cfg: ExperimentConfig) -> None:
    """Refuse an n whose full basis of H cannot fit in physical memory: the
    divide and conquer holds the n x n eigenvectors and as large a workspace."""
    need = 16 * cfg.n**2
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(f"n: {cfg.experiment} needs the full basis of H, about "
                          f"{need / 2**30:.1f} GiB at n = {cfg.n}, more than the "
                          f"{have / 2**30:.1f} GiB of physical memory")


def _run_rho_scan(cfg: ExperimentConfig, p: dict):
    if p["lambdas"]:
        lambdas = [float(v) for v in p["lambdas"]]
    else:
        step = float(p["lambda_step"])
        lambdas = list(np.arange(float(p["lambda_min"]), float(p["lambda_max"]) + 0.5 * step,
                                 step))
    rows = rho_scan(_build(cfg, p), lambdas, float(p["eps"]))
    header = "lambda,rho0_analytic,rho_raw,rho_corrected,n_discarded,margin"
    payload = {"rows": [dict(zip(header.split(","), r)) for r in rows]}
    return True, payload, ("rho_scan.csv", header, rows)


def _run_transfer(cfg: ExperimentConfig, p: dict):
    rep = transfer_verify(_build(cfg, p), [float(v) for v in p["lambdas"]], float(p["eps"]),
                          float(p["tol"]))
    rows = zip(rep.lambda_samples, rep.rho0_analytic, rep.rho_H_estimate, rep.margins,
               rep.eone_residuals)
    return rep.verdict, vars(rep), (
        "transfer.csv", "lambda,rho0_analytic,rho_estimate,margin,eone_residual", rows)


def _run_hypotheses(cfg: ExperimentConfig, p: dict):
    levels = [tuple(lv) for lv in p["levels"] or [[cfg.L, 401], [cfg.L, 801]]]
    ladder = compactness_ladder(lambda L, n: _build(cfg, p, L=L, n=n), levels,
                                bump(float(p["eta_center"]), float(p["eta_width"])),
                                p["operators"])
    reports = {}
    verdict = True
    sv_rows = []
    for tag, rep in ladder.items():
        reports[tag] = vars(rep)
        want = "non-compact" if tag == "identity" else "compact-consistent"
        verdict = verdict and rep.verdict == want
        for li, sv in enumerate(rep.singular_values):
            for k, s in enumerate(sv):
                sv_rows.append((tag, li, k + 1, s))
    return verdict, {"operators": reports}, (
        "hypotheses_sv.csv", "operator,level,k,sigma_k", sv_rows)


def _run_scatter(cfg: ExperimentConfig, p: dict):
    """Lattice R and T against the continuum ones of the same potential: the
    formula of the config's profile (`grid.PROFILES`) plus its bump, integrated
    across |x| <= max(reach, bump_width), beyond which V is v_pm.  The sharp
    step's reach is 0, so its oracle is the plane-wave matching at x = 0."""
    lam, sigma, tol = float(p["lambda"]), float(p["sigma"]), float(p["tol"])
    coeff = scattering_coefficients(_build(cfg, p), lam, sigma=sigma)
    ends = cfg.v_minus, cfg.v_plus
    formula, reach = PROFILES[cfg.profile]
    if p["bump_amplitude"]:
        reach = max(reach, float(p["bump_width"]))

    def potential(x):
        v = formula(x, *ends)[0]
        field = _bump_field(p, x)
        return v if field is None else v + field

    oracle = continuum_oracle(lam, *ends, potential, reach)
    averaged = gaussian_averaged_oracle(lam, *ends, sigma, potential, reach)
    verdict = (abs(coeff.reflection - averaged.reflection) <= tol
               and abs(coeff.transmission - averaged.transmission) <= tol
               and coeff.flux_defect < 1e-2)
    payload = dict(vars(coeff), tol=tol, **{
        key: {"reflection": o.reflection, "transmission": o.transmission}
        for key, o in (("oracle", oracle), ("oracle_averaged", averaged))})
    return verdict, payload, None


def _run_completeness(cfg: ExperimentConfig, p: dict):
    _check_full_basis(cfg)
    opset = _build(cfg, p)
    psi = make_channel_packet(opset, float(p["x0"]), float(p["k0"]), float(p["sigma"]))
    times = np.linspace(0.0, float(p["t_max"]), p["n_times"])
    rep = completeness_probe(opset, eigendecompose(opset.H), psi, times)
    rows = zip(rep.times, rep.froufrou_norms, rep.converse_norms, rep.boundary_margins)
    return rep.verdict, vars(rep), (
        "completeness.csv", "t,froufrou_norm,converse_norm,boundary_margin", rows)


_RUNNERS = {
    "rho-scan": _run_rho_scan,
    "transfer": _run_transfer,
    "hypotheses": _run_hypotheses,
    "scatter": _run_scatter,
    "completeness": _run_completeness,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute the configured experiment and write its reports; returns the exit code."""
    out = Path(cfg.out_dir)
    if cfg.threads is not None and not blas.set_num_threads(cfg.threads):
        raise ConfigError(f"threads: cannot set {cfg.threads} BLAS threads: "
                          f"no bundled OpenBLAS under {blas.libdir()}")
    try:
        out.mkdir(parents=True, exist_ok=True)
        verdict, payload, table = _RUNNERS[cfg.experiment](
            cfg, {**PARAMS[cfg.experiment], **cfg.params})
        report = {"schema_version": SCHEMA_VERSION, "experiment": cfg.experiment,
                  "config": vars(cfg), **payload, "verdict": verdict}
        emit_json(report, out / f"{cfg.experiment.replace('-', '_')}.json")
        if table is not None:
            name, header, rows = table
            emit_csv(header, rows, out / name)
    except ConfigError:
        raise
    except Exception as exc:  # exit 1 means a failed verdict, so every other failure is 2
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
        return 2
    return 0 if verdict else 1


def main(argv: Optional[list] = None) -> int:
    import argparse  # only the command line needs it: importing the module costs no argparse

    parser = argparse.ArgumentParser(
        prog="mourre-lab",
        description="Run a configured two-channel commutator/scattering experiment.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS thread count (overrides config)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, experiment=args.experiment,
                          out_dir=args.out, threads=args.threads)
    except (ConfigError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
