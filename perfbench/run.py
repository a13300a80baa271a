"""mourre-lab benchmark: time to verdict of the CLI experiments.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Every experiment runs in a fresh child interpreter (one closed-loop
client, one experiment at a time) with the BLAS thread count pinned
through the environment before the interpreter starts, and read back
from the library.  Every run is checked; the last line of standard
output is one JSON object with the metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from spans import self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 8
CHILD_TIMEOUT_S = 150.0
MIB = 2**20

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "operators.build_pair_s": "s",
    "operators.build_pair_calls": "count",
    "operators.opset_mb": "MiB",
    "operators.longrange_s": "s",
    "spectral.eig_s": "s",
    "spectral.eig_calls": "count",
    "spectral.eig_dim_sum": "count",
    "spectral.resolvent_s": "s",
    "spectral.resolvent_calls": "count",
    "spectral.propagate_s": "s",
    "spectral.propagate_calls": "count",
    "mourre.estimate_rho_eta_s": "s",
    "mourre.estimate_rho_eta_calls": "count",
    "mourre.window_modes": "count",
    "mourre.discard_ratio": "ratio",
    "mourre.transfer_self_s": "s",
    "mourre.opnorm_s": "s",
    "hypotheses.operator_build_s": "s",
    "hypotheses.svd_s": "s",
    "hypotheses.svd_calls": "count",
    "hypotheses.svd_input_melems": "Melem",
    "scattering.probe_self_s": "s",
    "scattering.projector_s": "s",
    "cli.emit_s": "s",
    "cli.report_bytes": "B",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "blas.speedup": "ratio",
}


class Refusal(RuntimeError):
    """The benchmark cannot produce trustworthy numbers; no result is printed."""


@dataclass
class Sample:
    setup_s: float
    wall_s: float
    rss_mb: float
    problems: list = field(default_factory=list)
    result: dict = field(default_factory=dict)
    report_bytes: int = 0


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer self times and counters of one traced run."""
    own, calls = defaultdict(float), defaultdict(int)
    counters = defaultdict(lambda: defaultdict(int))
    for span, t in zip(spans, self_times(spans)):
        own[span["name"]] += t
        calls[span["name"]] += 1
        for key, val in span["counters"].items():
            counters[span["name"]][key] += val
    root = next(s for s in spans if s["name"] == "cli.run")
    traced_wall = root["end"] - root["start"]
    modes = counters["mourre.estimate_rho_eta"]["modes"]
    return {
        "operators.build_pair_s": own["operators.build_pair"],
        "operators.build_pair_calls": calls["operators.build_pair"],
        "operators.opset_mb": counters["operators.build_pair"]["bytes"] / MIB,
        "operators.longrange_s": own["operators.longrange"],
        "spectral.eig_s": own["spectral.eig"],
        "spectral.eig_calls": calls["spectral.eig"],
        "spectral.eig_dim_sum": counters["spectral.eig"]["dim"],
        "spectral.resolvent_s": own["spectral.resolvent"],
        "spectral.resolvent_calls": calls["spectral.resolvent"],
        "spectral.propagate_s": own["spectral.propagate"],
        "spectral.propagate_calls": calls["spectral.propagate"],
        "mourre.estimate_rho_eta_s": own["mourre.estimate_rho_eta"],
        "mourre.estimate_rho_eta_calls": calls["mourre.estimate_rho_eta"],
        "mourre.window_modes": modes,
        "mourre.discard_ratio": counters["mourre.estimate_rho_eta"]["discarded"] / modes if modes else 0.0,
        "mourre.transfer_self_s": own["mourre.transfer"],
        "mourre.opnorm_s": own["mourre.opnorm"],
        "hypotheses.operator_build_s": own["hypotheses.operator_build"],
        "hypotheses.svd_s": own["hypotheses.svd"],
        "hypotheses.svd_calls": calls["hypotheses.svd"],
        "hypotheses.svd_input_melems": counters["hypotheses.svd"]["elems"] / 1e6,
        "scattering.probe_self_s": own["scattering.probe"],
        "scattering.projector_s": own["scattering.projector"],
        "cli.emit_s": own["cli.emit"],
        "trace.coverage": 1.0 - own["cli.run"] / traced_wall,
    }


class Bench:
    """Spawns, times and checks the children of one benchmark invocation."""

    def __init__(self, workload, seed: int, smoke: bool, reference: dict | None):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.reference = reference
        self.threads = len(os.sched_getaffinity(0))
        self.config = workload.make_config(seed, smoke)
        self.work = ROOT / ".perfbench_work" / f"{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        (self.work / "config.json").write_text(json.dumps(self.config, indent=1))
        self.first_bytes: dict[int, bytes] = {}
        self.samples: list[Sample] = []
        self.blas_config = ""

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def spawn(self, *, setup_only=False, trace=False, threads=None) -> Sample:
        threads = threads or self.threads
        out, res = self.work / "out", self.work / "result.json"
        shutil.rmtree(out, ignore_errors=True)
        res.unlink(missing_ok=True)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
               "--config", "config.json", "--out", "out", "--result", res.name]
        cmd += ["--setup-only"] * setup_only + ["--trace"] * trace
        with open(self.work / "stderr.txt", "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.work, env=env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            elapsed = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = json.loads(res.read_text()) if res.exists() else {}
        sample = Sample(setup_s=result.get("t_ready", t0 + elapsed) - t0,
                        wall_s=result.get("wall_s", elapsed),
                        rss_mb=usage.ru_maxrss * 1024 / MIB, result=result)
        # tiny smoke configs are too coarse to pass their verdicts (exit 1)
        ok_exits = (0, 1) if self.smoke else (0,)
        if not result or result.get("exit", 0) not in ok_exits or proc.returncode != 0:
            tail = (self.work / "stderr.txt").read_text(errors="replace")[-600:]
            sample.problems.append(f"exit {proc.returncode}/{result.get('exit')}: {tail.strip()}")
        if result:
            self._guard(result, threads)
        if not setup_only and not sample.problems:
            self._check(sample, threads)
        return sample

    def _guard(self, result: dict, threads: int) -> None:
        if not Path(result["package"]).resolve().is_relative_to(SRC.resolve()):
            raise Refusal(f"imported {result['package']}, not the package under {SRC}")
        if result["blas_threads"] != threads:
            raise Refusal(f"BLAS runs {result['blas_threads']} threads, requested {threads}")
        self.blas_config = result["blas_config"]

    def _check(self, sample: Sample, threads: int) -> None:
        out = self.work / "out"
        blob = b"".join(p.name.encode() + b"\0" + p.read_bytes()
                        for p in sorted(out.iterdir()))
        sample.report_bytes = sum(p.stat().st_size for p in out.iterdir())
        first = self.first_bytes.setdefault(threads, blob)
        if blob != first:
            sample.problems.append("report bytes differ from the first run of this workload")
        if self.smoke:
            return
        try:
            summary = self.workload.summary(out)
        except (OSError, KeyError, ValueError) as exc:
            sample.problems.append(f"unreadable report: {exc!r}")
            return
        sample.problems += self.workload.check(summary, self.config)
        if self.reference is not None:
            sample.problems += self.workload.compare(summary, self.reference, self.config)
        sample.result["summary"] = summary

    def experiment(self, **kw) -> Sample:
        sample = self.spawn(**kw)
        self.samples.append(sample)
        for msg in sample.problems:
            print(f"FAILED run {len(self.samples)}: {msg}", file=sys.stderr)
        return sample

    def loop(self, seconds: float, step) -> list:
        """Closed loop: call step() until the next call would pass the deadline."""
        deadline = time.monotonic() + seconds
        costs = []
        while not costs or time.monotonic() + statistics.median(costs) <= deadline:
            t0 = time.monotonic()
            step()
            costs.append(time.monotonic() - t0)
        return costs

    def measure(self, seconds: float) -> dict:
        setups = [self.spawn(setup_only=True) for _ in range(SETUP_SAMPLES)]
        for s in setups:
            if s.problems:
                raise Refusal(f"set-up failed: {s.problems[0]}")
        self.loop(seconds, self.experiment)
        setup_s = [s.setup_s for s in setups + self.samples]
        return {
            "wall_s": (statistics.median(s.wall_s for s in self.samples),
                       describe([s.wall_s for s in self.samples])),
            "setup_s": (statistics.median(setup_s), describe(setup_s)),
            "peak_rss_mb": (statistics.median(s.rss_mb for s in self.samples),
                            describe([s.rss_mb for s in self.samples])),
        }

    def measure_traced(self, seconds: float) -> dict:
        plain, traced = [], []

        def pair():
            # alternate the order so neither side always follows the other
            first_traced = len(plain) % 2 == 1
            for trace in (first_traced, not first_traced):
                (traced if trace else plain).append(self.experiment(trace=trace))

        self.loop(seconds, pair)
        single = self.experiment(threads=1)
        if not single.problems and self.first_bytes.get(1) != self.first_bytes.get(self.threads):
            print("note: reports at 1 BLAS thread differ in bytes from reports at "
                  f"{self.threads}", file=sys.stderr)
        per_run = [layer_metrics(s.result["spans"]) | {"cli.report_bytes": s.report_bytes}
                   for s in traced if "spans" in s.result]
        if not per_run:
            raise Refusal("no traced run completed")
        plain_wall = statistics.median(s.wall_s for s in plain)
        traced_wall = statistics.median(s.wall_s for s in traced)
        metrics = {name: (statistics.median(run[name] for run in per_run), f"n={len(per_run)}")
                   for name in per_run[0]}
        metrics["trace.overhead_s"] = (traced_wall - plain_wall,
                                       f"traced {traced_wall:.4f} - untraced {plain_wall:.4f}")
        metrics["blas.speedup"] = (single.wall_s / plain_wall,
                                   f"1 thread {single.wall_s:.4f} / {self.threads} threads "
                                   f"{plain_wall:.4f}")
        return metrics


def describe(values: list) -> str:
    return f"n={len(values)} min={min(values):.4f} max={max(values):.4f}"


def machine_record(bench: Bench) -> str:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return (f"machine: nproc={bench.threads} blas_threads={bench.threads} (read back, "
            f"requested {bench.threads}) blas=\"{bench.blas_config}\" "
            f"python={platform.python_version()} numpy={version('numpy')} "
            f"scipy={version('scipy')} platform={platform.machine()}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Measure one workload; returns (metrics {name: value}, units, attempted, failed)."""
    workload = WORKLOADS[name]
    reference = None
    if seed == 0 and not smoke:
        reference = json.loads(REFERENCE.read_text())[name]
    bench = Bench(workload, seed, smoke, reference)
    try:
        metrics = bench.measure_traced(seconds) if trace else bench.measure(seconds)
    finally:
        bench.close()
    units = PER_LAYER if trace else END_TO_END
    failed = sum(1 for s in bench.samples if s.problems)
    attempted = len(bench.samples)
    print(machine_record(bench))
    print(f"workload {name} seed={seed} trace={int(trace)} config={json.dumps(bench.config)}")
    for key, unit in units.items():
        value, note = metrics[key]
        print(f"  {key:32s} {value:14.6g} {unit:6s} {note}")
    print(f"  {'fail_frac':32s} {failed / attempted:14.6g} {'ratio':6s} "
          f"{failed} failed of {attempted} attempted runs")
    return {k: v for k, (v, _) in metrics.items()}, units, attempted, failed


def result_line(metrics: dict, units: dict, attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def smoke() -> int:
    """Tiny configs through both modes; names and units must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py: {listed} vs {table}")
    for name in WORKLOADS:
        for trace in (False, True):
            metrics, units, attempted, failed = run_workload(name, 1, 0.0, trace, smoke=True)
            missing = [k for k in units if not isinstance(metrics.get(k), (int, float))]
            if missing or failed:
                problems.append(f"{name} trace={int(trace)}: missing {missing}, failed {failed}")
    for msg in problems:
        print(f"smoke: {msg}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "mourre_lab" / "cli.py").is_file():
        print(f"error: no mourre_lab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload != "all":
            line = result_line(*run_workload(args.workload, args.seed, args.seconds,
                                             bool(args.trace)))
        else:
            merged, units, attempted, failed = {}, {}, 0, 0
            for name in WORKLOADS:
                for trace in (False, True):
                    m, u, a, f = run_workload(name, args.seed, args.seconds, trace)
                    merged |= {f"{name}/{k}": v for k, v in m.items()}
                    units |= {f"{name}/{k}": v for k, v in u.items()}
                    attempted, failed = attempted + a, failed + f
            line = result_line(merged, units, attempted, failed)
    except Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
