"""Layer spans recorded from outside the program.

The benchmark's traced run wraps the public functions of each
`mourre_lab` module and rebinds every module attribute that refers to
them, so callers that look the name up at call time (`from .spectral
import propagate` in `scattering`, `from .mourre import transfer_verify`
inside the CLI runners) go through the wrapper.  Spans keep name, start, end,
parent and counters in memory; the child writes them out when the run
ends.  Nothing in `src/` is edited.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def opset_nbytes(opset) -> int:
    """Bytes held by the operator arrays of an OperatorSet."""
    total = 0
    for name in type(opset).__dataclass_fields__:
        if name in ("grid", "cutoffs", "potential"):
            continue
        val = getattr(opset, name)
        for item in val if isinstance(val, tuple) else (val,):
            arr = getattr(item, "entries", item)
            if isinstance(arr, np.ndarray):
                total += arr.nbytes
    return total


def _eig_counters(args, result):
    return {"dim": int(result.eigenvectors.shape[0])}


def _rho_counters(args, result):
    return {"modes": int(np.size(result.compression_spectrum)),
            "discarded": int(result.n_discarded)}


def _svd_counters(args, result):
    m = np.asarray(args[0])
    return {"elems": int(m.shape[0] * m.shape[1])}


def _opset_counters(args, result):
    return {"bytes": opset_nbytes(result)}


# (module, function, span name, counters(args, result) or None)
TARGETS = (
    ("cli", "run", "cli.run", None),
    ("cli", "emit_json", "cli.emit", None),
    ("cli", "emit_csv", "cli.emit", None),
    ("operators", "build_pair", "operators.build_pair", _opset_counters),
    ("operators", "build_commutator_longrange", "operators.longrange", None),
    ("spectral", "eigendecompose", "spectral.eig", _eig_counters),
    ("spectral", "resolvent", "spectral.resolvent", None),
    ("spectral", "propagate", "spectral.propagate", None),
    ("spectral", "scattering_projector", "scattering.projector", None),
    ("mourre", "estimate_rho_eta", "mourre.estimate_rho_eta", _rho_counters),
    ("mourre", "transfer_verify", "mourre.transfer", None),
    ("mourre", "opnorm", "mourre.opnorm", None),
    ("hypotheses", "assumption_operator", "hypotheses.operator_build", None),
    ("hypotheses", "short_range_operator", "hypotheses.operator_build", None),
    ("hypotheses", "long_range_operator", "hypotheses.operator_build", None),
    ("hypotheses", "singular_values", "hypotheses.svd", _svd_counters),
    ("scattering", "completeness_probe", "scattering.probe", None),
)


class Tracer:
    """In-memory span recorder; `install` rebinds the traced functions."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None, "counters": {}}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                span["counters"] = counters(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "mourre_lab" or key.startswith("mourre_lab.")]
        for mod_name, fn_name, span_name, counters in TARGETS:
            original = getattr(sys.modules[f"mourre_lab.{mod_name}"], fn_name)
            wrapper = self.wrap(original, span_name, counters)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapper)


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
