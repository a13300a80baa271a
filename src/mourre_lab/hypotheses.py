"""Numerical surrogates for the compactness and regularity hypotheses.

Compactness of a fixed operator family is probed by tracking its leading
singular values across grid refinements: a compact operator keeps a
stable head and a fast-decaying tail, whereas the identity stays flat at
every level.  The verdict thresholds separate those two control cases by
orders of magnitude and are configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .operators import Band, OperatorSet, build_B, build_commutator_longrange
from .spectral import (
    SmoothingFunction,
    SpectralDecomposition,
    apply_function,
    dirichlet_decomposition,
    eigendecompose,
    plateau,
    resolvent,
)

__all__ = [
    "CompactnessReport",
    "C1Report",
    "ChannelDecompositions",
    "channel_decompositions",
    "assumption_operator",
    "compactness_report",
    "short_range_operator",
    "long_range_operator",
    "c1_probe",
    "singular_values",
]


@dataclass(frozen=True)
class CompactnessReport:
    operator_label: str
    refinement_levels: list          # (L, n) per level
    singular_values: list            # top-m array per level
    tail_ratio: list                 # sigma_20 / sigma_1 per level
    stability: float                 # max relative drift of sigma_1..10
    verdict: str                     # compact-consistent | non-compact | inconclusive
    thresholds: dict


@dataclass(frozen=True)
class C1Report:
    z: complex
    steps: list
    difference_quotient_norms: list   # per step: max over test states
    cauchy_defects: list              # consecutive-step differences
    limit_mismatch: float             # vs closed-form i[R(z), A] at smallest step
    resolvent_identity_defect: float  # vs -R(z) i[H,A] R(z)
    verdict: bool


@dataclass(frozen=True)
class ChannelDecompositions:
    """Spectral data of H and of both channel operators on one grid."""

    H: SpectralDecomposition
    minus: SpectralDecomposition
    plus: SpectralDecomposition

    def resolvent_H(self, z: complex) -> np.ndarray:
        return resolvent(self.H, z)

    def resolvent_channel(self, side: str, z: complex) -> np.ndarray:
        dec = self.minus if side == "-" else self.plus
        return resolvent(dec, z)


def channel_decompositions(opset: OperatorSet) -> ChannelDecompositions:
    """One eigh for H; the channels share the closed-form Laplacian basis."""
    dec_H = eigendecompose(opset.H)
    dec_lap = dirichlet_decomposition(opset.n, opset.grid.dx)
    pot = opset.potential
    minus = SpectralDecomposition(dec_lap.eigenvalues + pot.v_minus, dec_lap.eigenvectors)
    plus = SpectralDecomposition(dec_lap.eigenvalues + pot.v_plus, dec_lap.eigenvectors)
    return ChannelDecompositions(H=dec_H, minus=minus, plus=plus)


def assumption_operator(
    opset: OperatorSet,
    decs: ChannelDecompositions,
    which: str,
    eta: SmoothingFunction,
) -> np.ndarray:
    """Finite-dimensional matrix of assumption (ii), (iii) or (iv).

    (ii)  J i[A0, eta(H0)] J* - i[A, eta(H)]          (n x n, Hermitian)
    (iii) J eta(H0) - eta(H) J                        (n x 2n)
    (iv)  eta(H)(JJ* - 1) eta(H)                      (n x n, Hermitian)
    """
    jm = opset.cutoffs.j_minus
    jp = opset.cutoffs.j_plus
    n = opset.n
    eta_H = apply_function(decs.H, eta)

    if which == "iv":
        w = opset.cutoffs.jj_sum_sq - 1.0
        return eta_H @ (w[:, None] * eta_H)

    eta_m = apply_function(decs.minus, eta)
    eta_p = apply_function(decs.plus, eta)

    if which == "iii":
        out = np.zeros((n, 2 * n))
        out[:, :n] = jm[:, None] * eta_m - eta_H * jm[None, :]
        out[:, n:] = jp[:, None] * eta_p - eta_H * jp[None, :]
        return out

    if which == "ii":
        # i[A, M] = i(A M - M A) with A = i K': equals M K' - K' M (real)
        acore = opset.conjugate_core
        dcore = opset.dilation_core
        i_comm_H = eta_H @ acore - acore @ eta_H
        cm = eta_m @ dcore - dcore @ eta_m
        cp = eta_p @ dcore - dcore @ eta_p
        rhs = jm[:, None] * cm * jm[None, :] + jp[:, None] * cp * jp[None, :]
        diff = rhs - i_comm_H
        return 0.5 * (diff + diff.T)

    raise ValueError(f"unknown assumption tag {which!r}, expected ii/iii/iv")


def singular_values(matrix: np.ndarray, top: int = 40) -> np.ndarray:
    """Leading singular values via the Hermitian Gram matrix."""
    m = np.asarray(matrix)
    if m.shape[0] <= m.shape[1]:
        gram = m @ m.conj().T
    else:
        gram = m.conj().T @ m
    ev = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    ev = np.clip(ev, 0.0, None)
    sv = np.sqrt(ev[::-1])
    return sv[:top]


def compactness_report(
    builder: Callable[[float, int], np.ndarray],
    levels: Sequence[tuple[float, int]],
    label: str = "",
    top: int = 40,
    drift_tol: float = 0.10,
    tail_tol: float = 1e-2,
    flat_tail: float = 0.5,
) -> CompactnessReport:
    """Classify an operator family as compact-consistent / non-compact.

    compact-consistent: sigma_1..10 drift < drift_tol across levels and
    sigma_20/sigma_1 < tail_tol at the finest level; non-compact:
    sigma_20/sigma_1 > flat_tail at every level; otherwise inconclusive.
    """
    if len(levels) < 2:
        raise ValueError("need at least two refinement levels")
    svs, tails = [], []
    for (L, n) in levels:
        try:
            sv = singular_values(builder(L, n), top=top)
        except Exception as exc:
            raise RuntimeError(f"builder failed at level (L={L}, n={n}): {exc}") from exc
        svs.append(sv)
        s1 = sv[0] if sv[0] > 0 else 1.0
        tails.append(float(sv[19] / s1) if sv.size > 19 else 0.0)

    head = np.array([sv[:10] for sv in svs])
    ref = head[-1]
    # drift is measured relative to the operator norm, not entrywise:
    # entries far below sigma_1 are solver noise and carry no signal
    sigma1 = ref[0] if ref[0] > 0 else 1.0
    stability = float(np.max(np.abs(head - ref[None, :])) / sigma1)

    if stability < drift_tol and tails[-1] < tail_tol:
        verdict = "compact-consistent"
    elif all(t > flat_tail for t in tails):
        verdict = "non-compact"
    else:
        verdict = "inconclusive"
    return CompactnessReport(
        operator_label=label,
        refinement_levels=[(float(L), int(n)) for (L, n) in levels],
        singular_values=svs,
        tail_ratio=tails,
        stability=stability,
        verdict=verdict,
        thresholds={"drift_tol": drift_tol, "tail_tol": tail_tol, "flat_tail": flat_tail},
    )


def short_range_operator(
    opset: OperatorSet,
    decs: ChannelDecompositions,
    z: complex,
    smoothing: Optional[SmoothingFunction] = None,
) -> tuple[np.ndarray, str]:
    """B(z) A0 with an energy smoothing realizing the operator closure.

    Returns the n x 2n matrix B(z) A0 S with S = eta~(H0) a plateau equal
    to 1 on the energy range of interest; the raw discrete product grows
    with refinement because A0 is unbounded in the continuum, and the
    smoothing is recorded so the choice is auditable.
    """
    if z.imag == 0:
        raise ValueError("short-range operator requires a non-real z")
    pot = opset.potential
    if smoothing is None:
        lo = min(pot.v_minus, pot.v_plus) + 0.05
        hi = max(pot.v_minus, pot.v_plus) + 4.0
        smoothing = plateau(lo, hi, shoulder=1.0)
    n = opset.n
    bmat = build_B(opset, z, decs.resolvent_H, decs.resolvent_channel)
    dcore = opset.dilation_core   # D = iK
    sm = apply_function(decs.minus, smoothing)
    sp = apply_function(decs.plus, smoothing)
    out = np.zeros((n, 2 * n), dtype=complex)
    out[:, :n] = 1j * (bmat[:, :n] @ dcore) @ sm
    out[:, n:] = 1j * (bmat[:, n:] @ dcore) @ sp
    descr = f"plateau smoothing eta~(H0), kind={smoothing.kind}, center={smoothing.center}, width={smoothing.width}"
    return out, descr


def long_range_operator(opset: OperatorSet, decs: ChannelDecompositions) -> np.ndarray:
    """R(i) (J i[H0,A0] J* - i[H,A]) R(i), the dual-pair weighted difference."""
    if opset.potential.v_prime is None:
        raise ValueError("long-range difference needs a differentiable potential")
    jm = Band(opset.cutoffs.j_minus[None, :])
    jp = Band(opset.cutoffs.j_plus[None, :])
    cm, cp = opset.commutator_iH0A0_channel
    mid = Band((jm @ cm @ jm).entries + (jp @ cp @ jp).entries
               - build_commutator_longrange(opset).entries)
    r = decs.resolvent_H(1j)
    out = r @ mid @ r
    return 0.5 * (out + out.conj().T)


def c1_probe(
    opset: OperatorSet,
    decs: ChannelDecompositions,
    z: complex,
    test_states: np.ndarray,
    steps: Sequence[float] = (1e-2, 1e-3, 1e-4, 1e-5),
) -> C1Report:
    """Strong-derivative probe of t -> e^{-itA} R(z) e^{itA}.

    The difference quotients Q(t) psi must be Cauchy in t and converge to
    the closed-form commutator i[R(z), A]; the latter is also compared
    against -R(z) i[H,A] R(z).
    """
    states = np.atleast_2d(np.asarray(test_states, dtype=complex))
    if states.shape[1] != opset.n:
        raise ValueError("test states must be rows of length n")
    norms = np.linalg.norm(states, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        raise ValueError("test states must be normalized")
    a = 1j * opset.conjugate_core.dense()
    w, u = np.linalg.eigh(a)
    dec_A = SpectralDecomposition(eigenvalues=w, eigenvectors=u)
    r = resolvent(decs.H, z)

    def conjugated(t: float) -> np.ndarray:
        em = apply_function(dec_A, lambda w: np.exp(-1j * t * w))
        ep = apply_function(dec_A, lambda w: np.exp(1j * t * w))
        return em @ r @ ep

    quotients = []
    for t in steps:
        q = (conjugated(t) - r) / t
        quotients.append(q)
    qnorms = [float(max(np.linalg.norm(q @ s) for s in states)) for q in quotients]
    cauchy = [
        float(max(np.linalg.norm((quotients[k + 1] - quotients[k]) @ s) for s in states))
        for k in range(len(steps) - 1)
    ]

    comm_closed = 1j * (r @ a - a @ r)
    last = quotients[-1]
    limit_mismatch = float(
        max(np.linalg.norm((last - comm_closed) @ s) for s in states)
        / max(np.linalg.norm(comm_closed @ s) for s in states)
    )
    rhs = -r @ (opset.commutator_iHA @ r)
    from .mourre import opnorm

    ident_defect = float(opnorm(comm_closed - rhs))
    decreasing = all(cauchy[k + 1] < cauchy[k] / 3 for k in range(len(cauchy) - 1))
    verdict = decreasing and limit_mismatch < 1e-3
    return C1Report(
        z=z,
        steps=list(steps),
        difference_quotient_norms=qnorms,
        cauchy_defects=cauchy,
        limit_mismatch=limit_mismatch,
        resolvent_identity_defect=ident_defect,
        verdict=bool(verdict),
    )
