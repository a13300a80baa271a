"""Numerical surrogates for the compactness and regularity hypotheses.

Compactness of a fixed operator family is probed by tracking its leading
singular values across grid refinements: a compact operator keeps a
stable head and a fast-decaying tail, whereas the identity stays flat at
every level.  The verdict thresholds separate those two control cases by
orders of magnitude and are configurable.

On the box every surrogate is a product of thin factors (eta and the
plateau have compact support, the long-range middle term lives on a few
nodes): each builder returns a `ThinProduct`, and `singular_values` takes
a QR of each thin factor and one SVD of the small core that is left.
Every builder takes the eigendecomposition of H alone: the channel
eigenpairs where eta (or the plateau) is nonzero come in closed form from
`dirichlet_decomposition`, and the channel resolvent acts by DST-I, so no
full channel basis is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .operators import Band, OperatorSet, build_commutator_longrange
from .spectral import (
    SmoothingFunction,
    SpectralDecomposition,
    ThinProduct,
    apply_function,
    dirichlet_decomposition,
    dirichlet_eigenvalues,
    dst1,
    plateau,
    resolvent,
    sandwich,
    support,
    thin_sum,
)

__all__ = [
    "CompactnessReport",
    "C1Report",
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


def _channel_support(opset: OperatorSet, shift: float, f):
    """(U_S, f_S) of f(-Delta + shift), built from the closed-form eigenpairs where f != 0."""
    return support(dirichlet_decomposition(opset.n, opset.grid.dx, shift, f), f)


def _resolve(dec: SpectralDecomposition, z: complex, x: np.ndarray) -> np.ndarray:
    """R(z) x = U (Lambda - z)^{-1} U^dagger x for an n x k block x, with no n x n product."""
    u = dec.eigenvectors
    return u @ ((u.conj().T @ x) / (dec.eigenvalues - z)[:, None])


def _channel_resolve(opset: OperatorSet, shift: float, z: complex, x: np.ndarray) -> np.ndarray:
    """(-Delta + shift - z)^{-1} x = dst1((w + shift - z)^{-1} dst1(x)) for an n x k block x."""
    w = dirichlet_eigenvalues(opset.n, opset.grid.dx)
    return dst1(dst1(x) / (w + shift - z)[:, None])


def assumption_operator(
    opset: OperatorSet,
    dec_H: SpectralDecomposition,
    which: str,
    eta: SmoothingFunction,
) -> ThinProduct:
    """Factors of assumption (ii), (iii) or (iv), with eta(.) = U_S diag(f) U_S^T per space.

    (ii)  J i[A0, eta(H0)] J* - i[A, eta(H)]          (n x n, symmetric)
    (iii) J eta(H0) - eta(H) J                        (n x 2n)
    (iv)  eta(H)(JJ* - 1) eta(H)                      (n x n, symmetric)

    For A = iK with K real antisymmetric, i[A, eta] = eta K - K eta =
    -[U, KU] [[0, f], [f, 0]] [U, KU]^T, so (ii) is symmetric by construction.
    """
    cut, n, pot = opset.cutoffs, opset.n, opset.potential
    if which not in ("ii", "iii", "iv"):
        raise ValueError(f"unknown assumption tag {which!r}, expected ii/iii/iv")
    if which == "iv":
        return sandwich(dec_H, eta, Band((cut.jj_sum_sq - 1.0)[None, :]))

    (um, fm), (up, fp) = (_channel_support(opset, v, eta) for v in (pot.v_minus, pot.v_plus))
    uh, fh = support(dec_H, eta)
    if which == "iii":
        jm, jp = cut.j_minus[:, None], cut.j_plus[:, None]
        return thin_sum(ThinProduct(jm * um, np.diag(fm), np.pad(um, ((0, n), (0, 0)))),
                        ThinProduct(jp * up, np.diag(fp), np.pad(up, ((n, 0), (0, 0)))),
                        ThinProduct(uh, -np.diag(fh), np.vstack([jm * uh, jp * uh])))

    def term(u, f, kcore, j, sign):
        """sign * j i[iK, eta] j with its factors [jU, jKU]."""
        block = j[:, None] * np.hstack([u, kcore @ u])
        return ThinProduct(block, -sign * np.kron([[0.0, 1.0], [1.0, 0.0]], np.diag(f)), block)

    dcore = opset.dilation_core
    return thin_sum(term(um, fm, dcore, cut.j_minus, 1.0), term(up, fp, dcore, cut.j_plus, 1.0),
                    term(uh, fh, opset.conjugate_core, np.ones(n), -1.0))


def singular_values(left: np.ndarray, core: np.ndarray, right: np.ndarray,
                    top: int = 40) -> np.ndarray:
    """Leading singular values of left @ core @ right^dagger, zero-padded to
    min(top, rows, cols) values: a tall factor F = Q R (orthonormal Q) is
    replaced by R, and one SVD of the small core that is left gives them."""
    count = min(top, left.shape[0], right.shape[0])
    rl, rr = (np.linalg.qr(f, mode="r") if f.shape[0] > f.shape[1] else f for f in (left, right))
    sv = np.linalg.svd(rl @ core @ rr.conj().T, compute_uv=False)[:count]
    return np.pad(sv, (0, count - sv.size))


def compactness_report(
    builder: Callable[[float, int], ThinProduct],
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
            op = builder(L, n)
            sv = singular_values(op.left, op.core, op.right, top=top)
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
    dec_H: SpectralDecomposition,
    z: complex,
    smoothing: Optional[SmoothingFunction] = None,
) -> tuple[ThinProduct, str]:
    """B(z) A0 with an energy smoothing realizing the operator closure.

    Returns the factors of the n x 2n operator B(z) A0 S with S = eta~(H0)
    a plateau equal to 1 on the energy range of interest; the raw discrete
    product grows with refinement because A0 is unbounded in the continuum,
    and the smoothing is recorded so the choice is auditable.  Each channel
    contributes i (j R0(z) K U_S - R(z) j K U_S) diag(f) U_S^T.
    """
    if z.imag == 0:
        raise ValueError("short-range operator requires a non-real z")
    pot = opset.potential
    if smoothing is None:
        lo = min(pot.v_minus, pot.v_plus) + 0.05
        hi = max(pot.v_minus, pot.v_plus) + 4.0
        smoothing = plateau(lo, hi, shoulder=1.0)
    cut, n = opset.cutoffs, opset.n
    terms = []
    for v, j, pad in ((pot.v_minus, cut.j_minus, (0, n)), (pot.v_plus, cut.j_plus, (n, 0))):
        u, f = _channel_support(opset, v, smoothing)
        ku = opset.dilation_core @ u
        left = 1j * (j[:, None] * _channel_resolve(opset, v, z, ku)
                     - _resolve(dec_H, z, j[:, None] * ku))
        terms.append(ThinProduct(left, np.diag(f), np.pad(u, (pad, (0, 0)))))
    descr = f"plateau smoothing eta~(H0), kind={smoothing.kind}, center={smoothing.center}, width={smoothing.width}"
    return thin_sum(*terms), descr


def long_range_operator(opset: OperatorSet, dec_H: SpectralDecomposition) -> ThinProduct:
    """Hermitian part of R(i) M R(i), M = J i[H0,A0] J* - i[H,A], the dual-pair
    weighted difference: M is nonzero only on nodes S near the origin, so
    R M R = R[:, S] M_SS R[:, S]^T (H real symmetric)."""
    if opset.potential.v_prime is None:
        raise ValueError("long-range difference needs a differentiable potential")
    jm = Band(opset.cutoffs.j_minus[None, :])
    jp = Band(opset.cutoffs.j_plus[None, :])
    cm, cp = opset.commutator_iH0A0_channel
    mid = Band((jm @ cm @ jm).entries + (jp @ cp @ jp).entries
               - build_commutator_longrange(opset).entries)
    diag, rows = np.nonzero(mid.entries)
    nodes = np.union1d(rows, rows + diag - mid.b)  # S: every row and column of a nonzero
    unit = np.zeros((opset.n, nodes.size))
    unit[nodes, np.arange(nodes.size)] = 1.0
    m = (mid @ unit)[nodes]  # M_SS
    r = _resolve(dec_H, 1j, unit)  # R(i)[:, S]
    return thin_sum(ThinProduct(r, 0.5 * m, r.conj()), ThinProduct(r.conj(), 0.5 * m.T, r))


def c1_probe(
    opset: OperatorSet,
    dec_H: SpectralDecomposition,
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
    r = resolvent(dec_H, z)

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
