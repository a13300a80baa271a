"""Numerical surrogates for the compactness and regularity hypotheses.

Compactness of a fixed operator family is probed by tracking its leading
singular values across grid refinements: a compact operator keeps a
stable head and a fast-decaying tail, whereas the identity stays flat at
every level.  The verdict thresholds (DRIFT_TOL, TAIL_TOL, FLAT_TAIL)
separate those two control cases by orders of magnitude.

Every surrogate is a `ThinProduct`, read by `spectral.singular_values`,
and the identity control is sigma_k = 1 in closed form.  (ii)-(iv) are
thin because eta has compact support: they read the eigenpairs of H where
eta is nonzero (`eigendecompose(H, EnergyWindow(center, width))`, which
the ladder takes only for a ladder with one of these tags, and refuses an
eta that is nonzero at either end of that window) and the channel pairs
there in closed form (`dirichlet_decomposition`).  The short- and long-range
differences are thin because their middles are local: by the two-space
resolvent identity J R0(z) - R(z) J = R(z)(HJ - JH0) R0(z), each passes
through the few nodes S where a band middle M is nonzero, with the factor
R(z)[:, S] from |S| tridiagonal solves (`spectral.resolvent`).  So the factor
widths, which bound their ranks, grow like 1/dx and not with L.
No full basis of H or of a channel is built.  The C1 probe applies R(z) by
the same solves and takes its identity defect from `spectral.opnorm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .operators import Band, OperatorSet, build_commutator_longrange
from .spectral import (
    TOP,
    EnergyWindow,
    SmoothingFunction,
    SpectralDecomposition,
    ThinProduct,
    dirichlet_decomposition,
    eigendecompose,
    opnorm,
    plateau,
    propagate,
    resolvent,
    sandwich,
    singular_values,
    support,
    thin_sum,
)

__all__ = [
    "OPERATOR_TAGS",
    "CompactnessReport",
    "C1Report",
    "assumption_operator",
    "check_operator_tags",
    "compactness_ladder",
    "compactness_report",
    "short_range_operator",
    "long_range_operator",
    "c1_probe",
]

# The surrogates of a compactness ladder: assumptions (ii)-(iv), the short-
# and long-range differences, and the identity as the non-compact control.
OPERATOR_TAGS = ("ii", "iii", "iv", "short", "long", "identity")
# Verdict thresholds of `compactness_report` (its docstring says how they are read).
DRIFT_TOL = 0.10
TAIL_TOL = 1e-2
FLAT_TAIL = 0.5
LADDER_Z = 1j  # spectral parameter of the short-range surrogate in a ladder
C1_STEPS = (1e-2, 1e-3, 1e-4, 1e-5)  # the times t of the difference quotients of `c1_probe`


@dataclass(frozen=True)
class CompactnessReport:
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


def assumption_operator(
    opset: OperatorSet,
    dec_H: SpectralDecomposition,
    which: str,
    eta: SmoothingFunction,
) -> ThinProduct:
    """Factors of assumption (ii), (iii) or (iv), with eta(.) = U_S diag(f) U_S^T per space.

    dec_H needs only the eigenpairs of H where eta is nonzero.

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


def compactness_report(svs: Sequence[np.ndarray],
                       levels: Sequence[tuple[float, int]]) -> CompactnessReport:
    """Classify an operator family as compact-consistent / non-compact from
    svs, its top singular values at each of the levels.

    compact-consistent: sigma_1..10 drift < DRIFT_TOL across levels and
    sigma_20/sigma_1 < TAIL_TOL at the finest level; non-compact:
    sigma_20/sigma_1 > FLAT_TAIL at every level; otherwise inconclusive.
    A level with fewer than 20 values has no sigma_20 and is a ValueError.
    """
    if len(levels) < 2:
        raise ValueError("need at least two refinement levels")
    if len(svs) != len(levels):
        raise ValueError(f"{len(svs)} spectra for {len(levels)} levels")
    for sv, (L, n) in zip(svs, levels):
        if sv.size < 20:
            raise ValueError(f"level (L={L}, n={n}) has {sv.size} singular values; "
                             f"the tail ratio needs sigma_20")
    tails = [float(sv[19] / (sv[0] if sv[0] > 0 else 1.0)) for sv in svs]

    head = np.array([sv[:10] for sv in svs])
    ref = head[-1]
    # drift is measured relative to the operator norm, not entrywise:
    # entries far below sigma_1 are solver noise and carry no signal
    sigma1 = ref[0] if ref[0] > 0 else 1.0
    stability = float(np.max(np.abs(head - ref[None, :])) / sigma1)

    if stability < DRIFT_TOL and tails[-1] < TAIL_TOL:
        verdict = "compact-consistent"
    elif all(t > FLAT_TAIL for t in tails):
        verdict = "non-compact"
    else:
        verdict = "inconclusive"
    return CompactnessReport(
        refinement_levels=[(float(L), int(n)) for (L, n) in levels],
        singular_values=list(svs),
        tail_ratio=tails,
        stability=stability,
        verdict=verdict,
        thresholds={"drift_tol": DRIFT_TOL, "tail_tol": TAIL_TOL, "flat_tail": FLAT_TAIL},
    )


def _resolvent_columns(op: Band, z: complex, nodes: np.ndarray) -> np.ndarray:
    """R(z)[:, S] = (op - z)^{-1} at the columns S = nodes, by |S| tridiagonal solves."""
    unit = np.zeros((op.n, nodes.size))
    unit[nodes, np.arange(nodes.size)] = 1.0
    return resolvent(op, z, unit)


def short_range_operator(opset: OperatorSet, z: complex) -> ThinProduct:
    """B(z) A0 with an energy smoothing realizing the operator closure.

    Returns the factors of the n x 2n operator B(z) A0 P with P = eta~(H0)
    a plateau equal to 1 on the energy range of interest (from min V + 0.05
    to max V + 4, shoulder 1); the raw discrete product grows with
    refinement because A0 = iK is unbounded in the continuum.  By the
    two-space resolvent identity j R0(z) - R(z) j = R(z) M R0(z), with the
    band M = H j - j H0 nonzero only on the rows S near the step, a channel
    contributes i R(z)[:, S] M[S, :] R0(z) K P, whose right factor is
    -P K R0(conj z) M[S, :]^T (R0(z) is complex symmetric, K real
    antisymmetric, P = U diag(f) U^T on the closed-form plateau pairs).
    So the factor width |S-| + |S+| bounds the rank.
    """
    if z.imag == 0:
        raise ValueError("short-range operator requires a non-real z")
    pot = opset.potential
    smoothing = plateau(min(pot.v_minus, pot.v_plus) + 0.05, max(pot.v_minus, pot.v_plus) + 4.0,
                        shoulder=1.0)
    cut, n = opset.cutoffs, opset.n
    terms = []
    for side, v, j, pad in (("-", pot.v_minus, cut.j_minus, (0, n)),
                            ("+", pot.v_plus, cut.j_plus, (n, 0))):
        jb, h0 = Band(j[None, :]), opset.channel_hamiltonian(side)
        m = Band((opset.H @ jb).entries - (jb @ h0).entries)  # H j - j H0
        rows = np.flatnonzero(m.entries.any(axis=0))  # S: the rows where M != 0
        y = opset.dilation_core @ resolvent(h0, np.conj(z), m.rows(rows).T)
        u, f = _channel_support(opset, v, smoothing)
        right = -u @ (f[:, None] * (u.T @ y))
        terms.append(ThinProduct(1j * _resolvent_columns(opset.H, z, rows), np.eye(rows.size),
                                 np.pad(right, (pad, (0, 0)))))
    return thin_sum(*terms)


def long_range_operator(opset: OperatorSet) -> ThinProduct:
    """Hermitian part of R(i) M R(i), M = J i[H0,A0] J* - i[H,A], the dual-pair
    weighted difference: M is nonzero only on nodes S near the origin, so
    R M R = R[:, S] M_SS R[:, S]^T (H real symmetric)."""
    if opset.potential.v_prime is None:
        raise ValueError("long-range difference needs a differentiable potential")
    jm = Band(opset.cutoffs.j_minus[None, :])
    jp = Band(opset.cutoffs.j_plus[None, :])
    c0 = opset.commutator_iH0A0
    mid = Band((jm @ c0 @ jm).entries + (jp @ c0 @ jp).entries
               - build_commutator_longrange(opset).entries)
    diag, rows = np.nonzero(mid.entries)
    # S: every row and column of a nonzero (a mask, as np.union1d would import numpy.ma)
    on_s = np.zeros(opset.n, dtype=bool)
    on_s[rows] = on_s[rows + diag - mid.b] = True
    nodes = np.flatnonzero(on_s)
    m = mid.rows(nodes)[:, nodes]  # M_SS
    r = _resolvent_columns(opset.H, 1j, nodes)
    return thin_sum(ThinProduct(r, 0.5 * m, r.conj()), ThinProduct(r.conj(), 0.5 * m.T, r))


def check_operator_tags(tags: Sequence[str]) -> None:
    """Raise ValueError naming any tag not in OPERATOR_TAGS or given twice."""
    unknown = [tag for tag in tags if tag not in OPERATOR_TAGS]
    if unknown:
        raise ValueError(f"unknown operator tag(s) {unknown}; expected some of "
                         f"{list(OPERATOR_TAGS)}")
    repeated = sorted({tag for tag in tags if tags.count(tag) > 1})
    if repeated:
        raise ValueError(f"repeated operator tag(s) {repeated}")


def compactness_ladder(
    build: Callable[[float, int], OperatorSet],
    levels: Sequence[tuple[float, int]],
    eta: SmoothingFunction,
    tags: Sequence[str],
) -> dict:
    """{tag: CompactnessReport} for each surrogate tag of OPERATOR_TAGS over
    the levels, with build(L, n) the OperatorSet of a level.

    One pass over the levels: each is built once, with the pairs of H where
    eta is nonzero only when (ii)-(iv) read them, every tag's top
    singular values are taken there (the short-range surrogate at LADDER_Z),
    and the level is released before the next is built.  The identity
    control is sigma_k = 1, k <= min(TOP, n), in closed form, so an
    identity-only ladder builds nothing.  With (ii)-(iv) among the tags, an
    eta that is nonzero at either end of EnergyWindow(center, width) is a
    ValueError, since those pairs of H would cut it off.
    """
    check_operator_tags(tags)
    window = EnergyWindow(eta.center, eta.width)  # exactly where eta is nonzero
    ends = eta(np.array([eta.center - eta.width, eta.center + eta.width]))
    if {"ii", "iii", "iv"} & set(tags) and np.any(ends != 0):
        raise ValueError(f"eta is nonzero at an end of its window (center {eta.center}, "
                         f"width {eta.width}); (ii)-(iv) would cut it off there")
    svs = {tag: [] for tag in tags}
    if "identity" in svs:
        svs["identity"] = [np.ones(min(TOP, n)) for _, n in levels]
    built = [tag for tag in tags if tag != "identity"]
    for L, n in (levels if built else ()):
        try:
            opset = build(L, n)
            dec_H = eigendecompose(opset.H, window) if {"ii", "iii", "iv"} & set(built) else None
            for tag in built:
                op = (short_range_operator(opset, LADDER_Z) if tag == "short" else
                      long_range_operator(opset) if tag == "long" else
                      assumption_operator(opset, dec_H, tag, eta))
                svs[tag].append(singular_values(op.left, op.core, op.right))
        except Exception as exc:
            raise RuntimeError(f"builder failed at level (L={L}, n={n}): {exc}") from exc
        del opset, dec_H, op  # release this level before the next is built
    return {tag: compactness_report(svs[tag], levels) for tag in tags}


def c1_probe(opset: OperatorSet, z: complex, test_states: np.ndarray) -> C1Report:
    """Strong-derivative probe of t -> e^{-itA} R(z) e^{itA} on the test states.

    The difference quotients Q(t) psi, t in C1_STEPS, must be Cauchy in t
    and converge to the closed-form commutator i[R(z), A]; the latter is
    also compared against -R(z) i[H,A] R(z).  Only the states are moved, never an n x n
    operator: with A = iK' and D = diag((-i)^j), D* A D = T is real
    symmetric tridiagonal, so e^{itA} psi = D e^{itT} D* psi, and one
    `propagate` block carries every (step, state) column forward and one
    carries it back.  R(z) is a tridiagonal solve (`resolvent`), and
    i[R, A] psi = K'R psi - R K' psi.  The identity defect is the norm of
    E_z = i[R(z), A] + R(z) i[H,A] R(z), by power iteration on E_z and its
    adjoint E_{conj z}.
    """
    states = np.atleast_2d(np.asarray(test_states, dtype=complex))
    if states.shape[1] != opset.n:
        raise ValueError("test states must be rows of length n")
    norms = np.linalg.norm(states, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        raise ValueError("test states must be normalized")
    n, count, h, kcore = opset.n, len(C1_STEPS), opset.H, opset.conjugate_core
    dec_T = eigendecompose(Band(kcore.entries * np.array([[-1.0], [0.0], [1.0]])))
    d = np.array([1, -1j, -1, 1j])[np.arange(n) % 4][:, None]  # (-i)^j, exactly
    psi = states.T
    times = np.repeat(np.asarray(C1_STEPS, dtype=float), len(states))
    forward = d * propagate(dec_T, np.tile(d.conj() * psi, count), -times)  # e^{itA} psi
    back = d * propagate(dec_T, d.conj() * resolvent(h, z, forward), times)
    r_psi = resolvent(h, z, psi)
    q = ((back - np.tile(r_psi, count)) / times).reshape(n, count, -1)  # Q(t) psi
    qnorms = [float(x) for x in np.linalg.norm(q, axis=0).max(axis=1)]
    cauchy = [float(x) for x in np.linalg.norm(np.diff(q, axis=1), axis=0).max(axis=1)]

    comm_closed = kcore @ r_psi - resolvent(h, z, kcore @ psi)
    limit_mismatch = float(np.linalg.norm(q[:, -1] - comm_closed, axis=0).max()
                           / np.linalg.norm(comm_closed, axis=0).max())

    def defect(w):
        def apply(x):  # E_w x = K'y - R(w)(K'x - i[H,A] y), y = R(w) x
            y = resolvent(h, w, x)
            return kcore @ y - resolvent(h, w, kcore @ x - opset.commutator_iHA @ y)
        return apply

    ident_defect = opnorm(defect(z), defect(np.conj(z)), n)
    decreasing = all(cauchy[k + 1] < cauchy[k] / 3 for k in range(len(cauchy) - 1))
    verdict = decreasing and limit_mismatch < 1e-3
    return C1Report(
        z=z,
        steps=list(C1_STEPS),
        difference_quotient_norms=qnorms,
        cauchy_defects=cauchy,
        limit_mismatch=limit_mismatch,
        resolvent_identity_defect=ident_defect,
        verdict=bool(verdict),
    )
