"""Closed-form fidelity and correlation analytics for the composite noise model.

The general formula evaluates the exact process fidelity of any gate
subset under per-gate depolarizing noise followed by the diagonal
ZZ-coupling unitary, by summing partial-trace norms of the coupling
diagonal over subsets.  The printed three-gate closed form and the
pairwise-correlation landscape are provided on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cab import ConfigError, jackknife
from .device import CouplingMap, ResourceLimitError

COMPONENT_LIMIT = 16  # gates per coupling component; the sum runs over its subsets


class FidelityDomainError(ValueError):
    """Correlation undefined for non-positive fidelities."""


def correlation(f_joint: float, f_parts) -> float:
    """Normalized deviation of a joint fidelity from the product of parts.

    Every fidelity must be positive, as the square root needs; an estimate
    above 1, which sampling noise alone can give, is taken as it is."""
    parts = list(f_parts)
    for f in [f_joint, *parts]:
        if not f > 0.0:
            raise FidelityDomainError(f"fidelity {f} is not positive")
    return float(_correlation(f_joint, *parts))


def _correlation(f_joint, *parts):
    """``correlation``'s arithmetic, elementwise on arrays, with no check."""
    prod = math.prod(parts)
    return (f_joint - prod) / np.sqrt(f_joint * prod)


# ---------------------------------------------------------------------------
# general fidelity formula
# ---------------------------------------------------------------------------


def _coupled_diag(couplings: CouplingMap, members: tuple[int, ...]) -> np.ndarray:
    """Diagonal of the coupling unitary over the member gates' coupled qubits."""
    k = len(members)
    idx = np.arange(2**k)
    phase = np.zeros(2**k)
    pos = {g: k - 1 - i for i, g in enumerate(members)}
    for a_i, a in enumerate(members):
        for b in members[a_i + 1 :]:
            gamma = couplings.get(a, b)
            if gamma == 0.0:
                continue
            za = 1.0 - 2.0 * ((idx >> pos[a]) & 1)
            zb = 1.0 - 2.0 * ((idx >> pos[b]) & 1)
            phase = phase - gamma * za * zb
    return np.exp(1j * phase)


def _component_fidelity(
    members: tuple[int, ...],
    subset: tuple[int, ...],
    p: dict[int, float],
    dim: int,
    diag: np.ndarray,
) -> float:
    """Fidelity contribution of one coupling component, restricted to subset."""
    k = len(members)
    pos = {g: k - 1 - i for i, g in enumerate(members)}
    spect = dim // 2  # non-coupled dimension per gate
    d_total = dim**k
    d_s = dim ** len(subset)
    total = 0.0
    sub = list(subset)
    for bits in range(2 ** len(sub)):
        kept = [sub[i] for i in range(len(sub)) if not (bits >> i) & 1]
        traced = [sub[i] for i in range(len(sub)) if (bits >> i) & 1]  # the set L
        d_l = dim ** len(traced)
        coeff = math.prod(p[g] for g in traced) * math.prod(1.0 - p[g] for g in kept)
        if coeff == 0.0:
            continue
        # trace the coupled qubits of L out of the diagonal
        t = diag.reshape([2] * k)
        axes = sorted((k - 1 - pos[g] for g in traced), reverse=True)
        for ax in axes:
            t = t.sum(axis=ax)
        norm2 = float(np.sum(np.abs(t) ** 2))
        # spectator multiplicities: traced gates enter the trace squared,
        # untouched gates contribute their spectator dimension once
        norm2 *= spect ** (k + len(traced))
        total += coeff * (d_l / (d_total * d_s**2)) * norm2
    return total


def analytic_fidelity(
    subset: tuple[int, ...],
    p: list[float],
    couplings: CouplingMap,
    dims: int = 4,
) -> float:
    """Exact process fidelity of a gate subset under depolarizing + coupling.

    ``p`` lists the per-gate depolarizing parameters of all gates in the
    parallel gate; ``subset`` selects by index the part whose restricted
    fidelity is evaluated (environment gates are maximally mixed).
    ``dims`` is the dimension of every gate (4 for two-qubit gates, 2 for
    the coupled-qubit-only variant).
    """
    g = len(p)
    if any(not 0 <= i < g for i in subset):
        raise ValueError("subset index out of range")
    pmap = {i: float(p[i]) for i in range(g)}

    value = 1.0
    for members in couplings.components(range(g)):
        if len(members) > COMPONENT_LIMIT:
            raise ResourceLimitError(f"coupling component of {len(members)} gates is too large")
        sub = tuple(i for i in subset if i in members)
        diag = _coupled_diag(couplings, members)
        value *= _component_fidelity(members, sub, pmap, dims, diag)
    return value


# ---------------------------------------------------------------------------
# printed closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreeGateForms:
    f1: float
    f2: float
    f3: float
    f12: float
    f13: float
    f23: float
    f_all: float
    corr12: float
    corr13: float
    corr23: float


def closed_form_r3(
    p1: float, p2: float, p3: float, gamma12: float, gamma13: float, gamma23: float
) -> ThreeGateForms:
    """Three-gate closed forms for two-qubit gates (dimension 4 per gate)."""
    c12, s12 = math.cos(gamma12) ** 2, math.sin(gamma12) ** 2
    c13, s13 = math.cos(gamma13) ** 2, math.sin(gamma13) ** 2
    c23, s23 = math.cos(gamma23) ** 2, math.sin(gamma23) ** 2
    a1 = c12 * c13 + s12 * s13
    a2 = c12 * c23 + s12 * s23
    a3 = c13 * c23 + s13 * s23
    cos_l = math.cos(gamma12) * math.cos(gamma13) * math.cos(gamma23)
    sin_l = math.sin(gamma12) * math.sin(gamma13) * math.sin(gamma23)
    b = cos_l**2 + sin_l**2
    q1, q2, q3 = 1.0 - p1, 1.0 - p2, 1.0 - p3
    f1 = p1 * a1 + q1 / 16
    f2 = p2 * a2 + q2 / 16
    f3 = p3 * a3 + q3 / 16
    f12 = p1 * p2 * b + p1 * q2 / 16 * a1 + q1 * p2 / 16 * a2 + q1 * q2 / 256
    f13 = p1 * p3 * b + p1 * q3 / 16 * a1 + q1 * p3 / 16 * a3 + q1 * q3 / 256
    f23 = p2 * p3 * b + p2 * q3 / 16 * a2 + q2 * p3 / 16 * a3 + q2 * q3 / 256
    f_all = (
        (p1 * p2 * p3 + (p1 * p2 * q3 + p1 * p3 * q2 + p2 * p3 * q1) / 16) * b
        + p1 * q2 * q3 / 256 * a1
        + p2 * q1 * q3 / 256 * a2
        + p3 * q1 * q2 / 256 * a3
        + q1 * q2 * q3 / 4096
    )
    return ThreeGateForms(
        f1,
        f2,
        f3,
        f12,
        f13,
        f23,
        f_all,
        correlation(f12, [f1, f2]),
        correlation(f13, [f1, f3]),
        correlation(f23, [f2, f3]),
    )


def correlation_landscape(
    gamma12: float,
    grid13: np.ndarray,
    grid23: np.ndarray,
) -> np.ndarray:
    """Correlation of gates 1 and 2 over a (gamma13, gamma23) grid at p = 1.

    Rows index gamma13, columns gamma23.
    """
    if len(grid13) < 2 or len(grid23) < 2:
        raise ConfigError(f"grid resolution must be at least 2, got {min(len(grid13), len(grid23))}")
    out = np.empty((len(grid13), len(grid23)))
    for i, g13 in enumerate(grid13):
        for j, g23 in enumerate(grid23):
            forms = closed_form_r3(1.0, 1.0, 1.0, gamma12, float(g13), float(g23))
            out[i, j] = forms.corr12
    return out


LANDSCAPE_GAMMA12_VALUES = (
    0.0,
    math.pi / 32,
    math.pi / 16,
    3 * math.pi / 32,
    math.pi / 8,
    5 * math.pi / 32,
)


# ---------------------------------------------------------------------------
# correlation reports from benchmark data
# ---------------------------------------------------------------------------


@dataclass
class CorrelationReport:
    """Correlations per gate subset from one run, each with its jackknife SE
    and its lower bound max(|value| - 3 SE, 0)."""

    subsets: list[tuple[int, ...]]
    values: list[float]
    ses: list[float]
    lower_bounds: list[float]
    distances: list[int]


def _gate_distance(device, a: int, b: int) -> int:
    """Minimal edge count between the two gates' qubit sets."""
    edges: set[tuple[int, int]] = set()
    for g in device.gates:
        edges.add(tuple(sorted(g.pair)))
    for e in device.layout_edges:
        edges.add(tuple(sorted(e)))
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    targets = set(device.gates[b].pair)
    frontier = set(device.gates[a].pair)
    seen = set(frontier)
    dist = 0
    while frontier:
        if frontier & targets:
            return dist
        nxt = set()
        for u in frontier:
            nxt |= adj.get(u, set())
        frontier = nxt - seen
        seen |= frontier
        dist += 1
    return -1


def correlation_matrix(report, device) -> CorrelationReport:
    """Pairwise correlations among gates from a benchmark report.

    Uses the pure (twirl-excluded) subset fidelities; requires the
    singleton subsets of every pair in the report (a KeyError otherwise).
    Each SE is the ``jackknife`` of the subsets' replicates: replicate k of
    every subset leaves out the same sequence k.
    """
    pures = {key: res.pure for key, res in report.subsets.items()}
    pairs = sorted(key for key in pures if len(key) == 2)
    values, ses = [], []
    for pair in pairs:
        ests = [pures[pair], *(pures[(g,)] for g in pair)]
        values.append(correlation(ests[0].value, [e.value for e in ests[1:]]))
        ses.append(jackknife(_correlation, *ests)[1])
    return CorrelationReport(
        subsets=pairs,
        values=values,
        ses=ses,
        lower_bounds=[max(abs(v) - 3 * se, 0.0) for v, se in zip(values, ses)],
        distances=[_gate_distance(device, a, b) for a, b in pairs],
    )


def correlation_stats(fidelities, combos) -> tuple[list[float], list[float]]:
    """Mean and SD over runs of the correlation of each subset in ``combos``.

    ``fidelities`` holds one mapping per run, of each subset S and each
    singleton (g,) to a fidelity.  Each subset's values over the runs are one
    contiguous row, so its mean and SD (ddof 1) are those of the values on
    their own to the bit; one run gives SD 0.  A non-positive fidelity in any
    run raises ``FidelityDomainError``.
    """
    values = [[correlation(f[s], [f[(g,)] for g in s]) for s in combos] for f in fidelities]
    rows = np.ascontiguousarray(np.array(values).T)
    sds = rows.std(axis=1, ddof=1) if len(fidelities) > 1 else np.zeros(len(rows))
    return rows.mean(axis=1).tolist(), sds.tolist()
