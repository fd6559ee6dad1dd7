"""Closed-form fidelity and correlation analytics for the composite noise model.

The general formula evaluates the exact process fidelity of any gate
subset under per-gate depolarizing noise followed by the diagonal
ZZ-coupling unitary, by summing partial-trace norms of the coupling
diagonal over subsets.  Specialized two-gate and three-gate closed forms
and the pairwise-correlation landscape are provided on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .device import CouplingMap, ResourceLimitError

COMPONENT_LIMIT = 16  # gates per coupling component; the sum runs over its subsets


class FidelityDomainError(ValueError):
    """Correlation undefined for non-positive fidelities."""


def correlation(f_joint: float, f_parts) -> float:
    """Normalized deviation of a joint fidelity from the product of parts."""
    parts = list(f_parts)
    for f in [f_joint, *parts]:
        if not 0.0 < f <= 1.0:
            raise FidelityDomainError(f"fidelity {f} outside (0, 1]")
    prod = math.prod(parts)
    return (f_joint - prod) / math.sqrt(f_joint * prod)


def small_coupling_correlation(gamma: float) -> float:
    """Two-gate correlation in the near-unit-depolarizing limit."""
    return math.sin(gamma) * math.tan(gamma)


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
    dims: dict[int, int],
    diag: np.ndarray,
) -> float:
    """Fidelity contribution of one coupling component, restricted to subset."""
    k = len(members)
    pos = {g: k - 1 - i for i, g in enumerate(members)}
    spect = {g: dims[g] // 2 for g in members}  # non-coupled dimension per gate
    d_total = math.prod(dims[g] for g in members)
    d_s = math.prod(dims[g] for g in subset)
    total = 0.0
    sub = list(subset)
    for bits in range(2 ** len(sub)):
        kept = [sub[i] for i in range(len(sub)) if not (bits >> i) & 1]
        traced = [sub[i] for i in range(len(sub)) if (bits >> i) & 1]  # the set L
        d_l = math.prod(dims[g] for g in traced) if traced else 1
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
        spect_l = math.prod(spect[g] for g in traced) if traced else 1
        spect_rest = math.prod(spect[g] for g in members if g not in traced)
        norm2 *= spect_l**2 * spect_rest
        total += coeff * (d_l / (d_total * d_s**2)) * norm2
    return total


def analytic_fidelity(
    subset: tuple[int, ...],
    p: list[float],
    couplings: CouplingMap,
    dims: list[int] | int = 4,
) -> float:
    """Exact process fidelity of a gate subset under depolarizing + coupling.

    ``p`` lists the per-gate depolarizing parameters of all gates in the
    parallel gate; ``subset`` selects by index the part whose restricted
    fidelity is evaluated (environment gates are maximally mixed).
    ``dims`` gives per-gate dimensions (4 for two-qubit gates, 2 for the
    coupled-qubit-only variant).
    """
    g = len(p)
    if isinstance(dims, int):
        dims = [dims] * g
    if len(dims) != g:
        raise ValueError("one dimension entry per gate required")
    if len(subset) > 16:
        raise ResourceLimitError("subset larger than 16 gates")
    if any(not 0 <= i < g for i in subset):
        raise ValueError("subset index out of range")
    pmap = {i: float(p[i]) for i in range(g)}
    dmap = {i: int(dims[i]) for i in range(g)}

    value = 1.0
    for members in couplings.components(range(g)):
        if len(members) > COMPONENT_LIMIT:
            raise ResourceLimitError(f"coupling component of {len(members)} gates is too large")
        sub = tuple(i for i in subset if i in members)
        diag = _coupled_diag(couplings, members)
        value *= _component_fidelity(members, sub, pmap, dmap, diag)
    return value


# ---------------------------------------------------------------------------
# printed closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoGateForms:
    f1: float
    f2: float
    f_both: float
    correlation: float


def closed_form_r2(p1: float, p2: float, gamma12: float, variant: int = 4) -> TwoGateForms:
    """Two-gate closed forms; ``variant`` is the per-gate dimension (2 or 4).

    The variant-2 constants divide the depolarized remainder by 4, the
    variant-4 ones by 16; both share the same correlation numerator
    p1 p2 cos^2 sin^2.
    """
    if variant not in (2, 4):
        raise ValueError("variant must be the per-gate dimension 2 or 4")
    c2 = math.cos(gamma12) ** 2
    q1, q2 = 1.0 - p1, 1.0 - p2
    dd = variant**2
    f1 = p1 * c2 + q1 / dd
    f2 = p2 * c2 + q2 / dd
    f_both = (p1 * p2 + (p1 * q2 + q1 * p2) / dd) * c2 + q1 * q2 / dd**2
    corr = correlation(f_both, [f1, f2])
    return TwoGateForms(f1, f2, f_both, corr)


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


def pairwise_correlation_strong_depol_limit(gamma12: float, gamma13: float, gamma23: float) -> float:
    """Three-gate correlation of gates 1 and 2 in the p -> 1 limit."""
    c12, s12 = math.cos(gamma12) ** 2, math.sin(gamma12) ** 2
    c13, s13 = math.cos(gamma13) ** 2, math.sin(gamma13) ** 2
    c23, s23 = math.cos(gamma23) ** 2, math.sin(gamma23) ** 2
    a1 = c12 * c13 + s12 * s13
    a2 = c12 * c23 + s12 * s23
    cos_l = math.cos(gamma12) * math.cos(gamma13) * math.cos(gamma23)
    sin_l = math.sin(gamma12) * math.sin(gamma13) * math.sin(gamma23)
    b = cos_l**2 + sin_l**2
    num = c12 * s12 * (c13 - s13) * (c23 - s23)
    return num / math.sqrt(b * a1 * a2)


def correlation_landscape(
    gamma12: float,
    grid13: np.ndarray,
    grid23: np.ndarray,
) -> np.ndarray:
    """Correlation of gates 1 and 2 over a (gamma13, gamma23) grid at p = 1.

    Rows index gamma13, columns gamma23.
    """
    if len(grid13) < 2 or len(grid23) < 2:
        raise ValueError("grid resolution must be at least 2")
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
    """Correlations per gate subset, optionally with fluctuation statistics."""

    subsets: list[tuple[int, ...]]
    values: list[float]
    distances: list[int] | None = None
    fluctuation: list[tuple[float, float]] | None = None  # (mean, sd)
    lower_bounds: list[float] | None = None
    metadata: dict = field(default_factory=dict)


class IncompleteReportError(KeyError):
    """A required subset fidelity is missing from the benchmark report."""


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

    Uses the pure (twirl-excluded) subset fidelities; requires every
    singleton and pair subset to be present in the report.
    """
    gates = sorted({g for key in report.subsets for g in key if len(key) == 1})
    pairs = sorted(key for key in report.subsets if len(key) == 2)
    singles = {}
    for g in gates:
        if (g,) not in report.subsets:
            raise IncompleteReportError(f"missing singleton subset ({g},)")
        singles[g] = report.subsets[(g,)].pure.value
    subsets, values, distances = [], [], []
    for a, b in pairs:
        if a not in singles or b not in singles:
            raise IncompleteReportError(f"missing singleton for pair ({a},{b})")
        f_ab = report.subsets[(a, b)].pure.value
        subsets.append((a, b))
        values.append(correlation(f_ab, [singles[a], singles[b]]))
        distances.append(_gate_distance(device, a, b))
    return CorrelationReport(
        subsets=subsets,
        values=values,
        distances=distances,
        metadata={"fidelity_kind": "pure"},
    )


def correlation_fluctuation(
    device,
    block,
    config,
    pairs: list[tuple[int, int]],
    repeat: int,
) -> CorrelationReport:
    """Mean, SD and 3-sigma lower bounds of pair correlations over reruns.

    Runs the full benchmarking experiment ``repeat`` times with distinct
    seeds; the lower bound per pair is max(|mean| - 3*SD, 0).
    """
    if repeat < 2:
        raise ValueError("repeat must be >= 2")
    from .cab import run_cab_experiment

    needed = sorted({(g,) for pair in pairs for g in pair} | {tuple(sorted(p)) for p in pairs})
    per_pair: dict[tuple[int, int], list[float]] = {tuple(sorted(p)): [] for p in pairs}
    for r in range(repeat):
        cfg = config.replace(seed=config.seed + r, subsets=tuple(needed))
        rep = run_cab_experiment(device, block, cfg)
        for pair in per_pair:
            a, b = pair
            c = correlation(
                rep.subsets[pair].pure.value,
                [rep.subsets[(a,)].pure.value, rep.subsets[(b,)].pure.value],
            )
            per_pair[pair].append(c)
    subsets = sorted(per_pair)
    means = [float(np.mean(per_pair[s])) for s in subsets]
    sds = [float(np.std(per_pair[s], ddof=1)) for s in subsets]
    lower = [max(abs(m) - 3 * sd, 0.0) for m, sd in zip(means, sds)]
    return CorrelationReport(
        subsets=[tuple(s) for s in subsets],
        values=means,
        fluctuation=list(zip(means, sds)),
        lower_bounds=lower,
        metadata={"repeat": repeat, "fidelity_kind": "pure"},
    )
