"""Virtual noisy device: gate set, depolarizing rates, ZZ coupling, readout.

The composite noise model per parallel two-qubit gate layer is: a
depolarizing channel on each executed gate pair, followed by a coherent
diagonal unitary collecting the residual ZZ coupling between gates
executed in that layer together with each gate's control-phase errors,
followed by the ideal CZ gates.  Single-qubit layers carry an optional
per-qubit depolarizing channel; measurement applies independent per-qubit
bit-flip confusion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

CLUSTER_LIMIT = 8  # gates per coupling cluster whose diagonal is built densely


class ResourceLimitError(RuntimeError):
    """A cluster or subsystem exceeds the configured exact-computation size."""


class ContractViolation(ValueError):
    """An input breaks a documented precondition."""


@dataclass(frozen=True)
class ControlPhases:
    """CZ control errors: conditional-phase offset and two dynamic phases."""

    cond_phase: float = 0.0
    dyn_i: float = 0.0
    dyn_j: float = 0.0

    def is_trivial(self) -> bool:
        return self.cond_phase == 0.0 and self.dyn_i == 0.0 and self.dyn_j == 0.0

    def shifted(self, d_cond: float, d_dyn_i: float, d_dyn_j: float) -> "ControlPhases":
        return ControlPhases(self.cond_phase + d_cond, self.dyn_i + d_dyn_i, self.dyn_j + d_dyn_j)


@dataclass(frozen=True)
class GateSpec:
    """One two-qubit CZ gate of the device.

    ``coupling_comp`` is the gate's coupler-compensation setting: it is
    subtracted from every nonzero coupling this gate participates in, so
    the effective strength between gates k and l is
    gamma_kl - comp_k - comp_l.  Driving the compensation costs gate
    coherence: the effective depolarizing parameter shrinks by
    comp_cost * coupling_comp**2.  Because one gate's compensation also
    benefits its partners' fidelities while the coherence cost stays
    local, purely per-gate tuning systematically under-compensates.
    """

    pair: tuple[int, int]
    depol_p: float = 1.0
    coupled_qubit: int | None = None
    control: ControlPhases = field(default_factory=ControlPhases)
    coupling_comp: float = 0.0
    comp_cost: float = 0.0

    def __post_init__(self):
        if self.coupled_qubit is None:
            object.__setattr__(self, "coupled_qubit", self.pair[0])
        if self.coupled_qubit not in self.pair:
            raise ValueError("coupled_qubit must be one of the gate's pair")
        if not 0.0 <= self.depol_p <= 1.0:
            raise ValueError("depol_p must be in [0, 1]")
        if self.comp_cost < 0.0:
            raise ValueError("comp_cost must be nonnegative")

    def effective_depol_p(self) -> float:
        """Depolarizing parameter including the compensation-drive cost."""
        return float(min(max(self.depol_p - self.comp_cost * self.coupling_comp**2, 0.0), 1.0))


class CouplingMap:
    """Symmetric sparse map (gate index, gate index) -> coupling phase."""

    def __init__(self, entries: dict[tuple[int, int], float] | None = None):
        self._g: dict[tuple[int, int], float] = {}
        for (a, b), gamma in (entries or {}).items():
            self.set(a, b, gamma)

    def set(self, a: int, b: int, gamma: float):
        if a == b:
            raise ValueError("no self-coupling entries")
        if not np.isfinite(gamma):
            raise ValueError("coupling strength must be finite")
        self._g[(min(a, b), max(a, b))] = float(gamma)

    def get(self, a: int, b: int) -> float:
        return self._g.get((min(a, b), max(a, b)), 0.0)

    def items(self):
        return sorted(self._g.items())

    def components(self, gate_indices) -> list[tuple[int, ...]]:
        """Connected components of the coupling graph among the given gates,
        in order of their smallest member, each listed in ascending order."""
        remaining = set(gate_indices)
        comps = []
        while remaining:
            seed = min(remaining)
            comp = {seed}
            frontier = [seed]
            while frontier:
                a = frontier.pop()
                for b in list(remaining - comp):
                    if self.get(a, b) != 0.0:
                        comp.add(b)
                        frontier.append(b)
            comps.append(tuple(sorted(comp)))
            remaining -= comp
        return comps

    def __eq__(self, other):
        return isinstance(other, CouplingMap) and self._g == other._g


@dataclass(frozen=True)
class DiagonalUnitary:
    """Diagonal unitary over an ordered tuple of qubits (first = MSB)."""

    qubits: tuple[int, ...]
    diag: np.ndarray

    def __post_init__(self):
        if self.diag.shape != (2 ** len(self.qubits),):
            raise ValueError("diagonal length must be 2**len(qubits)")


@dataclass(frozen=True)
class PauliChannel:
    """Z-type Pauli channel from twirling a diagonal unitary.

    ``weights[w]`` is the probability of the Pauli with a Z on exactly the
    support qubits flagged by the bits of ``w`` (support[0] = MSB).
    """

    support: tuple[int, ...]
    weights: np.ndarray

    def __post_init__(self):
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ContractViolation("channel weights must sum to 1")
        if np.any(self.weights < -1e-15):
            raise ContractViolation("channel weights must be nonnegative")


def fwht(v: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis (in a copy).

    Leading axes are a batch.  Stage h pairs entries i and i + h within
    every block of 2h, as the textbook butterfly does, so each output is
    the same sequence of additions for any batch shape.  A real input gives
    a float result, equal to the real part of the complex transform.
    """
    v = np.asarray(v)
    v = v.astype(complex if np.iscomplexobj(v) else float)
    shape = v.shape
    d = shape[-1]
    out = np.empty_like(v)
    h = 1
    while h < d:
        src = v.reshape(*shape[:-1], d // (2 * h), 2, h)
        dst = out.reshape(src.shape)
        np.add(src[..., 0, :], src[..., 1, :], out=dst[..., 0, :])
        np.subtract(src[..., 0, :], src[..., 1, :], out=dst[..., 1, :])
        v, out = out, v
        h *= 2
    return v


def build_coupling_unitary(
    gates: list[GateSpec],
    couplings: CouplingMap,
    cluster: tuple[int, ...],
) -> DiagonalUnitary:
    """Diagonal of exp(-i sum gamma_kl Z_{i_k} Z_{i_l}) over a gate cluster."""
    if len(cluster) > CLUSTER_LIMIT:
        raise ResourceLimitError(
            f"coupling cluster of {len(cluster)} gates exceeds the limit of {CLUSTER_LIMIT}"
        )
    qubits = tuple(sorted({q for g in cluster for q in gates[g].pair}))
    k = len(qubits)
    pos = {q: k - 1 - i for i, q in enumerate(qubits)}  # bit position of qubit
    dim = 2**k
    idx = np.arange(dim)
    phase = np.zeros(dim)
    for a_i, k_idx in enumerate(cluster):
        for l_idx in cluster[a_i + 1 :]:
            gamma = couplings.get(k_idx, l_idx)
            if gamma == 0.0:
                continue
            gamma = gamma - gates[k_idx].coupling_comp - gates[l_idx].coupling_comp
            if gamma == 0.0:
                continue
            za = 1.0 - 2.0 * ((idx >> pos[gates[k_idx].coupled_qubit]) & 1)
            zb = 1.0 - 2.0 * ((idx >> pos[gates[l_idx].coupled_qubit]) & 1)
            phase = phase - gamma * za * zb
    return DiagonalUnitary(qubits, np.exp(1j * phase))


def pauli_twirl_diagonal(v: DiagonalUnitary) -> PauliChannel:
    """Exact Pauli twirl of a diagonal unitary: a Z-type Pauli channel.

    The weight of Z_w is |2^-k tr(Z_w V)|^2, evaluated for all w at once
    with a Walsh-Hadamard transform of the diagonal.
    """
    if np.any(np.abs(np.abs(v.diag) - 1.0) > 1e-10):
        raise ContractViolation("twirl input must have unit-modulus diagonal entries")
    k = len(v.qubits)
    traces = fwht(v.diag) / (2**k)
    weights = np.abs(traces) ** 2
    weights = weights / weights.sum()
    return PauliChannel(v.qubits, weights)


def bernoulli_positions(rng: np.random.Generator, n_trials: int, p: float) -> np.ndarray:
    """Sorted indices of the successes among ``n_trials`` independent
    Bernoulli(p) trials.

    The gaps between successes are geometric, so the draw costs O(n_trials p)
    instead of O(n_trials).  Gaps are drawn in chunks sized to cover the
    expected count with a margin; a short chunk is followed by another.
    """
    if p <= 0.0 or n_trials == 0:
        return np.zeros(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n_trials, dtype=np.int64)
    mean = n_trials * p
    chunk = int(mean + 5.0 * np.sqrt(mean)) + 16
    parts, last = [], -1
    while last < n_trials:
        pos = rng.geometric(p, size=chunk)
        np.cumsum(pos, out=pos)  # in place, as apply_readout_noise's steps are
        pos += last
        parts.append(pos)
        last = int(pos[-1])
    pos = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return pos[: np.searchsorted(pos, n_trials)]


def xor_sorted(out: np.ndarray, idx: np.ndarray, vals: np.ndarray):
    """``out[idx] ^= vals`` in place for a sorted ``idx`` with repeats.

    Each run of equal indices is XORed together first, so that every index
    is written once.  A run's XOR is the prefix XOR at its last value XOR
    the prefix XOR at the previous run's last value: one ``accumulate``
    pass.  ``reduceat`` would pay an overhead per run, and most runs of
    fault or readout flips hold one or two values.
    """
    if len(idx):
        last = np.flatnonzero(np.append(idx[1:] != idx[:-1], True))
        run = np.bitwise_xor.accumulate(vals)[last]
        run[1:] ^= run[:-1]  # overlapping operands are read as if copied first
        out[idx[last]] ^= run


def apply_readout_noise(
    codes: np.ndarray, n: int, e0: np.ndarray, e1: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Flip measured bits of int64 outcome codes independently: 0->1 with
    e0, 1->0 with e1.  Qubit q is bit n-1-q of a code (qubit 0 the most
    significant, as ``pack_bits`` writes it); returns new codes.

    Flips are drawn by thinning, one group per distinct rate
    r = max(e0, e1) per qubit: candidates at rate r, as geometric gaps over
    the (shot, qubit) pairs of the group's qubits, then one uniform u per
    candidate, kept when u r < e_bit.  e_bit is read from the (2, n) table
    [e0; e1] at the candidate's bit as the codes held it before the group's
    flips.  The candidates come in shot order, so a group's kept flips are
    XORed in with ``xor_sorted``.
    """
    out = np.array(codes, dtype=np.int64)
    e0 = np.broadcast_to(np.asarray(e0, dtype=float), (n,))
    e1 = np.broadcast_to(np.asarray(e1, dtype=float), (n,))
    keep_rate = np.concatenate((e0, e1))  # the (2, n) table [e0; e1], flat: [bit * n + q]
    rate = np.maximum(e0, e1)
    for r in sorted(set(rate.tolist())):
        qubits = np.flatnonzero(rate == r)
        g = len(qubits)
        pos = bernoulli_positions(rng, len(out) * g, float(r))
        # the candidate arrays are updated in place: on ring_44q, a fresh
        # array per step cost more than the arithmetic
        shot = pos // g
        q = qubits[np.subtract(pos, shot * g, out=pos)]
        shift = np.subtract(n - 1, q, out=pos)
        u = rng.random(len(q))
        u *= r
        entry = out[shot]
        entry >>= shift
        entry &= 1
        entry *= n
        entry += q
        kept = np.flatnonzero(u < keep_rate[entry])
        xor_sorted(out, shot[kept], np.left_shift(1, shift[kept]))
    return out


@dataclass
class DeviceModel:
    """Immutable-after-load description of the simulated device."""

    n_qubits: int
    gates: tuple[GateSpec, ...]
    couplings: CouplingMap = field(default_factory=CouplingMap)
    readout_e0: np.ndarray | None = None
    readout_e1: np.ndarray | None = None
    single_qubit_depol: np.ndarray | None = None
    layout_edges: tuple[tuple[int, int], ...] = ()
    pauli_layer_noise: bool = True

    def __post_init__(self):
        n = self.n_qubits
        if self.readout_e0 is None:
            self.readout_e0 = np.zeros(n)
        if self.readout_e1 is None:
            self.readout_e1 = np.zeros(n)
        if self.single_qubit_depol is None:
            self.single_qubit_depol = np.ones(n)
        self.readout_e0 = np.broadcast_to(np.asarray(self.readout_e0, dtype=float), (n,)).copy()
        self.readout_e1 = np.broadcast_to(np.asarray(self.readout_e1, dtype=float), (n,)).copy()
        self.single_qubit_depol = np.broadcast_to(
            np.asarray(self.single_qubit_depol, dtype=float), (n,)
        ).copy()
        for arr in (self.readout_e0, self.readout_e1, self.single_qubit_depol):
            if np.any(arr < 0) or np.any(arr > 1):
                raise ValueError("probabilities must lie in [0, 1]")
            # tables in _cache are built from these; a write would leave them stale
            arr.flags.writeable = False
        for g in self.gates:
            if not (0 <= g.pair[0] < n and 0 <= g.pair[1] < n and g.pair[0] != g.pair[1]):
                raise ValueError(f"gate pair {g.pair} out of range")
        self._cache: dict = {}

    # -- structure ----------------------------------------------------------

    def cached(self, key, build):
        """Per-device table: ``build()`` runs on the first request of ``key``.

        Every table is a function of the device's fields, which stay fixed
        after construction (``with_control_offsets`` makes a new device).
        """
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def check_layer_disjoint(self, gate_indices: tuple[int, ...]):
        seen = set()
        for k in gate_indices:
            for q in self.gates[k].pair:
                if q in seen:
                    raise ValueError(f"gates in one parallel layer overlap on qubit {q}")
                seen.add(q)

    def coherent_layer_components(self, gate_indices: tuple[int, ...]) -> list[DiagonalUnitary]:
        """Coherent diagonal per coupling component of one executed layer.

        Each component diagonal is the ZZ-coupling unitary of the component
        multiplied by the control-phase deviation (the parametric CZ with
        the ideal CZ divided out) of every gate in it.  Components whose
        diagonal is trivial are dropped.  Cached per layer.
        """
        return self.cached(("coherent", tuple(gate_indices)), lambda: self._coherent_components(gate_indices))

    def _coherent_components(self, gate_indices: tuple[int, ...]) -> list[DiagonalUnitary]:
        out = []
        for comp in self.couplings.components(gate_indices):
            v = build_coupling_unitary(list(self.gates), self.couplings, comp)
            diag = v.diag.copy()
            k = len(v.qubits)
            pos = {q: k - 1 - i for i, q in enumerate(v.qubits)}
            idx = np.arange(2**k)
            for g in comp:
                spec = self.gates[g]
                if spec.control.is_trivial():
                    continue
                c = spec.control
                bi = (idx >> pos[spec.pair[0]]) & 1
                bj = (idx >> pos[spec.pair[1]]) & 1
                # parametric CZ divided by ideal CZ: the pi on |11> drops
                diag = diag * np.exp(1j * (c.dyn_i * bi + c.dyn_j * bj + c.cond_phase * (bi & bj)))
            if np.allclose(diag, 1.0, atol=1e-15):
                continue
            out.append(DiagonalUnitary(v.qubits, diag))
        return out

    def layer_twirl_channels(self, gate_indices: tuple[int, ...]) -> list[PauliChannel]:
        """Pauli twirls of the coherent layer components, cached per layer."""
        key = tuple(gate_indices)
        return self.cached(
            ("twirl", key), lambda: [pauli_twirl_diagonal(v) for v in self.coherent_layer_components(key)]
        )

    def with_control_offsets(self, offsets: dict[int, tuple]) -> "DeviceModel":
        """Copy of the device with control corrections added per gate index.

        Each entry is (d_cond, d_dyn_i, d_dyn_j) or, with a fourth element,
        additionally a coupler-compensation offset.
        """
        new_gates = list(self.gates)
        for g, delta in offsets.items():
            dc, di, dj = delta[:3]
            spec = new_gates[g]
            comp = spec.coupling_comp + (delta[3] if len(delta) > 3 else 0.0)
            new_gates[g] = replace(
                spec, control=spec.control.shifted(dc, di, dj), coupling_comp=comp
            )
        return DeviceModel(
            n_qubits=self.n_qubits,
            gates=tuple(new_gates),
            couplings=self.couplings,
            readout_e0=self.readout_e0,
            readout_e1=self.readout_e1,
            single_qubit_depol=self.single_qubit_depol,
            layout_edges=self.layout_edges,
            pauli_layer_noise=self.pauli_layer_noise,
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "n_qubits": self.n_qubits,
            "single_qubit_depol": self.single_qubit_depol.tolist(),
            "readout": {"e0": self.readout_e0.tolist(), "e1": self.readout_e1.tolist()},
            "gates": [
                {
                    "pair": list(g.pair),
                    "depol_p": g.depol_p,
                    "coupled_qubit": g.coupled_qubit,
                    "control": {
                        "cond_phase": g.control.cond_phase,
                        "dyn_i": g.control.dyn_i,
                        "dyn_j": g.control.dyn_j,
                    },
                    "coupling_comp": g.coupling_comp,
                    "comp_cost": g.comp_cost,
                }
                for g in self.gates
            ],
            "couplings": [
                {"gates": list(pair), "gamma": gamma} for pair, gamma in self.couplings.items()
            ],
            "layout_edges": [list(e) for e in self.layout_edges],
            "pauli_layer_noise": self.pauli_layer_noise,
        }

    @staticmethod
    def from_dict(doc: dict) -> "DeviceModel":
        n = int(doc["n_qubits"])
        gates = []
        for g in doc["gates"]:
            ctrl = g.get("control", {})
            gates.append(
                GateSpec(
                    pair=tuple(int(q) for q in g["pair"]),
                    depol_p=float(g.get("depol_p", 1.0)),
                    coupled_qubit=int(g["coupled_qubit"]) if "coupled_qubit" in g else None,
                    control=ControlPhases(
                        float(ctrl.get("cond_phase", 0.0)),
                        float(ctrl.get("dyn_i", 0.0)),
                        float(ctrl.get("dyn_j", 0.0)),
                    ),
                    coupling_comp=float(g.get("coupling_comp", 0.0)),
                    comp_cost=float(g.get("comp_cost", 0.0)),
                )
            )
        couplings = CouplingMap()
        for entry in doc.get("couplings", []):
            a, b = entry["gates"]
            couplings.set(int(a), int(b), float(entry["gamma"]))
        readout = doc.get("readout", {})
        return DeviceModel(
            n_qubits=n,
            gates=tuple(gates),
            couplings=couplings,
            readout_e0=np.asarray(readout.get("e0", 0.0), dtype=float),
            readout_e1=np.asarray(readout.get("e1", 0.0), dtype=float),
            single_qubit_depol=np.asarray(doc.get("single_qubit_depol", 1.0), dtype=float),
            layout_edges=tuple(tuple(int(q) for q in e) for e in doc.get("layout_edges", [])),
            pauli_layer_noise=bool(doc.get("pauli_layer_noise", True)),
        )

    @staticmethod
    def load(path) -> "DeviceModel":
        with open(path) as fh:
            return DeviceModel.from_dict(json.load(fh))
