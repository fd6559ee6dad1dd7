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

from .paulis import PauliString


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
        return float(np.clip(self.depol_p - self.comp_cost * self.coupling_comp**2, 0.0, 1.0))


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

    def weight_of(self, pauli: PauliString) -> float:
        """Probability of a given Z-type Pauli on the full register."""
        if np.any(pauli.x):
            return 0.0
        k = len(self.support)
        zero_outside = np.ones(pauli.n, dtype=bool)
        zero_outside[list(self.support)] = False
        if np.any(pauli.z[zero_outside]):
            return 0.0
        w = 0
        for pos, q in enumerate(self.support):
            w |= int(pauli.z[q]) << (k - 1 - pos)
        return float(self.weights[w])

    def sample_masks(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Sample ``size`` Z-mask indices according to the weights."""
        return rng.choice(len(self.weights), size=size, p=self.weights)


def fwht(v: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform (in a copy)."""
    v = v.astype(complex).copy()
    h = 1
    while h < len(v):
        for i in range(0, len(v), 2 * h):
            a = v[i : i + h].copy()
            b = v[i + h : i + 2 * h].copy()
            v[i : i + h] = a + b
            v[i + h : i + 2 * h] = a - b
        h *= 2
    return v


def build_coupling_unitary(
    gates: list[GateSpec],
    couplings: CouplingMap,
    cluster: tuple[int, ...],
    cluster_limit: int = 8,
) -> DiagonalUnitary:
    """Diagonal of exp(-i sum gamma_kl Z_{i_k} Z_{i_l}) over a gate cluster."""
    if len(cluster) > cluster_limit:
        raise ResourceLimitError(
            f"coupling cluster of {len(cluster)} gates exceeds the limit of {cluster_limit}"
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


def parametric_cz_unitary(spec: GateSpec) -> DiagonalUnitary:
    """diag(1, e^{i dyn_j}, e^{i dyn_i}, e^{i(dyn_i+dyn_j+pi+cond)}) on the pair."""
    c = spec.control
    diag = np.exp(
        1j
        * np.array(
            [0.0, c.dyn_j, c.dyn_i, c.dyn_i + c.dyn_j + np.pi + c.cond_phase]
        )
    )
    return DiagonalUnitary(tuple(spec.pair), diag)


def apply_readout_noise(bits: np.ndarray, e0: np.ndarray, e1: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Flip measured bits independently: 0->1 with e0, 1->0 with e1.

    ``bits`` may be a single outcome (n,) or a batch (shots, n).
    """
    bits = np.asarray(bits, dtype=np.uint8)
    squeeze = bits.ndim == 1
    batch = np.atleast_2d(bits)
    u = rng.random(batch.shape)
    flip = np.where(batch == 0, u < e0, u < e1)
    out = batch ^ flip.astype(np.uint8)
    return out[0] if squeeze else out


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
    cluster_limit: int = 8
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
        for g in self.gates:
            if not (0 <= g.pair[0] < n and 0 <= g.pair[1] < n and g.pair[0] != g.pair[1]):
                raise ValueError(f"gate pair {g.pair} out of range")
        self._twirl_cache: dict = {}

    # -- structure ----------------------------------------------------------

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
        diagonal is trivial are dropped.
        """
        out = []
        for comp in self.couplings.components(gate_indices):
            v = build_coupling_unitary(list(self.gates), self.couplings, comp, self.cluster_limit)
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
        if key not in self._twirl_cache:
            self._twirl_cache[key] = [
                pauli_twirl_diagonal(v) for v in self.coherent_layer_components(key)
            ]
        return self._twirl_cache[key]

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
            cluster_limit=self.cluster_limit,
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
            "cluster_limit": self.cluster_limit,
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
            cluster_limit=int(doc.get("cluster_limit", 8)),
            pauli_layer_noise=bool(doc.get("pauli_layer_noise", True)),
        )

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "DeviceModel":
        with open(path) as fh:
            return DeviceModel.from_dict(json.load(fh))
