"""Virtual noisy device: gate set, depolarizing rates, ZZ coupling, readout.

The composite noise model per parallel two-qubit gate layer is: a
depolarizing channel on each executed gate pair, followed by a coherent
diagonal unitary collecting the residual ZZ coupling between gates
executed in that layer together with each gate's control-phase errors,
followed by the ideal CZ gates.  Every single-qubit layer, Pauli twirling
layers included, is followed by a per-qubit depolarizing channel;
measurement applies independent per-qubit bit-flip confusion.

A device document (``DeviceModel.from_dict``) is a JSON object of
``n_qubits`` and ``gates``, a list of gate objects, and optionally
``couplings``, a list of ``{"gates": [k, l], "gamma": phase}`` over gate
indices; ``readout``, an object of ``e0`` and ``e1``; ``single_qubit_depol``;
``layout_edges``, a list of qubit pairs; and ``schema_version`` 1.  A rate
is one number or a list of one per qubit.  A gate object holds its
``pair`` of qubits and optionally ``depol_p``, ``coupled_qubit``,
``coupling_comp``, ``comp_cost`` and ``control``, an object of
``cond_phase``, ``dyn_i`` and ``dyn_j``.  The keys are the
fields of ``DeviceModel``, ``GateSpec`` and ``ControlPhases``, which hold
every default; a key no constructor takes is refused, and no value is cast.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

CLUSTER_LIMIT = 8  # gates per coupling cluster whose diagonal is built densely


class ResourceLimitError(RuntimeError):
    """A cluster or subsystem exceeds the configured exact-computation size."""


class ContractViolation(ValueError):
    """An input breaks a documented precondition."""


def _check_real(value, name: str):
    """A TypeError naming ``name`` unless ``value`` is a finite real number;
    numpy scalars pass, bools do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise TypeError(f"{name} must be a finite number, got {value!r}")


def _is_int(value) -> bool:
    """An integer: numpy integers are, bools are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _checked_pair(value, name: str, limit: float = math.inf) -> tuple:
    """``value`` as a tuple of two distinct integers in [0, limit), else a
    TypeError or ValueError naming ``name``."""
    pair = tuple(value)
    if not all(map(_is_int, pair)):
        raise TypeError(f"{name} must hold integers, got {value!r}")
    if len(pair) != 2 or pair[0] == pair[1] or not all(0 <= v < limit for v in pair):
        bound = "non-negative" if limit == math.inf else f"in [0, {limit})"
        raise ValueError(f"{name} must be two distinct {bound} indices, got {value!r}")
    return pair


@dataclass(frozen=True)
class ControlPhases:
    """CZ control errors: conditional-phase offset and two dynamic phases."""

    cond_phase: float = 0.0
    dyn_i: float = 0.0
    dyn_j: float = 0.0

    def __post_init__(self):
        for name in ("cond_phase", "dyn_i", "dyn_j"):
            _check_real(getattr(self, name), name)


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
        object.__setattr__(self, "pair", _checked_pair(self.pair, "pair"))
        if self.coupled_qubit is None:
            object.__setattr__(self, "coupled_qubit", self.pair[0])
        if not _is_int(self.coupled_qubit) or self.coupled_qubit not in self.pair:
            raise ValueError(f"coupled_qubit must be one of the gate's pair, got {self.coupled_qubit!r}")
        for name in ("depol_p", "coupling_comp", "comp_cost"):
            _check_real(getattr(self, name), name)
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
        _check_real(gamma, "coupling strength")
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


@lru_cache(maxsize=None)
def walsh_matrix(k: int) -> np.ndarray:
    """The 2^k Walsh matrix (-1)^|a & b| as a read-only float array, built
    once per k: ``fwht``'s two factors and the dm kernel's gate frame."""
    a = np.arange(2**k)
    w = 1.0 - 2.0 * (np.bitwise_count(a[:, None] & a[None, :]) & 1)
    w.flags.writeable = False
    return w


def fwht(v: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis (in a copy);
    leading axes are a batch.  The 2^k Walsh matrix is the Kronecker product
    of the 2^h and 2^(k-h) ones, h = k // 2, so each row, as a (2^h, 2^(k-h))
    matrix, takes one matmul by each.  A real input gives a float result.
    Integer-valued input, such as counts, transforms exactly; floats may
    differ from another order of the additions in the last bit.
    """
    v = np.asarray(v)
    d = v.shape[-1]
    if d < 1 or d & (d - 1):
        raise ValueError(f"fwht needs a last axis of length 2^k, got {d}")
    k = d.bit_length() - 1
    h = k // 2
    t = v.astype(complex if np.iscomplexobj(v) else float).reshape(*v.shape[:-1], 2**h, 2 ** (k - h))
    return (walsh_matrix(h) @ t @ walsh_matrix(k - h)).reshape(v.shape)


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
    with a Walsh-Hadamard transform of the diagonal, which is complex: a
    weight may differ in the last bit from another order of the additions.
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
    instead of O(n_trials).  Each gap is ceil(E / -log1p(-p)) of one
    standard exponential E, the inversion by which numpy's ``rng.geometric``
    draws every p < 1/3.  Taken from one ``standard_exponential`` fill, the
    gaps, and the generator state after them, are bit for bit those of
    ``rng.geometric``.  ``math.log1p`` is the libm call that numpy's
    sampler makes (the ``np.log1p`` ufunc may round differently).  At
    p >= 1/3 numpy searches with uniforms instead; the inversion is exact
    there too, on another stream.  A gap is capped at n_trials + 1: any gap
    that long ends the draw, and the cap keeps the cumsum from overflowing
    at tiny p.  Gaps are drawn in chunks sized to cover the expected count
    with a margin; a short chunk is followed by another.
    """
    if p <= 0.0 or n_trials == 0:
        return np.zeros(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n_trials, dtype=np.int64)
    scale = -math.log1p(-p)
    mean = n_trials * p
    chunk = int(mean + 5.0 * np.sqrt(mean)) + 16
    parts, last = [], -1
    while last < n_trials:
        gaps = rng.standard_exponential(chunk)
        with np.errstate(over="ignore"):  # p near 1e-308 can give inf, which the cap takes
            gaps /= scale
        np.ceil(gaps, out=gaps)
        np.minimum(gaps, n_trials + 1, out=gaps)
        pos = gaps.astype(np.int64)
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
    r = max(e0, e1) per qubit: candidates at rate r, as geometric gaps
    (``bernoulli_positions``) over the (shot, qubit) pairs of the group's
    qubits, then one uniform u per candidate, kept when u r < e_bit.  e_bit
    is read from the (2, n) table [e0; e1] at the candidate's bit as the
    codes held it before the group's flips.  The candidates come in shot
    order, so a group's kept flips are XORed in with ``xor_sorted``.
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
    readout_e0: np.ndarray | float = 0.0
    readout_e1: np.ndarray | float = 0.0
    single_qubit_depol: np.ndarray | float = 1.0
    layout_edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        n = self.n_qubits
        if not _is_int(n) or n < 1:
            raise TypeError(f"n_qubits must be a positive integer, got {n!r}")
        for name in ("readout_e0", "readout_e1", "single_qubit_depol"):
            value = getattr(self, name)
            arr = np.asarray(value)
            # numpy casts a bool among numbers to 0 or 1
            cast = isinstance(value, (list, tuple)) and any(isinstance(v, bool) for v in value)
            if arr.dtype.kind not in "iuf" or cast:
                raise TypeError(f"{name} must hold numbers, got {value!r}")
            arr = np.broadcast_to(arr.astype(float), (n,)).copy()
            if not np.all((arr >= 0) & (arr <= 1)):
                raise ValueError(f"{name} must lie in [0, 1]")
            # tables in _cache are built from these; a write would leave them stale
            arr.flags.writeable = False
            setattr(self, name, arr)
        for g in self.gates:
            _checked_pair(g.pair, "gate pair", n)
        for pair, _ in self.couplings.items():
            _checked_pair(pair, "coupling gates", len(self.gates))
        self.layout_edges = tuple(_checked_pair(e, "layout edge", n) for e in self.layout_edges)
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
                c = spec.control
                if c == ControlPhases():
                    continue
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

        Each entry is (d_cond, d_dyn_i, d_dyn_j, d_comp): the conditional and
        dynamic phase offsets, then the coupler-compensation offset.
        """
        new_gates = list(self.gates)
        for g, (dc, di, dj, d_comp) in offsets.items():
            spec = new_gates[g]
            c = spec.control
            control = ControlPhases(c.cond_phase + dc, c.dyn_i + di, c.dyn_j + dj)
            comp = spec.coupling_comp + d_comp
            new_gates[g] = replace(spec, control=control, coupling_comp=comp)
        return replace(self, gates=tuple(new_gates))

    @staticmethod
    def from_dict(doc: dict) -> "DeviceModel":
        """The device of a document (see the module docstring), each object
        built by keyword: a key that no constructor takes is a TypeError, and
        each constructor checks its own values."""
        doc = {**doc}
        version = doc.pop("schema_version", 1)
        if not _is_int(version) or version != 1:
            raise ValueError("the device document's schema_version must be 1")
        gates = []
        for g in doc["gates"]:
            g = {**g}
            if "control" in g:
                g["control"] = ControlPhases(**g["control"])
            gates.append(GateSpec(**g))
        doc["gates"] = tuple(gates)
        if "couplings" in doc:
            doc["couplings"] = CouplingMap(dict(_coupling_entry(**c) for c in doc["couplings"]))
        readout = {f"readout_{bit}": rate for bit, rate in {**doc.pop("readout", {})}.items()}
        return DeviceModel(**doc, **readout)


def _coupling_entry(gates, gamma) -> tuple:
    """One ``couplings`` entry of a device document as a CouplingMap item."""
    return tuple(gates), gamma
