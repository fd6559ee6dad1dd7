"""Simulated benchmarking, correlation analysis, and calibration of
parallel Clifford gates on a configurable noisy virtual device."""

from .analysis import (
    CorrelationReport,
    analytic_fidelity,
    closed_form_r2,
    closed_form_r3,
    correlation,
    correlation_fluctuation,
    correlation_landscape,
    correlation_matrix,
)
from .backends import (
    ShotCounts,
    choi_process_fidelity,
    dm_run,
    stab_run_counts,
)
from .cab import (
    CabConfig,
    CabReport,
    FidelityEstimate,
    QualityParameter,
    build_cab_sequence,
    estimate_fidelity,
    execute_cab_run,
    fit_quality_parameter,
    interleaved_pure_fidelity,
    kq_for_accuracy,
    run_cab_experiment,
    run_cb_experiment,
    sample_observables,
    subset_fidelity,
)
from .calibration import (
    NelderMead,
    NelderMeadOptions,
    OptTrajectory,
    back_probability,
    calibrate_dynamic_phase,
    measure_conditional_phase,
    nelder_mead,
    optimize_parallel_cz,
    parallel_back_probability,
)
from .circuits import CircuitSequence, CliffordLayer, GateBlock, GateLayer, PauliLayer
from .device import (
    ControlPhases,
    CouplingMap,
    DeviceModel,
    GateSpec,
    PauliChannel,
    apply_readout_noise,
    build_coupling_unitary,
    parametric_cz_unitary,
    pauli_twirl_diagonal,
)
from .experiments import fully_connected_gate, gate_order_samples, ring_device
from .paulis import LocalCliffordLayer, PauliString, pauli_multiply, sample_local_clifford, sample_random_pauli
from .tableau import CliffordTableau, compile_inverse_pauli, gate_order

__version__ = "0.1.0"
