"""Simulated benchmarking, correlation analysis, and calibration of
parallel Clifford gates on a configurable noisy virtual device."""

from .analysis import (
    CorrelationReport,
    analytic_fidelity,
    closed_form_r3,
    correlation,
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
    build_cab_sequence,
    estimate_fidelity,
    execute_cab_run,
    interleaved_pure_fidelity,
    run_cab_experiment,
    run_cb_experiment,
    sample_observables,
    subset_fidelity,
)
from .calibration import (
    NelderMead,
    NelderMeadOptions,
    OptTrajectory,
    calibrate_dynamic_phase,
    measure_conditional_phase,
    optimize_parallel_cz,
)
from .circuits import GateBlock, SequenceStack
from .device import (
    ControlPhases,
    CouplingMap,
    DeviceModel,
    GateSpec,
    PauliChannel,
    apply_readout_noise,
    build_coupling_unitary,
    pauli_twirl_diagonal,
)
from .experiments import fully_connected_gate, gate_order_samples, ring_device
from .tableau import CliffordTableau, compile_inverse_pauli, gate_order

__version__ = "0.1.0"
