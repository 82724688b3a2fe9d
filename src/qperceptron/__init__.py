"""Quantum perceptron toolkit.

Simulation, control design and training for the unitary quantum
perceptron: exact sigmoid gates on qubit registers, quasi-adiabatic
realization on an Ising qubit driven by a transverse-field ramp,
feed-forward networks trained classically, and synthesis of multiqubit
conditional gates from perceptron compositions.
"""

from .activation import (
    ALGEBRAIC,
    LOGISTIC,
    STEP,
    ActivationKind,
    cao_arctan,
    chi,
    dchi_dx,
    df_dx,
    eval_CS,
    eval_f,
)
from .control import (
    AdiabaticDiagnostics,
    ControlSchedule,
    EigenSystem,
    adiabatic_diagnostics,
    adiabatic_mu,
    eigensystem,
    faquad_constant_mu,
    faquad_schedule,
    linear_schedule,
    optimal_design_field,
    perturbed_schedule,
    reversed_negated,
    schedule_from_csv,
    schedule_to_csv,
    tabulated_schedule,
)
from .dynamics import (
    FidelityReport,
    average_fidelity,
    benchmark_ramps,
    fit_constants_json,
    fit_infidelity_decay,
    report_to_csv,
    response_curve,
    response_to_csv,
    schedule_propagators,
)
from .register import (
    PerceptronGateSpec,
    QuantumRegister,
    ZeroProbabilityError,
    apply_hadamard,
    apply_hardware_perceptron,
    apply_ideal_perceptron,
    conditional_probability,
    excitation_probability,
    init_basis,
    register_to_csv,
    z_expectation,
)
from .network import (
    NetworkSpec,
    approximator_readout,
    build_universal_approximator,
    classical_mixture_oracle,
    forward,
    layered_network,
    network_from_json,
    network_to_json,
    protocol_duration,
)
from .training import (
    Dataset,
    TrainConfig,
    TrainReport,
    batch_state_forward,
    cost_gradient,
    cross_entropy_cost,
    dataset_from_csv,
    dataset_to_csv,
    prime_dataset,
    report_to_json,
    train,
)
from .synthesis import (
    CompositionSpec,
    Peak,
    Rectangle,
    Sampled,
    SynthesisResult,
    analytic_rectangle,
    apply_composition,
    composition_angle,
    composition_to_csv,
    synthesize,
    target_angle,
)

__version__ = "0.1.0"
