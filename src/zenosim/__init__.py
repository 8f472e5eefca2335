"""Quantum Zeno effect: closed forms, decoherence limits, and a dissipative
three-level simulator with a brute-force oracle for every closed form."""

from .config import RunConfig, parse_config
from .dynamics import (
    IonConfig,
    LindbladConfig,
    PulseSchedule,
    ScheduleParams,
    apply_projection,
    evolve_bloch,
    integrate_lindblad,
    populations,
)
from .errors import (
    BoundViolationError,
    ConfigError,
    IntegrationError,
    InvalidStateError,
    NonphysicalStateError,
    ZenoSimError,
)
from .ion import (
    LINDBLAD_AGREEMENT_TOL,
    n_max,
    p2_asymptotic,
    p2_closed_form,
    p2_decoherence_asymptotic,
    p2_decoherence_limited,
    simulate_projective_sequence,
)
from .neutron import (
    NeutronConfig,
    neutron_n_max,
    p_up_ideal,
    p_up_limited,
    p_up_limited_asymptotic,
    phi_zero,
)
from .states import (
    BlochVector,
    Diagnostics,
    bloch_from_density,
    density_from_bloch,
    validate_density,
)
from .sweep import (
    NeutronRow,
    SweepResult,
    SweepRow,
    emit,
    lindblad_p2,
    load_result,
    run_ion_sweep,
    run_neutron_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BlochVector",
    "BoundViolationError",
    "ConfigError",
    "Diagnostics",
    "IntegrationError",
    "InvalidStateError",
    "IonConfig",
    "LINDBLAD_AGREEMENT_TOL",
    "LindbladConfig",
    "NeutronConfig",
    "NeutronRow",
    "NonphysicalStateError",
    "PulseSchedule",
    "RunConfig",
    "ScheduleParams",
    "SweepResult",
    "SweepRow",
    "ZenoSimError",
    "apply_projection",
    "bloch_from_density",
    "density_from_bloch",
    "emit",
    "evolve_bloch",
    "integrate_lindblad",
    "lindblad_p2",
    "load_result",
    "n_max",
    "neutron_n_max",
    "p2_asymptotic",
    "p2_closed_form",
    "p2_decoherence_asymptotic",
    "p2_decoherence_limited",
    "p_up_ideal",
    "p_up_limited",
    "p_up_limited_asymptotic",
    "phi_zero",
    "populations",
    "run_ion_sweep",
    "run_neutron_sweep",
    "simulate_projective_sequence",
    "validate_density",
]
