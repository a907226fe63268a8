"""Fault-tolerant V2V intersection crossing: simulator and analysis toolkit."""

from .analytics import (
    DECAY_HARSH,
    DECAY_OPEN_FIELD,
    expected_enter_delay,
    fit_decay_rate,
    monte_carlo_enter_delay,
    v2v_probability,
)
from .channel import (
    CorrelatedBurst,
    DistanceIID,
    Perfect,
    Scripted,
    burst_length_pmf,
    pdr,
    sample_delivery,
)
from .kinematics import (
    UNREACHABLE,
    IntersectionGeometry,
    PriorityVerdict,
    Route,
    VehicleEstimate,
    collision_area,
    enter_trigger,
    mean_time_to_intersection,
    priority_decision,
    yield_acceleration,
)
from .protocol import (
    AckMessage,
    Action,
    EnterMessage,
    Mode,
    ProtocolState,
    SlotIO,
    closed_form_enter_delay,
    enter_step,
    exit_step,
    sd_main_step,
    simulate_enter_round,
)
from .scenarios import bundled_scenario, load_scenario, save_scenario
from .sim import (
    Scenario,
    SimTrace,
    VehicleSpec,
    check_safety,
    run_scenario,
)

__version__ = "0.1.0"
