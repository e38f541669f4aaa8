"""Cooperative perception fusion with predictor-driven error models.

Two fusion tiers share one JPDA + CTRV-EKF core: local fusion combines the
sensors on a single platform, global fusion combines platform packets at a
roadside unit, widening each incoming track by a speed-parameterized
localization covariance.  A deterministic figure-8 simulator and an
evaluation harness compare the parameterized error model against a fixed
(mean) baseline.
"""

from .association import (
    AssociationConfig,
    AssociationResult,
    CombinatorialOverflowError,
    Track,
    associate_frame,
    gate,
    jpda_weights,
)
from .calibration import (
    ErrorSample,
    MatchResult,
    fit_error_model,
    fit_fixed_model,
    fit_quality,
    fit_sigma_model,
    match_observations_to_truth,
)
from .error_models import (
    DEFAULT_FIXED_MODELS,
    DEFAULT_PARAMETERIZED_MODELS,
    ErrorModel,
    GaussianEstimate,
    ModelError,
    ModelSet,
    PlatformPose,
    PolarObservation,
    SensorPose,
    eval_error_model,
    load_model_set,
    localization_covariance,
    observation_estimate,
    rotated_covariance,
    save_model_set,
    sensor_to_platform,
)
from .evaluation import (
    MODES,
    RunReport,
    replay,
    rmse,
    run_matrix,
    run_scenario,
    scenario_names,
    scenario_preset,
)
from .global_fusion import (
    GlobalFusion,
    GlobalFusionConfig,
    PlatformPacket,
    covariance_to_world,
    covariance_union,
    packet_from_line,
    packet_to_line,
    packetize,
    track_to_world,
)
from .local_fusion import LocalFrame, LocalFusion, SensorPipelineConfig, StaleFrameError
from .simulator import (
    FigureEightPath,
    LocalizerDrift,
    ScenarioConfig,
    Simulation,
    TrafficLight,
    step_vehicle,
    stream_rng,
    synth_sensor_frame,
)
from .tracking import (
    NumericalError,
    ProcessNoiseConfig,
    TrackEstimate,
    ctrv_jacobian,
    ctrv_motion,
    ctrv_predict,
    ekf_update,
    multi_update,
)

__version__ = "0.1.0"
