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
    CombinatorialOverflowError,
    Track,
    TrackTable,
    associate_frame,
    jpda_weights,
)
from .calibration import (
    fit_error_model,
    fit_sigma_model,
    match_observations_to_truth,
)
from .error_models import (
    DEFAULT_FIXED_MODELS,
    DEFAULT_PARAMETERIZED_MODELS,
    ErrorModel,
    GaussianEstimate,
    ModelSet,
    PlatformPose,
    PolarObservation,
    SensorPose,
    eval_error_model,
    load_model_set,
    localization_covariances,
    observation_estimates,
    sensor_table,
)
from .evaluation import (
    MODES,
    RunReport,
    replay,
    run_matrix,
    run_scenario,
    scenario_names,
    scenario_preset,
)
from .global_fusion import GlobalFusion, PlatformPacket, packetize
from .local_fusion import LocalFrame, LocalFusion, SensorPipelineConfig, StaleFrameError
from .simulator import ScenarioConfig, Simulation
from .tracking import (
    ProcessNoiseConfig,
    ctrv_predict,
    ekf_update,
    multi_update,
)

__version__ = "0.1.0"
