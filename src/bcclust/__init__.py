"""Bounded-confidence clustering dynamics with static features.

Particles carry an evolving position and an immutable feature vector; pairs
interact only when both the position gap and the feature gap fall within
their confidence levels.  The package provides the exact Euler integrator,
the O(M*N) random-subset integrator, moment oracles, cluster extraction with
steady-state verification, and shape-detection / image-segmentation pipelines
built on top.  Extracted clusters come as columns: a ClusterSet holds each
particle's cluster label and per-cluster weights, centers and feature
statistics, and a SteadyStateReport its violating pairs as a record array.
"""

from .model import (
    ClusteringError,
    ConfigError,
    DimensionMismatch,
    InteractionSpec,
    ParticleSet,
    distance,
)
from .dynamics import (
    ClusterSet,
    IntegratorConfig,
    SteadyStateReport,
    Trajectory,
    default_merge_tol,
    euler_step,
    extract_clusters,
    simulate,
    verify_steady_state,
)
from .mfi import MfiConfig, mfi_simulate, mfi_step
from .moments import (
    MomentRecord,
    analytic_global_moments,
    first_moment,
    moment_drift_report,
    second_moment,
)
from .rng import RngStream, derive_seed
from .shapes import (
    NoiseSpec,
    Pattern,
    error_measure,
    generate_letter_A,
    load_segments,
    perturb,
    sample_segments,
    sweep,
)
from .imageseg import (
    GrayImage,
    PgmParseError,
    SegmentationResult,
    image_to_particles,
    load_grayscale,
    segment,
    threshold,
    write_image,
)

__version__ = "0.1.0"
