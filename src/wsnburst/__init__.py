"""wsnburst: N-burst ON/OFF traffic modeling and sink queueing simulation.

Source parameters and closed-form results (blow-up points, smooth/bulk
delay limits) live in :mod:`wsnburst.model`; the deterministic simulator in
:mod:`wsnburst.simcore`; network shapes in :mod:`wsnburst.topology`;
sweep orchestration and CSV output in :mod:`wsnburst.experiments`.
"""

__version__ = "0.1.0"

from .dists import (Deterministic, DistributionSpec, Exponential, ParameterError,
                    Pareto, TPT, sample, sample_array, tpt_calibrate)
from .model import (DeterministicLaw, DiscretizedLaw, DistKind,
                    GeometricLaw, SourceParams, blowup_points,
                    bulk_factor, derive_source_params, mpd_bulk_limit,
                    mpd_smooth_limit)
from .simcore import (ReplicationResult, RunConfig, estimate_overflow,
                      run_replication, source_emit)
from .topology import (TopologySpec, build_case2, build_case3, build_star,
                       validate_topology)
from .experiments import ConfigError, SimConfig, load_config, run_sweep

__all__ = [
    "Deterministic", "DistributionSpec", "Exponential", "ParameterError",
    "Pareto", "TPT", "sample", "sample_array", "tpt_calibrate",
    "DeterministicLaw", "DiscretizedLaw", "DistKind",
    "GeometricLaw", "SourceParams", "blowup_points",
    "bulk_factor", "derive_source_params", "mpd_bulk_limit",
    "mpd_smooth_limit",
    "ReplicationResult", "RunConfig", "estimate_overflow", "run_replication",
    "source_emit",
    "TopologySpec", "build_case2", "build_case3", "build_star",
    "validate_topology",
    "ConfigError", "SimConfig", "load_config", "run_sweep",
]
