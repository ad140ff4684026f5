"""Multi-robot patrolling on metric roadmaps.

Library layout:

- ``roadmap``: graph/chain/tree data model, loading, metric validation
- ``partition``: min-max interval partitions of a chain (bisection + exact)
- ``trajectories``: exact synthesized sweep trajectories and aggregation
- ``metrics``: refresh time and latency evaluation, lower bounds
- ``simulate``: distributed synchronization law, failures, noise sweeps
- ``tree``: depth-first tours and optimal subtree collections
- ``cover``: chainification and min-max path-cover approximations
- ``cli``: command-line front end with reproducible run manifests
"""

__version__ = "0.1.0"

from .roadmap import ChainRoadmap, Roadmap, RoadmapError, TreeRoadmap, load_roadmap
from .partition import (
    BisectionReport,
    InfeasibleError,
    Partition,
    left_induced_partition,
    optimal_partition_bisect,
    optimal_partition_exact,
)
from .trajectories import (
    AggregatedClusters,
    TeamTrajectory,
    aggregate_clusters,
    min_latency_trajectory,
    min_refresh_trajectory,
    min_up_latency_trajectory,
    opposite_phase_trajectory,
)
from .metrics import latency, latency_lower_bounds, refresh_time
from .simulate import SimConfig, Trace, noise_sweep, simulate

__all__ = [
    "ChainRoadmap",
    "Roadmap",
    "RoadmapError",
    "TreeRoadmap",
    "load_roadmap",
    "BisectionReport",
    "InfeasibleError",
    "Partition",
    "left_induced_partition",
    "optimal_partition_bisect",
    "optimal_partition_exact",
    "AggregatedClusters",
    "TeamTrajectory",
    "aggregate_clusters",
    "min_latency_trajectory",
    "min_refresh_trajectory",
    "min_up_latency_trajectory",
    "opposite_phase_trajectory",
    "latency",
    "latency_lower_bounds",
    "refresh_time",
    "SimConfig",
    "Trace",
    "noise_sweep",
    "simulate",
]
