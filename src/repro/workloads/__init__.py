"""Workload, distribution and topology generators."""

from .access_patterns import (
    Access,
    hoop_relay_script,
    run_script,
    single_writer_script,
    uniform_access_script,
)
from .distributions import (
    chain_distribution,
    neighbourhood_over_topology,
    disjoint_blocks,
    full_replication,
    neighbourhood_distribution,
    random_distribution,
)
from .random_history import random_history, serial_history
from .topology import (
    INFINITY,
    WeightedDigraph,
    figure8_network,
    line_network,
    random_network,
    ring_network,
    star_network,
)

__all__ = [
    "Access",
    "INFINITY",
    "WeightedDigraph",
    "chain_distribution",
    "disjoint_blocks",
    "figure8_network",
    "full_replication",
    "hoop_relay_script",
    "line_network",
    "neighbourhood_distribution",
    "neighbourhood_over_topology",
    "random_distribution",
    "random_history",
    "random_network",
    "ring_network",
    "run_script",
    "serial_history",
    "single_writer_script",
    "star_network",
    "uniform_access_script",
]
