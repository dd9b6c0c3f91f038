"""3-colouring of partitioned probe P5-free graphs.

Solvers, recognition oracles, instance generators and reductions, plus the
list-colouring and propagation machinery they share.
"""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    InducedEmbedding,
    ProbeInstance,
    build_graph,
    validate_probe_instance,
)
from .solver import Verdict, solve_3col

__all__ = [
    "Graph",
    "InducedEmbedding",
    "ProbeInstance",
    "Verdict",
    "build_graph",
    "solve_3col",
    "validate_probe_instance",
]
