"""Combinatorial solver toolkit for MaxQP: maximize x^T A x over x in {-1,1}^n."""

from .errors import CapacityError, InternalError, MaxQPError, ParseError, ValidationError
from .graph import (
    ApproxResult,
    Assignment,
    InstanceStats,
    WeightedGraph,
    evaluate,
    extend_from_induced,
    glue_blocks,
    induced_subgraph,
    load_graph,
    stats,
)
from .matching import Matching, greedy_sorted_matching, maximal_matching, maximum_matching
from .oracle import (
    GeneratorSpec,
    SplitMix64,
    brute_force,
    generate,
    subdivide_for_maxcut,
)
from .packing import (
    EasyPacking,
    easypack,
    matching_to_solution,
    packing_to_solution,
    solve_bounded_degree,
    solve_degenerate,
    solve_dense,
    star_packing,
)
from .schemes import (
    VertexPartition,
    bfs_layers,
    solve_baker,
    solve_partition_scheme,
)
from .treewidth import (
    TreeDecomposition,
    build_decomposition,
    solve_exact,
    solve_treewidth,
    solve_treewidths,
    to_nice,
    validate_decomposition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
