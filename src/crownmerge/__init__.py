"""Group oversegmented labeled raster regions back into whole objects.

The pipeline reads a labeled segment raster, links segments with
straight rays cast across the unlabeled ground between them, clusters
the segments bottom-up on the total footprint of those links, cuts the
merge forest where per-path parameter jumps concentrate, and ranks the
surviving groups by how compact they are.
"""

from .hac import Hierarchy, HierarchyNode, agglomerate, group_pixels, hierarchy_records
from .links import (
    DIRECTIONS,
    NO_CONNECTION,
    LinkStore,
    cast_rays,
    group_distance,
    pair_distance,
)
from .params import (
    NAMED_STREAMS,
    RATIO_FIELDS,
    NodeParams,
    compute_params,
    parameter_stream,
    validate_stream,
)
from .ranking import (
    SCORE_KEYS,
    DispersionStats,
    RankedCandidate,
    rank_candidates,
    score_cluster,
)
from .raster_io import (
    FORMAT_PGM,
    FORMAT_TEXT_GRID,
    FORMATS,
    Isol,
    LabeledRaster,
    RasterFormatError,
    by_id,
    dump_pgm,
    dump_text_grid,
    extract_isols,
    load_raster,
    sniff_format,
    write_cluster_raster,
)
from .synth import SynthScene, generate_canopy, generate_random, generate_ring
from .termination import (
    BreakCounts,
    PathTrace,
    TrimmedHierarchy,
    count_breaks,
    cumulative_max,
    filter_terminals,
    first_differences,
    scale_unit,
    trace_all,
    trace_path,
    trim,
)

__version__ = "0.1.0"

__all__ = [
    "BreakCounts",
    "DIRECTIONS",
    "DispersionStats",
    "FORMATS",
    "FORMAT_PGM",
    "FORMAT_TEXT_GRID",
    "Hierarchy",
    "HierarchyNode",
    "Isol",
    "LabeledRaster",
    "LinkStore",
    "NAMED_STREAMS",
    "NO_CONNECTION",
    "NodeParams",
    "PathTrace",
    "RATIO_FIELDS",
    "RankedCandidate",
    "RasterFormatError",
    "SCORE_KEYS",
    "SynthScene",
    "TrimmedHierarchy",
    "agglomerate",
    "by_id",
    "cast_rays",
    "compute_params",
    "count_breaks",
    "cumulative_max",
    "dump_pgm",
    "dump_text_grid",
    "extract_isols",
    "filter_terminals",
    "first_differences",
    "generate_canopy",
    "generate_random",
    "generate_ring",
    "group_distance",
    "group_pixels",
    "hierarchy_records",
    "load_raster",
    "pair_distance",
    "parameter_stream",
    "rank_candidates",
    "scale_unit",
    "score_cluster",
    "sniff_format",
    "trace_all",
    "trace_path",
    "trim",
    "validate_stream",
    "write_cluster_raster",
]
