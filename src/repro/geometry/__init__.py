"""Geometry substrate: periodic boxes, neighbor search, import regions."""

from repro.geometry.cells import (
    NeighborPairs,
    brute_force_pairs,
    cell_candidate_pairs,
    neighbor_pairs,
)
from repro.geometry.neighborlist import NeighborList
from repro.geometry.pbc import Box
from repro.geometry.regions import (
    dilated_box_volume,
    half_shell_import_volume,
    nt_import_volume,
    nt_spreading_import_volume,
    voxel_region_volume,
)

__all__ = [
    "NeighborPairs",
    "NeighborList",
    "brute_force_pairs",
    "cell_candidate_pairs",
    "neighbor_pairs",
    "Box",
    "dilated_box_volume",
    "half_shell_import_volume",
    "nt_import_volume",
    "nt_spreading_import_volume",
    "voxel_region_volume",
]
