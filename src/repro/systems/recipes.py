"""Force parameters of the two water recipes the CLI and service run.

:func:`mts_water_params` serves ``repro simulate``/``ensemble`` and
every ``repro serve`` job; :func:`machine_water_params` serves ``repro
machine``/``network``.  Both fix a 16^3 mesh, which a large enough box
outgrows (:meth:`~repro.ewald.GSEParams.choose`); the box side is a
pure function of the water count, so both reject such a box with a
one-line ``ValueError`` before any atom is built.
"""

from __future__ import annotations

from repro.core.forces import MDParams
from repro.ewald import GSEParams
from repro.geometry import Box
from repro.systems.builder import water_box_side

__all__ = ["machine_water_params", "mts_water_params"]

WATER_MESH = (16, 16, 16)


def _box(waters: int) -> Box:
    if waters < 1:
        raise ValueError(f"need at least one water, got {waters}")
    return Box.cubic(water_box_side(waters))


def _checked(waters: int, box: Box, params: MDParams) -> MDParams:
    """``params`` if the recipe can run ``waters`` waters, else ValueError."""
    side = float(box.lengths[0])
    if params.cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {params.cutoff:g}")
    if params.cutoff > box.max_cutoff():
        raise ValueError(
            f"{waters} waters: cutoff {params.cutoff:g} A exceeds the "
            f"minimum-image limit {box.max_cutoff():.2f} A of the {side:.1f} A box"
        )
    try:
        GSEParams.choose(
            box, params.cutoff, params.mesh, real_space_tolerance=params.ewald_tolerance
        )
    except ValueError as exc:
        raise ValueError(f"{waters} waters ({side:.1f} A box): {exc}") from None
    return params


def mts_water_params(waters: int, cutoff: float | None = None) -> MDParams:
    """The multiple-time-step water recipe; ``cutoff`` overrides its default."""
    box = _box(waters)
    params = MDParams(
        cutoff=cutoff or min(5.5, box.max_cutoff() * 0.9),
        mesh=WATER_MESH,
        long_range_every=2,
    )
    return _checked(waters, box, params)


def machine_water_params(waters: int) -> MDParams:
    """The functional-machine water recipe (fixed-point mesh charges)."""
    box = _box(waters)
    params = MDParams(
        cutoff=min(4.5, box.max_cutoff() * 0.9),
        mesh=WATER_MESH,
        quantize_mesh_bits=40,
    )
    return _checked(waters, box, params)
