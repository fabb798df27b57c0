"""Text rendering of the pivot movement and wrap-around (paper Fig. 3).

Frames show where a virtual configuration's cells land on the physical
fabric launch by launch — the visual the paper uses to explain the
approach. Used by ``examples/visualize_rotation.py`` and handy when
debugging new movement patterns.
"""

from __future__ import annotations

from repro.cgra.configuration import VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.core.allocator import PhysicalPlacement


def render_placement(
    geometry: FabricGeometry,
    placement: PhysicalPlacement,
    launch_index: int | None = None,
) -> str:
    """One frame: ``#`` = occupied cell, ``P`` = the pivot, ``.`` idle.

    Row 1 prints at the bottom, matching the paper's figures.
    """
    occupied = set(placement.cells)
    lines = []
    if launch_index is not None:
        lines.append(
            f"launch {launch_index}: pivot=(R{placement.pivot[0] + 1},"
            f" C{placement.pivot[1] + 1})"
        )
    for row in range(geometry.rows - 1, -1, -1):
        cells = []
        for col in range(geometry.cols):
            if (row, col) == placement.pivot:
                cells.append("P")
            elif (row, col) in occupied:
                cells.append("#")
            else:
                cells.append(".")
        lines.append(f"R{row + 1} " + " ".join(cells))
    return "\n".join(lines)


def render_movement_sequence(
    geometry: FabricGeometry,
    config: VirtualConfiguration,
    allocator,
    launches: int,
) -> str:
    """Render ``launches`` consecutive frames of one configuration.

    ``allocator`` is a :class:`~repro.core.allocator.ConfigurationAllocator`;
    its policy state advances as a side effect (as in a real run).
    """
    frames = []
    for index in range(launches):
        placement = allocator.allocate(config)
        frames.append(render_placement(geometry, placement, index))
    return "\n\n".join(frames)


def wrap_demonstration(geometry: FabricGeometry) -> str:
    """The Fig. 3c moment: a pivot deep enough that the configuration
    wraps around both fabric edges."""
    from repro.cgra.configuration import PlacedOp
    from repro.cgra.fu import FUKind
    from repro.core.allocator import ConfigurationAllocator
    from repro.core.policy import make_policy

    ops = tuple(
        PlacedOp("add", FUKind.ALU, row=r, col=c, width=1,
                 trace_offset=r * 2 + c)
        for r in range(2)
        for c in range(2)
    )
    config = VirtualConfiguration(
        start_pc=0x1000,
        pc_path=tuple(0x1000 + 4 * i for i in range(4)),
        ops=ops,
        n_instructions=4,
        geometry_rows=geometry.rows,
        geometry_cols=geometry.cols,
    )

    class _CornerPolicy:
        name = "corner"

        def bind(self, geometry_):
            pass

        def next_pivot(self, config_, tracker):
            return (geometry.rows - 1, geometry.cols - 1)

    allocator = ConfigurationAllocator(geometry, _CornerPolicy())
    placement = allocator.allocate(config)
    header = (
        "wrap-around: a 2x2 block anchored at the far corner folds back "
        "onto row 1 / column 1"
    )
    return header + "\n" + render_placement(geometry, placement)
