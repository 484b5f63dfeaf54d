"""2-D mesh topology with dimension-ordered (XY) routing.

The Paragon interconnect is a 2-D mesh of bidirectional links with wormhole
routing; messages first travel along X to the destination column, then along
Y.  The mesh here provides node↔coordinate mapping, neighbour enumeration,
and route computation; link *occupancy* is handled by
:mod:`repro.machine.network`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import MachineError


@dataclass(frozen=True)
class Link:
    """A directed link between two adjacent mesh nodes.

    ``src``/``dst`` are node ids; the pair is always one mesh hop apart.
    """

    src: int
    dst: int

    def reversed(self) -> "Link":
        return Link(self.dst, self.src)

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}"


class Mesh2D:
    """A ``width`` x ``height`` mesh; node ids are row-major.

    Node ``i`` sits at ``(x, y) = (i % width, i // width)``.
    """

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise MachineError(f"mesh dimensions must be >= 1, got {width}x{height}")
        self.width = width
        self.height = height

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    # -- coordinates -----------------------------------------------------------
    def coords(self, node: int) -> tuple[int, int]:
        """(x, y) coordinates of ``node``."""
        self._check_node(node)
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        """Node id at coordinates ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise MachineError(f"coordinates ({x},{y}) outside {self.width}x{self.height} mesh")
        return y * self.width + x

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise MachineError(f"node {node} outside mesh of {self.num_nodes} nodes")

    # -- topology ---------------------------------------------------------------
    def neighbors(self, node: int) -> list[int]:
        """Mesh neighbours of ``node`` (2..4 of them)."""
        x, y = self.coords(node)
        out = []
        if x > 0:
            out.append(self.node_at(x - 1, y))
        if x < self.width - 1:
            out.append(self.node_at(x + 1, y))
        if y > 0:
            out.append(self.node_at(x, y - 1))
        if y < self.height - 1:
            out.append(self.node_at(x, y + 1))
        return out

    def hop_distance(self, src: int, dst: int) -> int:
        """Manhattan distance between two nodes."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def route(self, src: int, dst: int) -> list[Link]:
        """XY route from ``src`` to ``dst`` as a list of directed links.

        X dimension is resolved first, then Y (deadlock-free dimension
        order, as on the real machine).  An empty list means ``src == dst``.
        """
        self._check_node(src)
        self._check_node(dst)
        links: list[Link] = []
        x, y = self.coords(src)
        dx, dy = self.coords(dst)
        step = 1 if dx > x else -1
        while x != dx:
            nxt = self.node_at(x + step, y)
            links.append(Link(self.node_at(x, y), nxt))
            x += step
        step = 1 if dy > y else -1
        while y != dy:
            nxt = self.node_at(x, y + step)
            links.append(Link(self.node_at(x, y), nxt))
            y += step
        return links

    def all_links(self) -> Iterator[Link]:
        """All directed links in the mesh."""
        for node in range(self.num_nodes):
            for nb in self.neighbors(node):
                yield Link(node, nb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Mesh2D({self.width}x{self.height}, {self.num_nodes} nodes)"
