"""Thermal adjacency extraction from a floorplan.

The RC thermal model (both the full simulator and the paper's
test-session model) needs, for every block:

* which other blocks it touches, through which side, and over what
  shared edge length — this sizes the lateral block-to-block thermal
  resistance;
* how much of its perimeter lies on the die boundary — this sizes the
  lateral block-to-die-edge resistance (the ``R_4,W`` / ``R_4,S`` paths
  of the paper's Figure 3);
* how much of its perimeter faces *uncovered* die area, when the blocks
  do not tile the die completely.

This module computes all of that once per floorplan and exposes it as an
:class:`AdjacencyMap` plus a :func:`adjacency_graph` view as a
``networkx.Graph`` for analysis and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import networkx as nx

from ..errors import FloorplanError
from .floorplan import Floorplan
from .geometry import GEOM_TOL, Side, boundary_exposure, near_pairs, shared_edge


@dataclass(frozen=True)
class Interface:
    """A shared edge between two blocks.

    Attributes
    ----------
    block_a, block_b:
        Names of the touching blocks (``block_a < block_b`` lexically so
        each physical interface appears exactly once).
    side_of_a:
        The side of *block_a* that touches *block_b*.
    length:
        Shared edge length in metres.
    """

    block_a: str
    block_b: str
    side_of_a: Side
    length: float

    def other(self, name: str) -> str:
        """The block on the opposite side of the interface from *name*."""
        if name == self.block_a:
            return self.block_b
        if name == self.block_b:
            return self.block_a
        raise FloorplanError(f"block {name!r} is not part of interface {self!r}")

    def side_of(self, name: str) -> Side:
        """The side of the named block that this interface occupies."""
        if name == self.block_a:
            return self.side_of_a
        if name == self.block_b:
            return self.side_of_a.opposite
        raise FloorplanError(f"block {name!r} is not part of interface {self!r}")


@dataclass(frozen=True)
class BoundarySegment:
    """A stretch of a block's side that lies on the die boundary."""

    block: str
    side: Side
    length: float


class AdjacencyMap:
    """Precomputed adjacency information for one floorplan.

    Built once and then queried by the thermal network builder and by
    the session thermal model.  Only the block pairs a sweep finds near
    each other (:func:`~repro.floorplan.geometry.near_pairs`) are tested
    with :func:`~repro.floorplan.geometry.shared_edge`, about O(n * k)
    work for a floorplan k blocks tall.  Interfaces are recorded in
    ``(i, j)`` block-index order, which fixes the order of
    :attr:`interfaces` and of every :meth:`interfaces_of` list.
    """

    def __init__(self, floorplan: Floorplan, tol: float = GEOM_TOL) -> None:
        self._floorplan = floorplan
        self._interfaces: list[Interface] = []
        self._by_block: dict[str, list[Interface]] = {b.name: [] for b in floorplan}
        self._boundary: dict[str, list[BoundarySegment]] = {
            b.name: [] for b in floorplan
        }

        blocks = list(floorplan)
        for i, j in near_pairs([block.rect for block in blocks], tol):
            a, b = blocks[i], blocks[j]
            edge = shared_edge(a.rect, b.rect, tol)
            if edge is None:
                continue
            side_of_a, length = edge
            first, second = sorted((a.name, b.name))
            side = side_of_a if first == a.name else side_of_a.opposite
            interface = Interface(first, second, side, length)
            self._interfaces.append(interface)
            self._by_block[a.name].append(interface)
            self._by_block[b.name].append(interface)

        for block in blocks:
            exposure = boundary_exposure(block.rect, floorplan.outline, tol)
            for side, length in exposure.items():
                self._boundary[block.name].append(
                    BoundarySegment(block.name, side, length)
                )

    # -- queries -----------------------------------------------------------------

    @property
    def floorplan(self) -> Floorplan:
        """The floorplan this map was built from."""
        return self._floorplan

    @property
    def interfaces(self) -> tuple[Interface, ...]:
        """All block-to-block interfaces (each physical edge once)."""
        return tuple(self._interfaces)

    def interfaces_of(self, name: str) -> tuple[Interface, ...]:
        """All interfaces that involve the named block."""
        try:
            return tuple(self._by_block[name])
        except KeyError:
            raise FloorplanError(f"unknown block {name!r}") from None

    def neighbours(self, name: str) -> tuple[str, ...]:
        """Names of the blocks edge-adjacent to the named block."""
        return tuple(i.other(name) for i in self.interfaces_of(name))

    def boundary_segments(self, name: str) -> tuple[BoundarySegment, ...]:
        """Die-boundary segments of the named block."""
        try:
            return tuple(self._boundary[name])
        except KeyError:
            raise FloorplanError(f"unknown block {name!r}") from None

    def boundary_length(self, name: str) -> float:
        """Total perimeter of the named block lying on the die boundary."""
        return math.fsum(s.length for s in self.boundary_segments(name))

    def interface_between(self, a: str, b: str) -> Interface | None:
        """The interface between two named blocks, or None."""
        for interface in self.interfaces_of(a):
            if interface.other(a) == b:
                return interface
        return None

    def iter_block_names(self) -> Iterator[str]:
        """Iterate block names in canonical floorplan order."""
        return iter(self._floorplan.block_names)

    # -- diagnostics --------------------------------------------------------------

    def unaccounted_perimeter(self, name: str) -> float:
        """Perimeter of the block facing neither a neighbour nor the die edge.

        Non-zero only when the floorplan does not fully tile the die
        (white space).  The thermal builder treats such perimeter as
        adiabatic, which matches HotSpot's block-mode behaviour for
        non-tiling floorplans.
        """
        block = self._floorplan[name]
        accounted = math.fsum(
            i.length for i in self.interfaces_of(name)
        ) + self.boundary_length(name)
        return max(0.0, block.rect.perimeter - accounted)

    def is_fully_tiled(self, rel_tol: float = 1e-6) -> bool:
        """True when every block edge faces either a neighbour or the die edge."""
        for name in self.iter_block_names():
            block = self._floorplan[name]
            if self.unaccounted_perimeter(name) > rel_tol * block.rect.perimeter:
                return False
        return True


def adjacency_graph(adjacency: AdjacencyMap) -> nx.Graph:
    """A ``networkx`` view of the block adjacency.

    Nodes are block names (with ``area`` attributes); edges carry the
    shared edge ``length``.  Used by tests (connectivity, symmetry) and
    available to users for floorplan analysis.
    """
    graph = nx.Graph(name=adjacency.floorplan.name)
    for block in adjacency.floorplan:
        graph.add_node(block.name, area=block.area)
    for interface in adjacency.interfaces:
        graph.add_edge(
            interface.block_a,
            interface.block_b,
            length=interface.length,
            side_of_a=interface.side_of_a.value,
        )
    return graph
