"""Unit tests for adjacency extraction."""

from __future__ import annotations

import itertools
import math
import random
import re

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import FloorplanError
from repro.floorplan.adjacency import (
    AdjacencyMap,
    BoundarySegment,
    Interface,
    adjacency_graph,
)
from repro.floorplan.floorplan import Block, Floorplan
from repro.floorplan.generator import grid_floorplan, slicing_floorplan
from repro.floorplan.geometry import (
    GEOM_TOL,
    Rect,
    Side,
    boundary_exposure,
    shared_edge,
)


@pytest.fixture(scope="module")
def quad() -> AdjacencyMap:
    """2x2 grid of unit blocks: a, b on the bottom; c, d on top."""
    plan = Floorplan(
        [
            Block("a", Rect(0.0, 0.0, 1.0, 1.0)),
            Block("b", Rect(1.0, 0.0, 1.0, 1.0)),
            Block("c", Rect(0.0, 1.0, 1.0, 1.0)),
            Block("d", Rect(1.0, 1.0, 1.0, 1.0)),
        ]
    )
    return AdjacencyMap(plan)


class TestInterfaces:
    def test_quad_has_four_interfaces(self, quad):
        # a-b, a-c, b-d, c-d; diagonals (a-d, b-c) touch only at the corner.
        pairs = {frozenset((i.block_a, i.block_b)) for i in quad.interfaces}
        assert pairs == {
            frozenset(("a", "b")),
            frozenset(("a", "c")),
            frozenset(("b", "d")),
            frozenset(("c", "d")),
        }

    def test_interface_lengths(self, quad):
        for interface in quad.interfaces:
            assert interface.length == pytest.approx(1.0)

    def test_neighbours(self, quad):
        assert set(quad.neighbours("a")) == {"b", "c"}
        assert set(quad.neighbours("d")) == {"b", "c"}

    def test_interface_between(self, quad):
        interface = quad.interface_between("a", "b")
        assert interface is not None
        assert interface.other("a") == "b"
        assert interface.other("b") == "a"
        assert quad.interface_between("a", "d") is None

    def test_interface_sides_are_consistent(self, quad):
        interface = quad.interface_between("a", "b")
        assert interface.side_of("a") is Side.EAST
        assert interface.side_of("b") is Side.WEST

    def test_interface_other_rejects_stranger(self, quad):
        interface = quad.interface_between("a", "b")
        with pytest.raises(FloorplanError):
            interface.other("c")

    def test_unknown_block_rejected(self, quad):
        with pytest.raises(FloorplanError):
            quad.interfaces_of("zz")


class TestBoundary:
    def test_corner_blocks_expose_two_sides(self, quad):
        segments = quad.boundary_segments("a")
        sides = {s.side for s in segments}
        assert sides == {Side.SOUTH, Side.WEST}
        assert quad.boundary_length("a") == pytest.approx(2.0)

    def test_fully_tiled(self, quad):
        assert quad.is_fully_tiled()
        for name in ("a", "b", "c", "d"):
            assert quad.unaccounted_perimeter(name) == pytest.approx(0.0)

    def test_unaccounted_perimeter_with_whitespace(self):
        # Two blocks with a gap between them: the facing edges count as
        # unaccounted (adiabatic) perimeter.
        plan = Floorplan(
            [
                Block("a", Rect(0.0, 0.0, 1.0, 1.0)),
                Block("b", Rect(2.0, 0.0, 1.0, 1.0)),
            ],
            outline=Rect(0.0, 0.0, 3.0, 1.0),
        )
        amap = AdjacencyMap(plan)
        assert not amap.is_fully_tiled()
        assert amap.unaccounted_perimeter("a") == pytest.approx(1.0)
        assert amap.neighbours("a") == ()


class TestGridAdjacency:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (3, 3), (4, 6)])
    def test_grid_interface_count(self, rows, cols):
        amap = AdjacencyMap(grid_floorplan(rows, cols))
        expected = rows * (cols - 1) + cols * (rows - 1)
        assert len(amap.interfaces) == expected

    def test_grid_graph_is_connected(self):
        graph = adjacency_graph(AdjacencyMap(grid_floorplan(4, 4)))
        assert nx.is_connected(graph)

    def test_grid_corner_interior_degrees(self):
        graph = adjacency_graph(AdjacencyMap(grid_floorplan(3, 3)))
        degrees = dict(graph.degree())
        assert degrees["C0_0"] == 2  # corner
        assert degrees["C0_1"] == 3  # edge
        assert degrees["C1_1"] == 4  # centre


class TestAdjacencyGraphView:
    def test_nodes_carry_area(self, quad):
        graph = adjacency_graph(quad)
        assert graph.nodes["a"]["area"] == pytest.approx(1.0)

    def test_edges_carry_length(self, quad):
        graph = adjacency_graph(quad)
        assert graph.edges["a", "b"]["length"] == pytest.approx(1.0)


class TestPaperLayouts:
    def test_alpha15_is_fully_tiled(self, alpha15_floorplan):
        amap = AdjacencyMap(alpha15_floorplan)
        assert amap.is_fully_tiled()

    def test_alpha15_graph_connected(self, alpha15_floorplan):
        graph = adjacency_graph(AdjacencyMap(alpha15_floorplan))
        assert nx.is_connected(graph)
        assert graph.number_of_nodes() == 15

    def test_alpha15_l2_spans_south_edge(self, alpha15_floorplan):
        amap = AdjacencyMap(alpha15_floorplan)
        south = [
            s for s in amap.boundary_segments("L2") if s.side is Side.SOUTH
        ]
        assert len(south) == 1
        assert south[0].length == pytest.approx(16e-3)

    def test_worked_example_adjacency_matches_figure3(
        self, worked_example_floorplan
    ):
        """The paper's Figure 3 resistance list, as adjacency facts."""
        amap = AdjacencyMap(worked_example_floorplan)
        assert set(amap.neighbours("B2")) >= {"B1", "B3"}  # R_1,2 and R_2,3
        assert set(amap.neighbours("B4")) >= {"B1", "B5"}  # R_1,4 and R_4,5
        assert set(amap.neighbours("B5")) >= {"B3", "B4", "B6"}
        # Boundary exposures named in Figure 3: B2 north, B4 west+south,
        # B5 south.
        assert Side.NORTH in {s.side for s in amap.boundary_segments("B2")}
        b4_sides = {s.side for s in amap.boundary_segments("B4")}
        assert {Side.WEST, Side.SOUTH} <= b4_sides
        assert Side.SOUTH in {s.side for s in amap.boundary_segments("B5")}

    def test_hypothetical7_hot_cluster_adjacent_cool_isolated(
        self, hypothetical7_floorplan
    ):
        amap = AdjacencyMap(hypothetical7_floorplan)
        # Hot cluster: C2-C3 and C3-C4 touch.
        assert "C3" in amap.neighbours("C2")
        assert "C4" in amap.neighbours("C3")
        # Cool cores are mutually isolated.
        for core in ("C5", "C6", "C7"):
            assert set(amap.neighbours(core)).isdisjoint({"C5", "C6", "C7"} - {core})


# -- the sweep against an all-pairs reference ---------------------------------


def reference_adjacency(
    floorplan: Floorplan, tol: float
) -> tuple[list[Interface], dict[str, list[Interface]]]:
    """Interfaces by testing every block pair in ``(i, j)`` index order."""
    interfaces: list[Interface] = []
    by_block: dict[str, list[Interface]] = {b.name: [] for b in floorplan}
    for a, b in itertools.combinations(floorplan.blocks, 2):
        edge = shared_edge(a.rect, b.rect, tol)
        if edge is None:
            continue
        side_of_a, length = edge
        first, second = sorted((a.name, b.name))
        side = side_of_a if first == a.name else side_of_a.opposite
        interface = Interface(first, second, side, length)
        interfaces.append(interface)
        by_block[a.name].append(interface)
        by_block[b.name].append(interface)
    return interfaces, by_block


def reference_first_overlap(blocks: list[Block]) -> tuple[str, str] | None:
    for a, b in itertools.combinations(blocks, 2):
        if a.rect.overlaps(b.rect):
            return a.name, b.name
    return None


def jittered(floorplan: Floorplan, seed: int) -> Floorplan:
    """Every block shifted by under half of ``GEOM_TOL`` (the most the
    overlap check allows): seams no longer coincide exactly, which puts
    the sweep's window edge to the test.  The outline grows by
    ``GEOM_TOL`` so every shifted block stays inside it."""
    rng = random.Random(seed)
    blocks = [
        Block(
            b.name,
            b.rect.translated(
                rng.uniform(-0.45, 0.45) * GEOM_TOL,
                rng.uniform(-0.45, 0.45) * GEOM_TOL,
            ),
        )
        for b in floorplan
    ]
    o = floorplan.outline
    outline = Rect(
        o.x - GEOM_TOL, o.y - GEOM_TOL, o.width + 2 * GEOM_TOL, o.height + 2 * GEOM_TOL
    )
    return Floorplan(blocks, name=floorplan.name, outline=outline)


@st.composite
def floorplans(draw: st.DrawFn) -> Floorplan:
    kind = draw(st.sampled_from(["slicing", "grid", "whitespace"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if kind == "grid":
        plan = grid_floorplan(
            draw(st.integers(min_value=1, max_value=7)),
            draw(st.integers(min_value=1, max_value=7)),
        )
    else:
        plan = slicing_floorplan(
            draw(st.integers(min_value=2, max_value=30)), seed=seed
        )
    if kind == "whitespace":
        # Drop some blocks; the outline stays, so the rest no longer tile it.
        names = list(plan.block_names)
        random.Random(seed).shuffle(names)
        keep = draw(st.integers(min_value=1, max_value=len(names) - 1))
        plan = plan.subset(names[:keep])
    return plan


class TestSweepMatchesAllPairs:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        plan=floorplans(),
        tol=st.sampled_from([GEOM_TOL, 1e-3]),
        jitter_seed=st.one_of(st.none(), st.integers(0, 10_000)),
    )
    def test_interfaces_and_boundaries_equal_reference(
        self, plan, tol, jitter_seed
    ):
        if jitter_seed is not None:
            plan = jittered(plan, jitter_seed)
        amap = AdjacencyMap(plan, tol)
        interfaces, by_block = reference_adjacency(plan, tol)
        # Order included: the thermal builder's parallel() sums follow it.
        assert list(amap.interfaces) == interfaces
        for block in plan:
            assert list(amap.interfaces_of(block.name)) == by_block[block.name]
            expected_segments = [
                BoundarySegment(block.name, side, length)
                for side, length in boundary_exposure(
                    block.rect, plan.outline, tol
                ).items()
            ]
            assert list(amap.boundary_segments(block.name)) == expected_segments

    def test_whitespace_floorplan_with_loose_tolerance(self):
        # A gap narrower than the loose tolerance counts as a seam, a gap
        # wider than it does not — the same decision shared_edge makes.
        plan = Floorplan(
            [
                Block("a", Rect(0.0, 0.0, 4e-3, 4e-3)),
                Block("b", Rect(4.5e-3, 0.0, 4e-3, 4e-3)),
                Block("c", Rect(0.0, 6e-3, 4e-3, 4e-3)),
            ],
            outline=Rect(0.0, 0.0, 10e-3, 10e-3),
        )
        amap = AdjacencyMap(plan, 1e-3)
        assert list(amap.interfaces) == reference_adjacency(plan, 1e-3)[0]
        assert amap.neighbours("a") == ("b",)
        assert amap.neighbours("c") == ()

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        plan=floorplans(),
        data=st.data(),
    )
    def test_overlap_error_names_the_reference_pair(self, plan, data):
        blocks = list(plan.blocks)
        outline = plan.outline
        # An intruder strictly inside the die, at least 0.5 mm on a side,
        # so it overlaps at least one block unless it sits in white space.
        x = data.draw(st.floats(0.0, outline.width - 5e-4))
        y = data.draw(st.floats(0.0, outline.height - 5e-4))
        width = data.draw(st.floats(5e-4, outline.width - x))
        height = data.draw(st.floats(5e-4, outline.height - y))
        intruder = Block("intruder", Rect(outline.x + x, outline.y + y, width, height))
        blocks.insert(data.draw(st.integers(0, len(blocks))), intruder)
        expected = reference_first_overlap(blocks)
        if expected is None:
            Floorplan(blocks, outline=outline)
            return
        message = f"blocks {expected[0]!r} and {expected[1]!r} overlap"
        with pytest.raises(FloorplanError, match=re.escape(message)):
            Floorplan(blocks, outline=outline)
