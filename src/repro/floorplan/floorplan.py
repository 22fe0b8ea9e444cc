"""Floorplan: a named collection of non-overlapping blocks on a die.

A :class:`Floorplan` is the geometric substrate of every experiment in
the paper: the thermal RC network (``repro.thermal``), the test-session
thermal model (``repro.core.session_model``) and the figures' example
layouts are all derived from one.

The class is deliberately immutable after construction; the validator
runs once in ``__init__`` and every consumer can then rely on:

* block names are unique and non-empty;
* all blocks lie inside the die outline;
* no two blocks overlap (edge contact is allowed and is what defines
  thermal adjacency);
* coverage statistics are available (a floorplan need not tile the die
  completely, but the built-in layouts do, and the validator can be
  asked to enforce it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

from ..errors import FloorplanError, GeometryError
from .geometry import GEOM_TOL, Rect, bounding_box, near_pairs, total_area


@dataclass(frozen=True)
class Block:
    """A named floorplan block (one core / architectural unit).

    Attributes
    ----------
    name:
        Unique identifier within a floorplan (e.g. ``"Icache"``).
    rect:
        Block geometry in metres, HotSpot convention (left-bottom origin).
    """

    name: str
    rect: Rect

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise FloorplanError("block name must be a non-empty string")
        if any(ch.isspace() for ch in self.name):
            raise FloorplanError(
                f"block name {self.name!r} must not contain whitespace "
                f"(HotSpot .flp compatibility)"
            )

    @property
    def area(self) -> float:
        """Block area in square metres."""
        return self.rect.area

    def power_density(self, power_w: float) -> float:
        """Power density (W/m^2) of this block dissipating *power_w* watts."""
        return power_w / self.rect.area


class Floorplan:
    """An immutable, validated die floorplan.

    Parameters
    ----------
    blocks:
        The floorplan blocks.  Order is preserved and defines the
        canonical block indexing used by the thermal solver.
    name:
        Human-readable floorplan name (used in reports).
    outline:
        Die outline rectangle.  Defaults to the bounding box of the
        blocks anchored at their minimum corner.
    require_full_coverage:
        When true, the blocks must tile the outline exactly (within
        tolerance); the built-in Alpha-like floorplan satisfies this.

    Raises
    ------
    FloorplanError
        On duplicate names, out-of-outline blocks, overlapping blocks,
        or (when requested) incomplete coverage.
    """

    def __init__(
        self,
        blocks: list[Block],
        name: str = "floorplan",
        outline: Rect | None = None,
        require_full_coverage: bool = False,
    ) -> None:
        if not blocks:
            raise FloorplanError("a floorplan must contain at least one block")
        self._name = name
        self._blocks: tuple[Block, ...] = tuple(blocks)
        self._index: dict[str, int] = {}
        for i, block in enumerate(self._blocks):
            if block.name in self._index:
                raise FloorplanError(f"duplicate block name: {block.name!r}")
            self._index[block.name] = i

        rects = [b.rect for b in self._blocks]
        self._outline = outline if outline is not None else bounding_box(rects)

        for block in self._blocks:
            if not self._outline.contains_rect(block.rect):
                raise FloorplanError(
                    f"block {block.name!r} ({block.rect!r}) extends outside the "
                    f"die outline {self._outline!r}"
                )

        self._check_no_overlap()

        self._blocks_area = total_area(rects)
        coverage = self._blocks_area / self._outline.area
        if require_full_coverage and not math.isclose(coverage, 1.0, rel_tol=1e-6):
            raise FloorplanError(
                f"floorplan {name!r} covers only {coverage:.6f} of the die outline "
                f"but full coverage was required"
            )
        self._coverage = coverage

    def _check_no_overlap(self) -> None:
        """Reject interior overlaps between any pair of blocks.

        Only the pairs a sweep finds near each other are tested
        (:func:`~repro.floorplan.geometry.near_pairs`), in ``(i, j)``
        block-index order, so the first overlapping pair reported is the
        one an all-pairs scan would report.
        """
        for i, j in near_pairs([block.rect for block in self._blocks]):
            a, b = self._blocks[i], self._blocks[j]
            if a.rect.overlaps(b.rect):
                overlap = a.rect.overlap_area(b.rect)
                raise FloorplanError(
                    f"blocks {a.name!r} and {b.name!r} overlap "
                    f"(intersection area {overlap:.3e} m^2)"
                )

    # -- identity & iteration --------------------------------------------------

    @property
    def name(self) -> str:
        """Floorplan name."""
        return self._name

    @property
    def outline(self) -> Rect:
        """Die outline rectangle."""
        return self._outline

    @property
    def blocks(self) -> tuple[Block, ...]:
        """All blocks in canonical order."""
        return self._blocks

    @property
    def block_names(self) -> tuple[str, ...]:
        """Block names in canonical order."""
        return tuple(b.name for b in self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Block:
        try:
            return self._blocks[self._index[name]]
        except KeyError:
            raise FloorplanError(
                f"floorplan {self._name!r} has no block named {name!r}; "
                f"known blocks: {', '.join(self._index)}"
            ) from None

    def __repr__(self) -> str:
        return (
            f"Floorplan({self._name!r}, {len(self._blocks)} blocks, "
            f"die {self._outline.width * 1e3:.2f}x{self._outline.height * 1e3:.2f} mm)"
        )

    def index_of(self, name: str) -> int:
        """Canonical index of the named block (solver node ordering)."""
        try:
            return self._index[name]
        except KeyError:
            raise FloorplanError(
                f"floorplan {self._name!r} has no block named {name!r}"
            ) from None

    # -- derived metrics ---------------------------------------------------------

    @property
    def die_area(self) -> float:
        """Area of the die outline in square metres."""
        return self._outline.area

    @property
    def blocks_area(self) -> float:
        """Total area of all blocks in square metres."""
        return self._blocks_area

    @property
    def coverage(self) -> float:
        """Fraction of the die outline covered by blocks (0..1]."""
        return self._coverage

    def areas(self) -> Mapping[str, float]:
        """Mapping block name -> area (m^2)."""
        return {b.name: b.area for b in self._blocks}

    def area_ratio(self) -> float:
        """Largest block area divided by smallest block area.

        The paper's motivational argument rests on large power-density
        spread, which (for equal powers) equals the area spread; this
        metric quantifies it for a layout.
        """
        areas = [b.area for b in self._blocks]
        return max(areas) / min(areas)

    # -- transformation ------------------------------------------------------------

    def scaled(self, factor: float) -> "Floorplan":
        """A geometrically scaled copy (lengths multiplied by *factor*)."""
        if factor <= 0.0:
            raise GeometryError(f"scale factor must be positive, got {factor!r}")
        return Floorplan(
            [Block(b.name, b.rect.scaled(factor)) for b in self._blocks],
            name=self._name,
            outline=self._outline.scaled(factor),
        )

    def subset(self, names: list[str], name: str | None = None) -> "Floorplan":
        """A floorplan containing only the named blocks (same outline).

        Useful for didactic examples and tests; adjacency and boundary
        exposure are recomputed for the subset.
        """
        missing = [n for n in names if n not in self._index]
        if missing:
            raise FloorplanError(f"unknown blocks in subset: {missing}")
        picked = [self[n] for n in names]
        return Floorplan(
            picked,
            name=name if name is not None else f"{self._name}-subset",
            outline=self._outline,
        )

    # -- pretty printing --------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line human-readable summary of the floorplan."""
        lines = [
            f"Floorplan {self._name!r}: {len(self)} blocks, "
            f"die {self._outline.width * 1e3:.3f} x {self._outline.height * 1e3:.3f} mm, "
            f"coverage {self._coverage * 100.0:.1f}%",
        ]
        widest = max(len(b.name) for b in self._blocks)
        for block in self._blocks:
            r = block.rect
            lines.append(
                f"  {block.name:<{widest}}  "
                f"{r.width * 1e3:7.3f} x {r.height * 1e3:7.3f} mm "
                f"at ({r.x * 1e3:7.3f}, {r.y * 1e3:7.3f}) mm  "
                f"area {r.area * 1e6:8.3f} mm^2"
            )
        return "\n".join(lines)


def floorplan_from_rects(
    rects: Mapping[str, Rect],
    name: str = "floorplan",
    outline: Rect | None = None,
    require_full_coverage: bool = False,
) -> Floorplan:
    """Convenience constructor from a ``{name: Rect}`` mapping."""
    blocks = [Block(block_name, rect) for block_name, rect in rects.items()]
    return Floorplan(
        blocks, name=name, outline=outline, require_full_coverage=require_full_coverage
    )
