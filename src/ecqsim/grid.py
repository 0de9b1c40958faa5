"""Grid world: floor-plan parsing, pathfinding, and line of sight.

The floor plan is a rectangular grid of cells.  A cell is a wall, plain
floor, or floor carrying a location label (dining area, resident room,
nurse station...).  Labels have a role: where residents live, where
nurses idle, or where appointments happen.

All queries are pure functions of the map.  Each open cell's open
neighbours are listed once, at construction, in the fixed up, right,
down, left order.  Path queries read a breadth-first distance field per
target cell or label.  A field grows level by level over that neighbour
table only until the queried origin has a distance, and keeps its
frontier so a later, farther query resumes where the last one stopped.
Every cell closer to the target than the origin then holds its exact
distance, which is all a shortest-path step reads, so the partial fields
never change observable results.  A step walks the same neighbour table
to the first neighbour one level closer, so ties break in that fixed
order.  A query whose distance is already known reads the cached field
directly; every other query goes through one method that creates or
grows the field and raises MapError when the origin is cut off from the
target.  MapError is the one error type, for bad plans and bad queries.
The cell queries (``distance``, ``step_toward_cell``) check that both
ends are on the map; the label queries do not, as their origins are
always agent positions.

Four shortcuts return the same answers with less work.  A field holds
shorts (``array('h')``) on maps of up to 32,767 cells, where no
distance can exceed one, and ints otherwise.  A step toward a cell
first asks a table of wall counts whether the rectangle spanned by the
two cells holds no wall; if so the distance is the Manhattan one, and
as the grid is bipartite every neighbour is one step nearer or farther,
so the first neighbour in the fixed order that moves toward the target
is the one the descent picks, found in O(1).  Otherwise, unless the
target's field already reaches the origin, a step toward a cell
descends toward a gate instead: the first cut vertex ``g``, other than
the origin ``n``, on the block-cut tree path from ``n`` to the target
``t`` (Hopcroft & Tarjan, "Efficient algorithms for graph
manipulation", CACM 1973).  As ``g`` separates ``n`` from ``t``, each
neighbour ``j`` of ``n`` on the way has ``d(j, t) = d(j, g) + d(g, t)``,
and a neighbour in a block off the way is one step farther from both,
so the first neighbour one step closer to ``g`` is the first one step
closer to ``t``.  That holds for any cut vertex on the path; the first
is taken because its field is the smallest and every target behind the
same door shares it.  The tree is built by the first step that needs
it, and the gate is memoized per pair of tree nodes.  A step toward a
label is memoized per (label, cell): the cells it reads are settled, so
its answer never changes.  Pickling drops the fields, the tree and both
memos.
"""

from __future__ import annotations

import re
from array import array
from typing import Iterator, NamedTuple

WALL = "#"
FLOOR = "."
COMMENT = ";"

ROLE_PWD_HOME = "pwd_home"
ROLE_NURSE_BASE = "nurse_base"
ROLE_APPOINTMENT_SITE = "appointment_site"
ROLES = (ROLE_PWD_HOME, ROLE_NURSE_BASE, ROLE_APPOINTMENT_SITE)

_LABEL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")


class MapError(ValueError):
    """A floor plan is invalid, or a queried position is off it or cut off."""


class Position(NamedTuple):
    x: int
    y: int


class GridMap:
    """Immutable 2-D orthogonal grid with labeled locations.

    ``cells`` is row-major; each entry is ``WALL``, ``FLOOR``, or a label
    string.  :func:`parse_map` checks the legend and the text, and
    construction checks placement and connectivity; after that instances
    are safe to share between concurrent runs.
    """

    def __init__(self, width: int, height: int, cells: list[str], roles: dict[str, str]):
        self.width = width
        self.height = height
        self.cells = tuple(cells)
        self.roles = dict(roles)

        # One shared Position per cell, row-major.
        self._positions = tuple(Position(i % width, i // width)
                                for i in range(width * height))
        locations: dict[str, list[Position]] = {}
        for i, cell in enumerate(self.cells):
            if cell != WALL and cell != FLOOR:
                locations.setdefault(cell, []).append(self._positions[i])
        self.locations: dict[str, tuple[Position, ...]] = {
            label: tuple(cells_) for label, cells_ in locations.items()
        }
        # The placed labels of each role, sorted.
        self._role_labels = {role: tuple(sorted(
            label for label in locations if self.roles.get(label) == role)) for role in ROLES}

        # Traversability flags, row-major.
        self._open = bytes(0 if c == WALL else 1 for c in self.cells)
        # Open neighbours of each open cell in up, right, down, left
        # order; walls have none.
        self._nbrs = self._neighbour_table()
        # No distance reaches the cell count, so a field's distances fit
        # a short on maps of up to 32,767 cells.
        self._typecode = "h" if width * height <= 32_767 else "i"
        self._validate()

        # Resumable distance fields keyed by target cell index or label:
        # [dist, frontier, level], see _bfs.
        self._fields: dict[int | str, list] = {}
        # Memoized label steps: per label, the step from each cell index.
        self._label_steps: dict[str, list] = {}
        # Wall counts of the rectangles anchored at (0, 0), built by the
        # first cell step; see _walls_between.
        self._wall_sums: array | None = None
        # The block-cut tree, built by the first walled cell step that
        # needs it, and the gate memoized per pair of tree nodes; see
        # _gate.
        self._tree: tuple | None = None
        self._gates: dict[int, int] = {}

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        for label, role in self.roles.items():
            placed = self.locations.get(label, ())
            if role == ROLE_PWD_HOME:
                if not placed:
                    raise MapError(f"pwd_home label {label!r} is not on the map")
                if len(placed) != 1:
                    raise MapError(
                        f"pwd_home label {label!r} must cover exactly one cell, found {len(placed)}")
        labeled = [p for cells_ in self.locations.values() for p in cells_]
        if labeled:
            field = self._new_field([labeled[0].y * self.width + labeled[0].x])
            for p in labeled:
                if self._bfs(field, p.y * self.width + p.x) < 0:
                    raise MapError(
                        f"labeled cell at ({p.x},{p.y}) is unreachable from other labeled cells")

    # -- basic queries -------------------------------------------------

    def in_bounds(self, pos: Position) -> bool:
        return 0 <= pos.x < self.width and 0 <= pos.y < self.height

    def labels_with_role(self, role: str) -> tuple[str, ...]:
        return self._role_labels[role]

    # -- distance fields -----------------------------------------------

    def _neighbour_table(self) -> tuple[tuple[int, ...], ...]:
        w = self.width
        size = w * self.height
        passable = self._open
        table = []
        for i in range(size):
            if not passable[i]:
                table.append(())
                continue
            x = i % w
            nbrs = []
            if i >= w and passable[i - w]:
                nbrs.append(i - w)
            if x + 1 < w and passable[i + 1]:
                nbrs.append(i + 1)
            if i + w < size and passable[i + w]:
                nbrs.append(i + w)
            if x > 0 and passable[i - 1]:
                nbrs.append(i - 1)
            table.append(tuple(nbrs))
        return tuple(table)

    def _new_field(self, sources: list[int]) -> list:
        dist = array(self._typecode, [-1]) * (self.width * self.height)
        frontier = [s for s in sources if self._open[s]]
        for s in frontier:
            dist[s] = 0
        return [dist, frontier, 0]

    def _bfs(self, field: list, stop: int) -> int:
        """Grow ``field`` level by level until cell ``stop`` has a distance.

        ``field`` is ``[dist, frontier, level]``: every cell within
        ``level`` steps of the sources holds its exact distance, the
        rest -1, and ``frontier`` lists the cells at ``level``.  Returns
        the distance of ``stop``, -1 once the frontier runs out first.
        """
        dist, frontier, level = field
        nbrs = self._nbrs
        while dist[stop] < 0 and frontier:
            level += 1
            grown = []
            for i in frontier:
                for j in nbrs[i]:
                    if dist[j] < 0:
                        dist[j] = level
                        grown.append(j)
            frontier = grown
        field[1] = frontier
        field[2] = level
        return dist[stop]

    def _field(self, key: int | str, i: int) -> list:
        """The field toward cell index or label ``key``, grown to cell ``i``.

        Every query whose distance is not yet known comes here; a hit
        reads the cached field directly.  Raises MapError, naming both
        ends, when ``i`` is cut off.
        """
        field = self._fields.get(key)
        if field is None:
            sources = [key] if isinstance(key, int) else \
                [p.y * self.width + p.x for p in self.locations[key]]
            field = self._fields[key] = self._new_field(sources)
        if self._bfs(field, i) < 0:
            w = self.width
            to = f"label {key!r}" if isinstance(key, str) else f"({key % w},{key // w})"
            raise MapError(f"no path from ({i % w},{i // w}) to {to}")
        return field

    def _descend(self, key: int | str, pos: Position) -> Position:
        x, y = pos
        i = y * self.width + x
        field = self._fields.get(key)
        if field is None or field[0][i] < 0:
            field = self._field(key, i)
        dist = field[0]
        d = dist[i]
        if d == 0:
            return pos
        d -= 1
        # Neighbours come in the fixed up, right, down, left order, so
        # replays are byte-identical.  One a step closer than ``pos``
        # already holds its final distance, however far the field grew.
        for j in self._nbrs[i]:
            if dist[j] == d:
                return self._positions[j]
        raise AssertionError("BFS field has no descent neighbor")  # pragma: no cover

    def _distance(self, key: int | str, pos: Position) -> int:
        i = pos.y * self.width + pos.x
        field = self._fields.get(key)
        if field is None or field[0][i] < 0:
            field = self._field(key, i)
        return field[0][i]

    def _check_on_map(self, *positions: Position) -> None:
        for pos in positions:
            if not self.in_bounds(pos):
                raise MapError(f"position {pos} out of bounds")

    def distance(self, origin: Position, target: Position) -> int:
        """Shortest 4-connected path length in steps; MapError if none."""
        self._check_on_map(origin, target)
        return self._distance(target.y * self.width + target.x, origin)

    def label_distance(self, origin: Position, label: str) -> int:
        """Steps to the nearest cell carrying ``label``."""
        return self._distance(label, origin)

    def _walls_between(self, x0: int, y0: int, x1: int, y1: int) -> int:
        """Walls in the rectangle with corners (x0, y0) and (x1, y1), inclusive."""
        sums = self._wall_sums
        stride = self.width + 1
        if sums is None:
            # sums[y * stride + x] counts the walls left of x and above y.
            sums = array("i", [0]) * (stride * (self.height + 1))
            passable = self._open
            for y in range(self.height):
                row = 0
                for x in range(self.width):
                    row += not passable[y * self.width + x]
                    k = (y + 1) * stride + x + 1
                    sums[k] = sums[k - stride] + row
            self._wall_sums = sums
        if x0 > x1:
            x0, x1 = x1, x0
        if y0 > y1:
            y0, y1 = y1, y0
        top, bottom = y0 * stride, (y1 + 1) * stride
        return (sums[bottom + x1 + 1] - sums[top + x1 + 1]
                - sums[bottom + x0] + sums[top + x0])

    def _block_cut_tree(self) -> tuple:
        """The block-cut tree of the open cells (Hopcroft & Tarjan, 1973).

        Returns ``(node, parent, cut)``: the tree node of each cell (its
        own node if it is a cut vertex, else its one block; -1 for a
        wall), and per node its parent (-1 at a component's root) and its
        cut vertex's cell (-1 for a block).
        """
        nbrs = self._nbrs
        size = len(nbrs)
        disc = [-1] * size
        low = [0] * size
        blocks = []  # each [head, cells below it...], children first
        clock = 0
        for root in range(size):
            if disc[root] >= 0 or not self._open[root]:
                continue
            disc[root] = clock
            clock += 1
            stack = [root]
            work = [(root, iter(nbrs[root]), 0)]
            while work:
                v, todo, _ = work[-1]
                for j in todo:
                    if disc[j] < 0:
                        disc[j] = low[j] = clock
                        clock += 1
                        work.append((j, iter(nbrs[j]), len(stack)))
                        stack.append(j)
                        break
                    # A tree edge back to the parent counts too: it lowers
                    # low[v] to disc[parent] at most, which the test
                    # below allows.
                    if disc[j] < low[v]:
                        low[v] = disc[j]
                else:
                    _, _, at = work.pop()
                    if work:
                        u = work[-1][0]
                        if low[v] < low[u]:
                            low[u] = low[v]
                        if low[v] >= disc[u]:
                            blocks.append([u] + stack[at:])
                            del stack[at:]
            if not nbrs[root]:
                blocks.append([root])
        blocks_of = [0] * size
        for block in blocks:
            for i in block:
                blocks_of[i] += 1
        # Blocks are nodes 0 .. len(blocks) - 1; cut vertices follow.
        node = [-1] * size
        parent = [-1] * len(blocks)
        cut = [-1] * len(blocks)
        # Blocks come children first, so going back a cut vertex is met
        # first in its parent block, where it is not the head, unless it
        # is its component's root.
        for k in range(len(blocks) - 1, -1, -1):
            head = blocks[k][0]
            for i in blocks[k]:
                if blocks_of[i] == 1:
                    node[i] = k
                elif node[i] < 0:
                    node[i] = len(cut)
                    parent.append(-1 if i == head else k)
                    cut.append(i)
            if blocks_of[head] > 1:
                parent[k] = node[head]
        return node, parent, cut

    def _gate(self, i: int, t: int) -> int:
        """The first cut vertex other than cell ``i`` on its way to cell ``t``.

        It lies on the block-cut tree path from ``i``'s node to ``t``'s;
        -1 when there is none, or when the two lie in different
        components.  Memoized per pair of tree nodes.
        """
        if self._tree is None:
            self._tree = self._block_cut_tree()
        node, parent, cut = self._tree
        a, b = node[i], node[t]
        if a < 0 or b < 0:
            return -1
        key = a * len(cut) + b
        gate = self._gates.get(key)
        if gate is None:
            up, down = [a], [b]
            for chain in (up, down):
                while parent[chain[-1]] >= 0:
                    chain.append(parent[chain[-1]])
            gate = -1
            if up[-1] == down[-1]:  # else two components
                while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
                    up.pop()
                    down.pop()
                # The path runs up to the common node and down to b.
                # Blocks and cut vertices alternate on it, so the first
                # cut vertex after the origin's node is one of the next two.
                for k in (up + down[-2::-1])[1:3]:
                    if cut[k] >= 0:
                        gate = cut[k]
                        break
            self._gates[key] = gate
        return gate

    def step_toward_cell(self, pos: Position, target: Position) -> Position:
        """One step along a shortest path to ``target`` (stays put on arrival)."""
        x, y = pos
        tx, ty = target
        w = self.width
        # The bounds test is inline on this hot path; the call names the
        # end that is off the map.
        if not (0 <= x < w and 0 <= tx < w and 0 <= y < self.height and 0 <= ty < self.height):
            self._check_on_map(pos, target)
        i = y * w + x
        if self._walls_between(x, y, tx, ty) == 0:
            # Open floor: the distance is the Manhattan one, and the first
            # neighbour in up, right, down, left order that moves toward
            # the target is the one a descent picks.
            if ty < y:
                return self._positions[i - w]
            if tx > x:
                return self._positions[i + 1]
            if ty > y:
                return self._positions[i + w]
            if tx < x:
                return self._positions[i - 1]
            return pos
        t = ty * w + tx
        field = self._fields.get(t)
        if field is None or field[0][i] < 0:
            # The target's field is cold here: a descent toward the first
            # cut vertex on the way picks the same neighbour.
            gate = self._gate(i, t)
            if gate >= 0:
                return self._descend(gate, pos)
        return self._descend(t, pos)

    def step_toward_label(self, pos: Position, label: str) -> Position:
        # A step's answer never changes: the cells it reads are settled.
        try:
            steps = self._label_steps[label]
        except KeyError:
            steps = self._label_steps[label] = [None] * (self.width * self.height)
        i = pos.y * self.width + pos.x
        step = steps[i]
        if step is None:
            step = steps[i] = self._descend(label, pos)
        return step

    def at_label(self, pos: Position, label: str) -> bool:
        return self.cells[pos.y * self.width + pos.x] == label

    # -- pickling (drop fields, steps and the tree: pure accelerators) ---

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_fields"] = {}
        state["_label_steps"] = {}
        state["_tree"] = None
        state["_gates"] = {}
        return state


# -- parsing -----------------------------------------------------------


def parse_map(text: str, legend: dict[str, tuple[str, str]] | None = None) -> GridMap:
    """Parse a plain-text floor plan.

    Reserved glyphs: ``#`` wall, ``.`` floor; lines starting with ``;``
    are comments.  Every other glyph must appear in ``legend`` as
    ``glyph -> (label, role)``.
    """
    legend = legend or {}
    seen: set[str] = set()
    for glyph, (label, role) in legend.items():
        if len(glyph) != 1 or glyph in (WALL, FLOOR, COMMENT) or glyph.isspace():
            raise MapError(f"invalid legend glyph {glyph!r}")
        if not _LABEL_RE.match(label):
            raise MapError(f"invalid label {label!r}")
        if role not in ROLES:
            raise MapError(f"unknown role {role!r} for glyph {glyph!r}")
        if label in seen:
            raise MapError(f"label {label!r} mapped from two glyphs")
        seen.add(label)

    lines = [line for line in text.splitlines()
             if line and not line.startswith(COMMENT)]
    if not lines:
        raise MapError("map has no grid lines")
    width = len(lines[0])
    for line in lines:
        if len(line) != width:
            raise MapError(
                f"line length {len(line)} differs from first line length {width}")

    cells: list[str] = []
    roles: dict[str, str] = {}
    for line in lines:
        for ch in line:
            if ch == WALL or ch == FLOOR:
                cells.append(ch)
            elif ch in legend:
                label, role = legend[ch]
                cells.append(label)
                roles[label] = role
            else:
                raise MapError(f"glyph {ch!r} not in legend or reserved set")

    # Declared labels keep their role even when unplaced; GridMap checks
    # that every pwd_home is placed.
    for label, role in legend.values():
        roles.setdefault(label, role)

    return GridMap(width, len(lines), cells, roles)


# -- perception --------------------------------------------------------


def ray_cells(a: Position, b: Position) -> Iterator[Position]:
    """Cells crossed by the discrete ray between the centers of a and b.

    Integer line stepping; whenever the ray advances diagonally, both
    flanking cells are reported as crossed, so corner grazing counts as
    contact (conservative perception).
    """
    x, y = a.x, a.y
    dx = abs(b.x - a.x)
    dy = abs(b.y - a.y)
    sx = 1 if b.x >= a.x else -1
    sy = 1 if b.y >= a.y else -1
    err = dx - dy
    yield Position(x, y)
    while x != b.x or y != b.y:
        e2 = 2 * err
        step_x = e2 > -dy and x != b.x
        step_y = e2 < dx and y != b.y
        if step_x and step_y:
            yield Position(x + sx, y)
            yield Position(x, y + sy)
            x += sx
            y += sy
            err += dx - dy
        elif step_x:
            x += sx
            err -= dy
        else:
            y += sy
            err += dx
        yield Position(x, y)


def line_of_sight(grid: GridMap, a: Position, b: Position, radius: float) -> bool:
    """True iff b is within Euclidean ``radius`` of a and no wall blocks the ray."""
    grid._check_on_map(a, b)
    dx = b.x - a.x
    dy = b.y - a.y
    if dx * dx + dy * dy > radius * radius:
        return False
    cells = grid.cells
    w = grid.width
    for pos in ray_cells(a, b):
        if cells[pos.y * w + pos.x] == WALL:
            return False
    return True
