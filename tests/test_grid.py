import pickle
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bfs_oracle, demo_scenario_path, is_open, shortest_path

from ecqsim.grid import MapError, Position, line_of_sight, parse_map, ray_cells
from ecqsim.scenario import load_scenario


def random_map(rng, width=20, height=20, wall_share=0.2):
    text = "\n".join(
        "".join("#" if rng.random() < wall_share else "." for _ in range(width))
        for _ in range(height))
    return parse_map(text, {})


# -- parsing ---------------------------------------------------------------

def test_minimal_map():
    grid = parse_map("#.#", {})
    assert (grid.width, grid.height) == (3, 1)
    assert grid.cells == ("#", ".", "#")
    assert grid.locations == {}


def test_legend_passthrough():
    grid = parse_map("#D.#", {"D": ("dining", "appointment_site")})
    assert grid.locations["dining"] == (Position(1, 0),)
    assert grid.roles["dining"] == "appointment_site"


def test_comments_and_ragged():
    grid = parse_map("; floor plan\n###\n#.#\n###\n", {})
    assert grid.height == 3
    with pytest.raises(MapError, match="line length"):
        parse_map("###\n##\n", {})


def test_unknown_glyph():
    with pytest.raises(MapError, match="not in legend"):
        parse_map("#X#", {})


def test_disconnected_labels():
    # Two floor pockets split by a full wall column, labels on both sides.
    text = "#####\n#a#b#\n#####"
    legend = {"a": ("left", "appointment_site"), "b": ("right", "appointment_site")}
    with pytest.raises(MapError, match="unreachable"):
        parse_map(text, legend)


def test_declared_home_absent_and_multiplicity():
    with pytest.raises(MapError, match="pwd_home"):
        parse_map("#.#", {"h": ("home", "pwd_home")})
    with pytest.raises(MapError, match="pwd_home"):
        parse_map("#hh#", {"h": ("home", "pwd_home")})


# -- pathfinding -----------------------------------------------------------

def test_open_room_manhattan():
    grid = parse_map("\n".join("." * 10 for _ in range(10)), {})
    path = shortest_path(grid, Position(0, 0), Position(3, 4))
    assert len(path) - 1 == 7
    assert path[0] == Position(0, 0) and path[-1] == Position(3, 4)
    for a, b in zip(path, path[1:]):
        assert abs(a.x - b.x) + abs(a.y - b.y) == 1
        assert is_open(grid, b)


def test_identity_path():
    grid = parse_map("...", {})
    assert shortest_path(grid, Position(1, 0), Position(1, 0)) == [Position(1, 0)]


def test_unreachable():
    grid = parse_map(".#.", {})
    with pytest.raises(MapError, match="no path"):
        shortest_path(grid, Position(0, 0), Position(2, 0))


def test_paths_match_bfs_oracle_on_random_maps():
    rng = random.Random(1234)
    for _ in range(100):
        grid = random_map(rng)
        cells = [Position(x, y) for y in range(grid.height)
                 for x in range(grid.width) if is_open(grid, Position(x, y))]
        pairs = [(rng.choice(cells), rng.choice(cells)) for _ in range(5)]
        for a, b in pairs:
            expected = bfs_oracle(grid, a, b)
            if expected is None:
                with pytest.raises(MapError, match="no path"):
                    shortest_path(grid, a, b)
            else:
                assert len(shortest_path(grid, a, b)) - 1 == expected


def test_path_symmetry_and_determinism():
    rng = random.Random(77)
    grid = random_map(rng, 15, 15)
    cells = [Position(x, y) for y in range(15) for x in range(15)
             if is_open(grid, Position(x, y))]
    for _ in range(30):
        a, b = rng.choice(cells), rng.choice(cells)
        try:
            forward = shortest_path(grid, a, b)
        except MapError:
            with pytest.raises(MapError, match="no path"):
                shortest_path(grid, b, a)
            continue
        backward = shortest_path(grid, b, a)
        assert len(forward) == len(backward)
        assert shortest_path(grid, a, b) == forward  # replay-stable


def test_distance_fields_match_path_lengths():
    rng = random.Random(5)
    grid = random_map(rng, 12, 12, 0.25)
    cells = [Position(x, y) for y in range(12) for x in range(12)
             if is_open(grid, Position(x, y))]
    for _ in range(20):
        a, b = rng.choice(cells), rng.choice(cells)
        if bfs_oracle(grid, a, b) is not None:
            assert grid.distance(a, b) == len(shortest_path(grid, a, b)) - 1


@st.composite
def pocket_maps(draw):
    """A small map, often cut into pockets, with a label, a target and origins.

    The label's cells share one pocket, as the map loader requires.
    """
    width = draw(st.integers(1, 9))
    height = draw(st.integers(1, 9))
    glyphs = draw(st.lists(st.sampled_from("..#"), min_size=width * height,
                           max_size=width * height))
    open_cells = [(i % width, i // width) for i, g in enumerate(glyphs) if g == "."]
    if not open_cells:
        glyphs[0] = "."
        open_cells = [(0, 0)]

    def text():
        return "\n".join("".join(glyphs[y * width:(y + 1) * width]) for y in range(height))

    plain = parse_map(text(), {})
    anchor = draw(st.sampled_from(open_cells))
    pocket = [c for c in open_cells if bfs_oracle(plain, anchor, c) is not None]
    for x, y in draw(st.lists(st.sampled_from(pocket), min_size=1, max_size=3,
                              unique=True)):
        glyphs[y * width + x] = "L"
    target = draw(st.sampled_from(open_cells))
    origins = draw(st.lists(st.sampled_from(open_cells), min_size=1, max_size=12))
    return text(), target, origins


def oracle_step(dist, pos):
    """First step along a full distance field, up, right, down, left first."""
    x, y = pos
    d = dist[pos]
    if d == 0:
        return Position(x, y)
    for step in ((x, y - 1), (x + 1, y), (x, y + 1), (x - 1, y)):
        if dist.get(step) == d - 1:
            return Position(*step)
    raise AssertionError("no descent neighbour")  # pragma: no cover


def check_resumed_queries(grid, target, origins):
    """Every query answer equals the one a full oracle field gives."""
    cells = [(x, y) for y in range(grid.height) for x in range(grid.width)
             if is_open(grid, Position(x, y))]
    to_cell = {c: bfs_oracle(grid, c, target) for c in cells}
    label_cells = grid.locations["lab"]
    to_label = {c: min((d for d in (bfs_oracle(grid, c, tuple(p)) for p in label_cells)
                        if d is not None), default=None) for c in cells}
    goal = Position(*target)
    for origin in origins:
        pos = Position(*origin)
        if to_cell[origin] is None:
            for query in (grid.distance, grid.step_toward_cell,
                          lambda a, b: shortest_path(grid, a, b)):
                with pytest.raises(MapError, match="no path"):
                    query(pos, goal)
        else:
            assert grid.distance(pos, goal) == to_cell[origin]
            assert grid.step_toward_cell(pos, goal) == oracle_step(to_cell, origin)
            path = [pos]
            while path[-1] != goal:
                path.append(oracle_step(to_cell, tuple(path[-1])))
            assert shortest_path(grid, pos, goal) == path
        if to_label[origin] is None:
            for query in (grid.label_distance, grid.step_toward_label):
                with pytest.raises(MapError, match="no path"):
                    query(pos, "lab")
        else:
            assert grid.label_distance(pos, "lab") == to_label[origin]
            assert grid.step_toward_label(pos, "lab") == oracle_step(to_label, origin)
    # A resumed field holds the exact distance of every cell up to its
    # level, -1 beyond it, and its frontier is the cells at that level.
    for key, ref in ((target[1] * grid.width + target[0], to_cell), ("lab", to_label)):
        dist, frontier, level = grid._fields[key]
        for (x, y), d in ref.items():
            settled = d is not None and d <= level
            assert dist[y * grid.width + x] == (d if settled else -1)
        assert sorted(frontier) == sorted(
            y * grid.width + x for (x, y), d in ref.items() if d == level)


@settings(max_examples=150, deadline=None)
@given(pocket_maps())
def test_resumed_fields_match_full_fields(case):
    text, target, origins = case
    grid = parse_map(text, {"L": ("lab", "appointment_site")})
    # Near origins first, so that each farther query resumes a field.
    to_target = {o: bfs_oracle(grid, o, target) for o in origins}
    ordered = sorted(origins, key=lambda o: (to_target[o] is None, to_target[o] or 0))
    check_resumed_queries(grid, target, ordered)
    copy = pickle.loads(pickle.dumps(grid))
    assert copy._fields == {} and copy._tree is None and copy._gates == {}
    check_resumed_queries(copy, target, ordered[::-1])


def oracle_field(grid, goal_cells):
    """Full distance field toward the nearest of ``goal_cells``, by cell.

    One breadth-first search from all the open goals at once, over
    coordinates, independent of the grid's own fields.
    """
    field = {tuple(g): 0 for g in goal_cells if is_open(grid, Position(*g))}
    queue = deque(field)
    while queue:
        x, y = queue.popleft()
        for nx, ny in ((x, y - 1), (x + 1, y), (x, y + 1), (x - 1, y)):
            if 0 <= nx < grid.width and 0 <= ny < grid.height \
                    and (nx, ny) not in field and is_open(grid, Position(nx, ny)):
                field[(nx, ny)] = field[(x, y)] + 1
                queue.append((nx, ny))
    return field


@settings(max_examples=150, deadline=None)
@given(pocket_maps())
def test_steps_match_a_fresh_descent(case):
    # No distance query comes first, so cell steps may take the open-floor
    # rule, and the second label step reads the memo.
    text, target, origins = case
    grid = parse_map(text, {"L": ("lab", "appointment_site")})
    to_cell = oracle_field(grid, [target])
    to_label = oracle_field(grid, grid.locations["lab"])
    for origin in origins:
        pos = Position(*origin)
        if origin in to_cell:
            assert grid.step_toward_cell(pos, Position(*target)) == \
                oracle_step(to_cell, origin)
        if origin in to_label:
            for _ in range(2):
                assert grid.step_toward_label(pos, "lab") == oracle_step(to_label, origin)
    copy = pickle.loads(pickle.dumps(grid))
    assert copy._fields == {} and copy._label_steps == {}
    assert copy._tree is None and copy._gates == {}


@st.composite
def one_wall_rectangles(draw):
    """An open map, two cells, and at most one wall inside their rectangle."""
    width = draw(st.integers(1, 9))
    height = draw(st.integers(1, 9))
    cells = [(x, y) for y in range(height) for x in range(width)]
    origin, target = draw(st.sampled_from(cells)), draw(st.sampled_from(cells))
    inside = [(x, y) for x, y in cells
              if min(origin[0], target[0]) <= x <= max(origin[0], target[0])
              and min(origin[1], target[1]) <= y <= max(origin[1], target[1])
              and (x, y) not in (origin, target)]
    glyphs = [["."] * width for _ in range(height)]
    if inside and draw(st.booleans()):
        x, y = draw(st.sampled_from(inside))
        glyphs[y][x] = "#"
    return "\n".join("".join(row) for row in glyphs), origin, target


@settings(max_examples=300, deadline=None)
@given(one_wall_rectangles())
def test_cell_steps_around_one_wall_match_a_descent(case):
    text, origin, target = case
    grid = parse_map(text, {})
    to_cell = oracle_field(grid, [target])
    if origin not in to_cell:  # the wall cuts a one-cell-wide map
        with pytest.raises(MapError, match="no path"):
            grid.step_toward_cell(Position(*origin), Position(*target))
        return
    path = [Position(*origin)]
    while path[-1] != Position(*target):
        path.append(oracle_step(to_cell, tuple(path[-1])))
    for pos, step in zip(path, path[1:] + path[-1:]):
        assert grid.step_toward_cell(pos, Position(*target)) == step
    assert shortest_path(grid, Position(*origin), Position(*target)) == path


@st.composite
def door_maps(draw):
    """Rooms behind one-cell doors, some nested, some dead ends.

    Each room is a wall outline with one gap in a side.  A room is drawn
    anywhere on the map or, if there is room, inside the one before it;
    a room with one cell inside is a dead end, and an outline drawn over
    another may close a pocket off.  At times a wall line across the map
    cuts it in two components.  Returns the map text.
    """
    width = draw(st.integers(3, 9))
    height = draw(st.integers(3, 9))
    glyphs = [["."] * width for _ in range(height)]
    inside = (0, 0, width - 1, height - 1)
    for _ in range(draw(st.integers(1, 4))):
        left, top, right, bottom = inside if draw(st.booleans()) else \
            (0, 0, width - 1, height - 1)
        if right - left < 2 or bottom - top < 2:
            left, top, right, bottom = 0, 0, width - 1, height - 1
        x0 = draw(st.integers(left, right - 2))
        y0 = draw(st.integers(top, bottom - 2))
        x1 = draw(st.integers(x0 + 2, right))
        y1 = draw(st.integers(y0 + 2, bottom))
        sides = []
        for y in range(y0, y1 + 1):
            for x in range(x0, x1 + 1):
                if x in (x0, x1) or y in (y0, y1):
                    glyphs[y][x] = "#"
                    if (x in (x0, x1)) != (y in (y0, y1)):
                        sides.append((x, y))
        x, y = draw(st.sampled_from(sides))
        glyphs[y][x] = "."
        inside = (x0 + 1, y0 + 1, x1 - 1, y1 - 1)
    if draw(st.booleans()):
        if draw(st.booleans()):
            column = draw(st.integers(0, width - 1))
            for row in glyphs:
                row[column] = "#"
        else:
            glyphs[draw(st.integers(0, height - 1))] = ["#"] * width
    if all(g == "#" for row in glyphs for g in row):
        glyphs[0][0] = "."
    return "\n".join("".join(row) for row in glyphs)


def check_all_steps(text, order):
    """Every (origin, target) step equals a full descent's, or is MapError.

    The pairs run in ``order`` on one grid, so that cold and cached
    fields mix; the first forty also run each on a grid of its own.
    """
    grid = parse_map(text, {})
    cells = [(x, y) for y in range(grid.height) for x in range(grid.width)
             if is_open(grid, Position(x, y))]
    fields = {t: oracle_field(grid, [t]) for t in cells}
    pairs = [(origin, target) for origin in cells for target in cells]
    order.shuffle(pairs)
    for k, (origin, target) in enumerate(pairs):
        for g in (grid, parse_map(text, {})) if k < 40 else (grid,):
            pos, goal = Position(*origin), Position(*target)
            if origin in fields[target]:
                assert g.step_toward_cell(pos, goal) == \
                    oracle_step(fields[target], origin), (origin, target)
            else:
                with pytest.raises(MapError, match="no path"):
                    g.step_toward_cell(pos, goal)


@settings(max_examples=100, deadline=None)
@given(door_maps(), st.randoms(use_true_random=False))
def test_door_map_steps_match_a_full_descent(text, order):
    check_all_steps(text, order)


def test_demo_map_steps_match_a_full_descent():
    # Labels do not change the open cells, so the plain map will do.
    grid = load_scenario(demo_scenario_path()).grid
    text = "\n".join("".join("." if is_open(grid, Position(x, y)) else "#"
                             for x in range(grid.width)) for y in range(grid.height))
    check_all_steps(text, random.Random(3))


def test_walled_step_descends_toward_the_door():
    # A one-door room below a corridor; the threshold (4, 2) is the
    # room's first cut vertex on the way out, the doorway (4, 1) the
    # threshold's.
    text = "..........\n####.#####\n#........#\n#........#\n##########"
    goal = Position(9, 0)
    to_goal = oracle_field(parse_map(text, {}), [tuple(goal)])
    for origin, door in (((1, 3), (4, 2)), ((4, 2), (4, 1))):
        grid = parse_map(text, {})
        step = grid.step_toward_cell(Position(*origin), goal)
        assert step == oracle_step(to_goal, origin)
        assert set(grid._fields) == {door[1] * grid.width + door[0]}


@pytest.mark.parametrize("origin, target", [
    (Position(0, 0), Position(-1, 0)), (Position(-1, 0), Position(0, 0)),
    (Position(0, 0), Position(9, 9)), (Position(9, 9), Position(0, 0)),
    (Position(4, 0), Position(0, 0)), (Position(0, 3), Position(0, 0))])
def test_off_map_cell_queries_raise(origin, target):
    # Index -1 would wrap to cell (3, 2), and (9, 9) lies past the end.
    grid = parse_map("....\n.##.\n....", {})
    for query in (grid.distance, grid.step_toward_cell):
        with pytest.raises(MapError, match="out of bounds"):
            query(origin, target)


@pytest.mark.parametrize("length", [32_767, 40_000])
def test_long_corridor_distance(length):
    # A short holds the distances of a map of up to 32,767 cells; a
    # longer one needs wider fields.
    grid = parse_map("." * length, {})
    end = Position(length - 1, 0)
    assert grid.distance(Position(0, 0), end) == length - 1
    assert grid.step_toward_cell(end, Position(0, 0)) == Position(length - 2, 0)


# -- line of sight ----------------------------------------------------------

def test_los_adjacent():
    grid = parse_map("..", {})
    assert line_of_sight(grid, Position(0, 0), Position(1, 0), 5)


def test_los_radius_cutoff():
    grid = parse_map("." * 12, {})
    assert not line_of_sight(grid, Position(0, 0), Position(10, 0), 5)
    assert line_of_sight(grid, Position(0, 0), Position(5, 0), 5)


def test_los_wall_blocks():
    # Straight corridor of length 4 with one wall cell between endpoints.
    grid = parse_map("..#..", {})
    a, b = Position(0, 0), Position(4, 0)
    blocked = {Position(x, 0) for x in range(5) if grid.cells[x] == "#"}
    assert blocked & set(ray_cells(a, b))  # oracle: the ray passes the wall
    assert not line_of_sight(grid, a, b, 10)


def test_los_self():
    grid = parse_map(".", {})
    assert line_of_sight(grid, Position(0, 0), Position(0, 0), 0)


def test_los_corner_grazing_blocked():
    # Diagonal neighbors with both flanking cells walls: conservative ray
    # treats the corner crossing as contact.
    grid = parse_map(".#\n#.", {})
    assert not line_of_sight(grid, Position(0, 0), Position(1, 1), 5)


def test_los_diagonal_open():
    grid = parse_map("..\n..", {})
    assert line_of_sight(grid, Position(0, 0), Position(1, 1), 5)


def test_ray_cells_cover_segment():
    cells = list(ray_cells(Position(0, 0), Position(4, 2)))
    assert cells[0] == Position(0, 0) and cells[-1] == Position(4, 2)
    xs = {c.x for c in cells}
    assert xs == set(range(5))  # every column crossed is represented
