import tracemalloc

import numpy as np
import pytest

from optrf.errors import ConfigError, OutOfBoxError
from optrf.fileio import number_list, parse_header
from optrf.store import CountTree, GridSpec, build_tree


# --- grid geometry ----------------------------------------------------------


def test_grid_pads_to_power_of_two():
    # span 1.0 at pitch 0.3 needs 4 cells -> 2 bits -> padded upper 1.2
    spec = GridSpec.build([0.0], [1.0], 0.3)
    assert spec.bits_per_coord == 2
    assert spec.cells_per_coord == 4
    assert spec.upper[0] == pytest.approx(1.2)
    assert spec.depth == 2


def test_grid_exact_power_of_two_is_not_bumped():
    spec = GridSpec.build([0.0], [1.0], 0.25)
    assert spec.cells_per_coord == 4
    assert spec.upper[0] == pytest.approx(1.0)


def test_grid_depth_scales_with_dimension():
    spec = GridSpec.build([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0.25)
    assert spec.depth == 3 * 2


def test_grid_validation():
    with pytest.raises(ConfigError):
        GridSpec.build([0.0], [1.0], 0.0)
    with pytest.raises(ConfigError):
        GridSpec.build([1.0], [0.0], 0.1)
    with pytest.raises(ConfigError):
        GridSpec.build([0.0, 0.0], [1.0], 0.1)
    # grids too fine for int64 cell indices, and a grid with no coordinates
    with pytest.raises(ConfigError):
        GridSpec.build([0.0], [1.0], 5e-324)
    with pytest.raises(ConfigError):
        GridSpec.build([-1e308], [1.0], 0.5)
    with pytest.raises(ConfigError):
        GridSpec.build([], [], 0.5)


@pytest.mark.parametrize("old, new", [
    ("delta=0.5", "delta=5e-324"),
    ("lower=0.0", "lower=-1e308"),
    ("D=1 delta=0.5 lower=0.0 upper=1.0", "D=0 delta=0.5 lower= upper="),
])
def test_tree_parse_rejects_degenerate_grids(old, new):
    # grids too fine for int64 cell indices, and a grid with no coordinates,
    # read from key=value header text the way the other optrf files carry it
    good = "# D=1 delta=0.5 lower=0.0 upper=1.0"
    assert old in good
    head = parse_header((1, good.replace(old, new)), "", {
        "D": int, "delta": float, "lower": number_list, "upper": number_list,
    })
    assert len(head["lower"]) == len(head["upper"]) == head["D"]
    with pytest.raises(ConfigError):
        GridSpec.build(head["lower"], head["upper"], head["delta"])


def test_coord_indices_edges_and_out_of_box():
    spec = GridSpec.build([0.0], [1.0], 0.25)
    assert spec.coord_indices(np.array([0.0]))[0] == 0
    assert spec.coord_indices(np.array([0.999]))[0] == 3
    # the upper face belongs to the last cell rather than falling outside
    assert spec.coord_indices(spec.upper)[0] == spec.cells_per_coord - 1
    with pytest.raises(OutOfBoxError, match="coordinate 0"):
        spec.coord_indices(np.array([-0.01]))
    spec2 = GridSpec.build([0.0, 0.0], [1.0, 1.0], 0.25)
    with pytest.raises(OutOfBoxError, match="coordinate 1"):
        spec2.coord_indices(np.array([0.5, 1.5]))


def test_leaf_address_is_coordinate_major_msb_first():
    spec = GridSpec.build([0.0, 0.0], [1.0, 1.0], 0.25)
    # cell indices (2, 1) -> bits '10' then '01'
    assert spec.leaf_bits(spec.leaf_of(np.array([0.6, 0.3]))) == "1001"
    assert spec.leaf_bits(spec.leaf_of(np.array([0.0, 0.0]))) == "0000"
    assert spec.leaf_bits(spec.leaf_of(np.array([0.99, 0.99]))) == "1111"


def test_cell_center_inverts_leaf_of():
    spec = GridSpec.build([-1.0, 2.0], [1.0, 4.0], 0.125)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform([-1.0, 2.0], [1.0, 4.0])
        leaf = spec.leaf_of(x)
        center = spec.cell_center(leaf)
        assert spec.leaf_of(center) == leaf
        assert np.all(np.abs(center - x) <= spec.delta)


# --- counting tree -----------------------------------------------------------


def _parent_sums_hold(tree: CountTree) -> bool:
    for level in range(tree.spec.depth):
        for prefix, count in tree._levels[level].items():
            kids = sum(
                tree._levels[level + 1].get((prefix << 1) | b, 0) for b in (0, 1)
            )
            if kids != count:
                return False
    return True


def test_increment_touches_every_level_once():
    spec = GridSpec.build([0.0, 0.0], [1.0, 1.0], 0.125)
    tree = CountTree(spec)
    assert tree.increment(np.array([0.3, 0.7])) == spec.depth + 1
    assert tree.node_count() == spec.depth + 1
    assert tree.total() == 1


def test_parent_sum_invariant_randomized():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        spec = GridSpec.build(np.zeros(d), np.ones(d), float(rng.uniform(0.1, 0.5)))
        tree = CountTree(spec)
        pts = rng.random((int(rng.integers(1, 80)), d))
        for p in pts:
            tree.increment(p)
        assert tree.total() == len(pts)
        assert _parent_sums_hold(tree)
        assert len(tree) <= len(pts)


def test_leaf_distribution_sorted_and_complete():
    tree = build_tree(np.array([[0.1], [0.1], [0.9]]), [0.0], [1.0], 0.25)
    leaves = tree.leaf_distribution()
    assert [c for _, c in leaves] == [2, 1]
    assert leaves == sorted(leaves)
    assert sum(c for _, c in leaves) == tree.total() == 3


def test_expanded_points_repeats_centers_by_multiplicity():
    pts = np.array([[0.1, 0.1], [0.12, 0.11], [0.9, 0.9]])
    tree = build_tree(pts, [0.0, 0.0], [1.0, 1.0], 0.5)
    out = tree.expanded_points()
    assert out.shape == (3, 2)
    assert np.allclose(out[0], out[1])
    assert not np.allclose(out[0], out[2])


def test_sample_cell_single_leaf_and_freeze():
    tree = build_tree(np.array([[0.3, 0.3]]), [0.0, 0.0], [1.0, 1.0], 0.25)
    rng = np.random.default_rng(2)
    bits, center = tree.sample_cell(rng)
    spec = tree.spec
    assert bits == spec.leaf_bits(spec.leaf_of(np.array([0.3, 0.3])))
    assert tree.spec.leaf_of(center) == int(bits, 2)
    with pytest.raises(RuntimeError, match="frozen"):
        tree.increment(np.array([0.5, 0.5]))


def test_sample_cell_matches_counts():
    rng = np.random.default_rng(3)
    tree = build_tree(rng.random((500, 1)), [0.0], [1.0], 1 / 8)
    counts = {bits: 0 for bits, _ in tree.leaf_distribution()}
    draws = 20_000
    for _ in range(draws):
        bits, _ = tree.sample_cell(rng)
        counts[bits] += 1
    for bits, want in tree.leaf_distribution():
        p = want / tree.total()
        se = np.sqrt(p * (1 - p) / draws)
        assert abs(counts[bits] / draws - p) < 5 * se + 1e-9


def test_sample_empty_tree_rejected():
    tree = CountTree(GridSpec.build([0.0], [1.0], 0.5))
    with pytest.raises(ConfigError):
        tree.sample_cell(np.random.default_rng(0))


def test_out_of_box_increment_names_coordinate():
    tree = CountTree(GridSpec.build([0.0, 0.0], [1.0, 1.0], 0.5))
    with pytest.raises(OutOfBoxError, match="coordinate 1"):
        tree.increment(np.array([0.5, 7.0]))


def test_nan_coordinate_is_out_of_box():
    # NaN compares False both ways, so a bounds test written as "outside"
    # used to let it through onto a negative leaf
    lower, upper = [0.0, 0.0], [1.0, 1.0]
    tree = CountTree(GridSpec.build(lower, upper, 0.25))
    with pytest.raises(OutOfBoxError, match="coordinate 0"):
        tree.increment(np.array([np.nan, 0.5]))
    assert tree.total() == 0
    with pytest.raises(OutOfBoxError, match="point 1, coordinate 0"):
        build_tree([[0.1, 0.2], [np.nan, 0.5]], lower, upper, 0.25)


# --- batch build against streaming inserts -----------------------------------


def _streamed(points, lower, upper, delta) -> CountTree:
    """Reference tree: one increment per point, in order."""
    tree = CountTree(GridSpec.build(lower, upper, delta))
    for x in np.asarray(points, dtype=float).reshape(-1, len(lower)):
        tree.increment(x)
    return tree


def _reference_walk(tree: CountTree, rng) -> tuple[str, np.ndarray]:
    """One root-to-leaf walk with one scalar rng.random() per level: the
    stream sample_cell must consume, draw for draw."""
    levels, prefix = tree._levels, 0
    for level in range(tree.spec.depth):
        left = levels[level + 1].get(2 * prefix, 0)
        here = levels[level][prefix]
        prefix = 2 * prefix if rng.random() * here < left else 2 * prefix + 1
    return tree.spec.leaf_bits(prefix), tree.spec.cell_center(prefix)


def _assert_same_tree(got: CountTree, want: CountTree) -> None:
    assert got._levels == want._levels
    assert got.leaf_distribution() == want.leaf_distribution()
    assert np.array_equal(got.expanded_points(), want.expanded_points())
    if want.total() == 0:
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            got.sample_cell(rng)
        # the refusal consumed no draw
        assert rng.random() == np.random.default_rng(0).random()
        return
    rng_got, rng_want, rng_ref = (np.random.default_rng(6) for _ in range(3))
    for _ in range(1000):
        bits, center = got.sample_cell(rng_got)
        bits_want, center_want = want.sample_cell(rng_want)
        bits_ref, center_ref = _reference_walk(want, rng_ref)
        assert bits == bits_want == bits_ref
        assert np.array_equal(center, center_want)
        assert np.array_equal(center, center_ref)
    assert rng_got.random() == rng_ref.random()


def _batch_cases():
    rng = np.random.default_rng(5)
    repeated = rng.permutation(
        np.repeat(rng.random((7, 2)), [1, 2, 3, 5, 8, 13, 21], axis=0))
    padded = GridSpec.build([0.0, 0.0], [1.0, 1.0], 0.3).upper  # 1.2, 1.2
    face = np.array([[1.0, 0.3], [0.3, 1.0], [1.0, 1.0], [0.0, 1.0],
                     [1.0, 1.0]])
    fine = np.vstack([rng.random((200, 2)), [[1 - 2.0**-40, 1.0]] * 3,
                      [[0.0, 0.0]]])
    # 22 bits per coordinate: the key passes 63 bits at the third column;
    # the last three rows differ only in the first coordinate's top bits
    wide = np.vstack([rng.random((300, 3)), [[0.5, 1.0, 1 - 2.0**-22]] * 4,
                      [[0.0, 0.0, 1.0]] * 2, [[0.25, 0.0, 1.0]],
                      [[0.75, 0.0, 1.0]] * 3])
    return {
        "1d": (rng.random((300, 1)), [0.0], [1.0], 1 / 16),
        "2d": (rng.uniform([-1.0, 3.0], [2.0, 4.5], (500, 2)), [-1.0, 3.0],
               [2.0, 4.5], 0.1),
        "3d": (rng.uniform(-1.0, 1.0, (400, 3)), [-1.0] * 3, [1.0] * 3, 0.2),
        "repeated": (repeated, [0.0, 0.0], [1.0, 1.0], 0.125),
        "upper-face": (face, [0.0, 0.0], [1.0, 1.0], 0.25),
        "padded-upper-face": (np.vstack([face, padded]), [0.0, 0.0],
                              [1.0, 1.0], 0.3),
        "empty": (np.empty((0, 2)), [0.0, 0.0], [1.0, 1.0], 0.25),
        "80-bit": (fine, [0.0, 0.0], [1.0, 1.0], 2.0**-40),
        "66-bit": (wide, [0.0] * 3, [1.0] * 3, 2.0**-22),
        # 62 bits per coordinate: the first column's re-ranked keys leave
        # no room for the second, so it is ranked too; the last five rows
        # share their second coordinate
        "124-bit": (np.vstack([rng.random((100, 2)),
                               [[0.0, 0.0], [0.25, 0.0], [0.5, 0.0],
                                [0.75, 0.0], [1.0, 0.0]]]),
                    [0.0, 0.0], [1.0, 1.0], 2.0**-62),
    }


@pytest.mark.parametrize("case", sorted(_batch_cases()))
def test_batch_build_equals_streamed_inserts(case):
    points, lower, upper, delta = _batch_cases()[case]
    tree = build_tree(points, lower, upper, delta)
    assert tree.total() == len(points)
    deep = {"66-bit": 66, "80-bit": 80, "124-bit": 124}
    if case in deep:
        assert tree.spec.depth == deep[case]
        assert max(tree._levels[-1]) >= 2**63
    _assert_same_tree(tree, _streamed(points, lower, upper, delta))


@pytest.mark.parametrize("dim", [1, 3])
def test_empty_batch_builds_an_empty_tree(dim):
    tree = build_tree(np.empty((0, dim)), [0.0] * dim, [1.0] * dim, 0.25)
    assert tree.spec.dim == dim
    assert tree.total() == 0 and len(tree) == 0 and tree.node_count() == 0
    assert tree.leaf_distribution() == []
    assert tree.expanded_points().shape == (0, dim)
    with pytest.raises(ConfigError, match="empty tree"):
        tree.sample_cell(np.random.default_rng(0))


def test_batch_build_holds_no_index_matrix():
    # 2^16 points on the unit circle at pitch 1/64: a column of cell
    # indices, its quotients and the keys are 0.5 MB each; the (n, 2)
    # index matrix and whole-array temporaries took 3.7 MB
    ang = np.random.default_rng(13).uniform(0.0, 2 * np.pi, 1 << 16)
    points = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    build_tree(points, [-1.0, -1.0], [1.0, 1.0], 1 / 64)
    tracemalloc.start()
    try:
        build_tree(points, [-1.0, -1.0], [1.0, 1.0], 1 / 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


def test_mutating_a_drawn_center_leaves_later_draws_unchanged():
    points, lower, upper, delta = _batch_cases()["repeated"]
    tree = build_tree(points, lower, upper, delta)
    rng = np.random.default_rng(10)
    for _ in range(200):
        bits, center = tree.sample_cell(rng)
        assert np.array_equal(center, tree.spec.cell_center(int(bits, 2)))
        center[:] = -1.0


def test_sampling_caches_only_the_leaves_draws_reach():
    # 2000 distinct cells; each draw caches at most the one leaf it reached
    points = np.random.default_rng(11).random((2000, 2))
    tree = build_tree(points, [0.0, 0.0], [1.0, 1.0], 2.0**-20)
    assert len(tree) == 2000 and tree._leaves == {}
    rng = np.random.default_rng(12)
    for _ in range(3):
        before = len(tree._leaves)
        bits, _ = tree.sample_cell(rng)
        assert len(tree._leaves) - before <= 1
        assert int(bits, 2) in tree._leaves


def test_coord_indices_of_a_batch_match_its_rows():
    spec = GridSpec.build([-1.0, 2.0, 0.0], [1.0, 4.0, 0.5], 0.125)
    x = np.random.default_rng(7).uniform(spec.lower, spec.upper, (50, 3))
    idx = spec.coord_indices(x)
    assert idx.shape == (50, 3)
    assert np.array_equal(idx, [spec.coord_indices(row) for row in x])


def test_increments_after_batch_build_equal_streamed_union():
    rng = np.random.default_rng(8)
    lower, upper, delta = [0.0, -1.0], [2.0, 1.0], 1 / 8
    first = rng.uniform(lower, upper, (300, 2))
    more = np.vstack([rng.uniform(lower, upper, (50, 2)), first[:20]])
    tree = build_tree(first, lower, upper, delta)
    for x in more:
        assert tree.increment(x) == tree.spec.depth + 1
    union = np.vstack([first, more])
    _assert_same_tree(tree, _streamed(union, lower, upper, delta))


@pytest.mark.parametrize("row", [0, 17, 39])
@pytest.mark.parametrize("value", [1.5, -0.25, np.nan, np.inf])
def test_bad_point_anywhere_in_batch_raises(row, value):
    points = np.random.default_rng(9).random((40, 2))
    points[row, 1] = value
    with pytest.raises(OutOfBoxError, match=f"point {row}, coordinate 1"):
        build_tree(points, [0.0, 0.0], [1.0, 1.0], 0.25)


@pytest.mark.parametrize("points", [
    np.zeros((5, 3)),
    np.zeros((5, 1)),
    np.zeros((2, 5, 2)),
    [],
], ids=["too-wide", "too-narrow", "three-axes", "no-coordinates"])
def test_batch_of_wrong_shape_raises(points):
    with pytest.raises(ConfigError, match="shape"):
        build_tree(points, [0.0, 0.0], [1.0, 1.0], 0.25)
