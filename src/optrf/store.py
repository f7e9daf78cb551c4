"""Sparse binary counting tree over a fixed-pitch grid.

Inputs are quantized to a grid of pitch ``delta`` inside a bounding box.  The
box is padded so every coordinate spans a power-of-two number of cells, which
lets a cell be addressed by a fixed-width bit string (coordinate-major, most
significant bit first).  Counts live in a sparse binary tree whose root holds
the total and where every internal node equals the sum of its two children,
so adding a cell's count touches exactly ``depth + 1`` nodes and drawing a
cell proportional to its count walks one root-to-leaf path.

``build_tree`` fills a tree from a whole batch: it packs each point's cell
indices into one int64 key, a coordinate at a time straight from the
points, and finds the distinct cells by one sort of those keys, so it costs
that sort plus ``depth + 1`` node updates per distinct cell rather than per
point, and holds no (n, D) index matrix.
``CountTree.increment`` is the streaming path, one point at a time.

``CountTree.sample_cell`` draws ``depth`` uniforms per cell and walks one
root-to-leaf path, two dict lookups per level; each leaf a draw reaches
keeps its bits and center, so a leaf drawn again costs only the walk.

Usage contract: build first (batch build, increments), then freeze and
sample.  The tree is not thread safe.  It lives in memory only: no command
reads or writes a tree file, and ``optrf sample-features --store-delta``
builds its tree from the unlabeled batch each run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, OutOfBoxError


@dataclass(frozen=True)
class GridSpec:
    """Quantization grid: box [lower, upper] split into delta-pitch cells.

    The requested upper bound is padded so each coordinate has exactly
    2**bits_per_coord cells; ``upper`` stores the padded bound.
    """

    dim: int
    delta: float
    lower: np.ndarray
    upper: np.ndarray
    bits_per_coord: int

    def __post_init__(self):
        if not (self.delta > 0):
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.bits_per_coord < 1:
            raise ConfigError("bits_per_coord must be >= 1")

    @classmethod
    def build(cls, lower, upper, delta: float) -> "GridSpec":
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1 or lower.size == 0:
            raise ConfigError("lower and upper must be non-empty 1-D arrays "
                              "of equal length")
        if not (delta > 0):
            raise ConfigError(f"delta must be positive, got {delta}")
        if np.any(upper <= lower):
            raise ConfigError("upper must exceed lower in every coordinate")
        # cells per coordinate, rounded up to a shared power of two; the
        # small slack keeps an exact multiple of delta from being bumped by
        # floating-point rounding
        with np.errstate(over="ignore"):
            span = (upper - lower) / delta
        # coord_indices holds cell indices in int64
        if not np.all(span <= 2.0**62):
            raise ConfigError(f"delta={delta!r} makes more than 2**62 cells "
                              f"per coordinate")
        cells = int(np.max(np.ceil(span * (1 - 1e-12) - 1e-9)))
        bits = max(1, int(np.ceil(np.log2(max(cells, 1)) - 1e-12)))
        padded = lower + delta * float(2**bits)
        return cls(dim=lower.size, delta=float(delta), lower=lower,
                   upper=padded, bits_per_coord=bits)

    @property
    def cells_per_coord(self) -> int:
        return 2**self.bits_per_coord

    @property
    def depth(self) -> int:
        """Number of address bits: dim * bits_per_coord."""
        return self.dim * self.bits_per_coord

    def coord_indices(self, x) -> np.ndarray:
        """Cell indices of one point (D,) or a batch (n, D), coordinate by
        coordinate; raises if any coordinate leaves the box or is NaN."""
        x = np.asarray(x, dtype=float)
        rows = self._rows_in_box(x)
        idx = np.empty(rows.shape, dtype=np.int64)
        for j in range(self.dim):
            self._column_indices(rows[:, j], j, idx[:, j])
        return idx.reshape(x.shape)

    def _rows_in_box(self, x: np.ndarray) -> np.ndarray:
        """A float point (D,) or batch (n, D) as (n, D) rows; raises
        ConfigError on any other shape and OutOfBoxError naming the first
        point outside the box, and its first coordinate outside."""
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ConfigError(f"point must have shape ({self.dim},) or "
                              f"(n, {self.dim}), got {x.shape}")
        # one column at a time: against the (D,) bounds numpy would run its
        # inner loops D elements long
        rows = np.atleast_2d(x)
        first = []
        for j in range(self.dim):
            col = rows[:, j]
            # written as "inside" so that NaN, which compares False, is outside
            inside = (col >= self.lower[j]) & (col <= self.upper[j])
            if not inside.all():
                first.append((int(inside.argmin()), j))
        if first:
            i, bad = min(first)
            point = f"point {i}, " if x.ndim == 2 else ""
            raise OutOfBoxError(
                f"{point}coordinate {bad}: value {rows[i, bad]} outside "
                f"[{self.lower[bad]}, {self.upper[bad]}]"
            )
        return rows

    def _column_indices(self, col: np.ndarray, j: int,
                        out: np.ndarray) -> None:
        """Cell indices of coordinate j's in-box values ``col``, written
        into the int64 ``out``."""
        cell = col - self.lower[j]
        cell /= self.delta
        out[...] = np.floor(cell, out=cell)
        # x exactly on the upper face belongs to the last cell
        np.minimum(out, self.cells_per_coord - 1, out=out)

    def _leaf_address(self, idx) -> int:
        """Leaf address of one row of cell indices, as a Python int so that
        grids deeper than 63 bits keep working."""
        leaf = 0
        for i in idx:
            leaf = (leaf << self.bits_per_coord) | int(i)
        return leaf

    def leaf_of(self, x) -> int:
        """Integer leaf address of x (coordinate-major bit concatenation)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ConfigError(f"point must have shape ({self.dim},), "
                              f"got {x.shape}")
        return self._leaf_address(self.coord_indices(x))

    def leaf_bits(self, leaf: int) -> str:
        return format(leaf, f"0{self.depth}b")

    def cell_center(self, leaf: int) -> np.ndarray:
        return self.cell_centers([leaf])[0]

    def cell_centers(self, leaves) -> np.ndarray:
        """Centers of the cells at the given leaf addresses, (len, dim)."""
        mask, bits = self.cells_per_coord - 1, self.bits_per_coord
        shifts = range(self.depth - bits, -1, -bits)
        idx = np.array([[(leaf >> s) & mask for s in shifts]
                        for leaf in leaves], dtype=np.int64)
        return self.lower + (idx.reshape(-1, self.dim) + 0.5) * self.delta


class CountTree:
    """Counts per grid cell with hierarchical proportional sampling.

    Nodes are stored sparsely per level as {prefix: count}; level 0 is the
    root, level ``spec.depth`` holds the leaves.  Counts fit 64-bit integers.

    ``_leaves`` caches ``(bits, center)`` of each leaf a draw has reached.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self._levels: list[dict[int, int]] = [dict() for _ in range(spec.depth + 1)]
        self._leaves: dict[int, tuple[str, np.ndarray]] = {}
        self._frozen = False

    def __len__(self) -> int:
        return len(self._levels[-1])

    def total(self) -> int:
        return self._levels[0].get(0, 0)

    def increment(self, x) -> int:
        """Add one observation of x; returns the number of nodes touched."""
        if self._frozen:
            raise RuntimeError("tree is frozen: no increments after sampling begins")
        self._add(self.spec.leaf_of(x), 1)
        return self.spec.depth + 1

    def _add(self, leaf: int, count: int) -> None:
        depth = self.spec.depth
        for level in range(depth + 1):
            prefix = leaf >> (depth - level)
            nodes = self._levels[level]
            nodes[prefix] = nodes.get(prefix, 0) + count

    def sample_cell(self, rng: np.random.Generator) -> tuple[str, np.ndarray]:
        """Draw a cell with probability count/total; returns (bits, center).

        The walk reads the same uniforms, in the same order, as one
        rng.random() call per level; it goes left when ``u * count < left
        count``.  The returned center is a copy of the cached one.
        """
        self._frozen = True
        if self.total() == 0:
            raise ConfigError("cannot sample from an empty tree")
        prefix, levels = 0, self._levels
        for level, u in enumerate(rng.random(self.spec.depth).tolist()):
            left = levels[level + 1].get(2 * prefix, 0)
            here = levels[level][prefix]
            prefix = 2 * prefix if u * here < left else 2 * prefix + 1
        leaf = self._leaves.get(prefix)
        if leaf is None:
            leaf = self._leaves[prefix] = (self.spec.leaf_bits(prefix),
                                           self.spec.cell_center(prefix))
        return leaf[0], leaf[1].copy()

    def leaf_distribution(self) -> list[tuple[str, int]]:
        """All occupied leaves as (bit string, count), sorted by cell address."""
        leaves = sorted(self._levels[-1].items())
        return [(self.spec.leaf_bits(leaf), count) for leaf, count in leaves]

    def expanded_points(self) -> np.ndarray:
        """Cell centers repeated by multiplicity, shape (total, dim)."""
        leaves = sorted(self._levels[-1].items())
        centers = self.spec.cell_centers([leaf for leaf, _ in leaves])
        return np.repeat(centers, [count for _, count in leaves], axis=0)

    def node_count(self) -> int:
        return sum(len(level) for level in self._levels)


def build_tree(points, lower, upper, delta: float) -> CountTree:
    """Quantize a batch of points into a fresh tree over the given box.

    Each point's cell indices are packed into one int64 key, column by
    column as ``key << bits | index``, first coordinate most significant.
    A column's indices are computed from the points into one reused
    buffer, so no (n, D) index matrix is held.  When the next column would
    push the key past 63 bits, the keys are first replaced by their ranks,
    which keeps their order; if the column still does not fit beside them,
    so is the column.  Two ranks below n fit in 63 bits for any n below
    2**31.  One argsort of the keys then lists the distinct cells in
    address order, with their counts and one point of each, whose cell
    indices give the leaf address.  The build costs one sort of n keys
    plus ``depth + 1`` node updates per distinct cell, at any depth, and
    holds at most three arrays of n values.  Use ``CountTree.increment``
    to stream further points into the tree.
    """
    spec = GridSpec.build(lower, upper, delta)
    rows = spec._rows_in_box(np.atleast_2d(np.asarray(points, dtype=float)))
    n, bits = len(rows), spec.bits_per_coord
    key, width = np.zeros(n, dtype=np.int64), 0
    col = np.empty(n, dtype=np.int64)
    for j in range(spec.dim):
        spec._column_indices(rows[:, j], j, col)
        if width + bits > 63:
            key, width = _ranks(key)
        packed, col_width = (col, bits) if width + bits <= 63 else _ranks(col)
        key <<= col_width
        key |= packed
        width += col_width
    del col, packed
    order = np.argsort(key)
    key = key[order]
    new_cell = np.ones(n, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new_cell[1:])
    starts = np.flatnonzero(new_cell)
    counts = np.diff(starts, append=n)
    tree = CountTree(spec)
    cells = spec.coord_indices(rows[order[starts]])
    for row, count in zip(cells.tolist(), counts.tolist()):
        tree._add(spec._leaf_address(row), count)
    return tree


def _ranks(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Each value's rank among the distinct values, and the ranks' bit
    width; ranks keep the values' order and stay below len(values)."""
    ranks = np.unique(values, return_inverse=True)[1]
    return ranks, int(ranks.max(initial=0)).bit_length()
