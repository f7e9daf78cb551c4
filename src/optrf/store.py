"""Sparse binary counting tree over a fixed-pitch grid.

Inputs are quantized to a grid of pitch ``delta`` inside a bounding box.  The
box is padded so every coordinate spans a power-of-two number of cells, which
lets a cell be addressed by a fixed-width bit string (coordinate-major, most
significant bit first).  Counts live in a sparse binary tree whose root holds
the total and where every internal node equals the sum of its two children,
so adding a cell's count touches exactly ``depth + 1`` nodes and drawing a
cell proportional to its count walks one root-to-leaf path.

``build_tree`` fills a tree from a whole batch: it quantizes the batch in one
pass, finds the distinct cells by a lexsort of the index rows, and costs
``depth + 1`` node updates per distinct cell rather than per point.
``CountTree.increment`` is the streaming path, one point at a time.

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
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ConfigError(f"point must have shape ({self.dim},) or "
                              f"(n, {self.dim}), got {x.shape}")
        # written as "inside" so that NaN, which compares False, is outside
        inside = (x >= self.lower) & (x <= self.upper)
        if not inside.all():
            where = np.argwhere(~inside)[0]
            bad = int(where[-1])
            point = f"point {int(where[0])}, " if x.ndim == 2 else ""
            raise OutOfBoxError(
                f"{point}coordinate {bad}: value {x[tuple(where)]} outside "
                f"[{self.lower[bad]}, {self.upper[bad]}]"
            )
        idx = np.floor((x - self.lower) / self.delta).astype(np.int64)
        # x exactly on the upper face belongs to the last cell
        return np.minimum(idx, self.cells_per_coord - 1)

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
        idx = np.empty(self.dim, dtype=np.int64)
        mask = self.cells_per_coord - 1
        for c in range(self.dim - 1, -1, -1):
            idx[c] = leaf & mask
            leaf >>= self.bits_per_coord
        return self.lower + (idx + 0.5) * self.delta


class CountTree:
    """Counts per grid cell with hierarchical proportional sampling.

    Nodes are stored sparsely per level as {prefix: count}; level 0 is the
    root, level ``spec.depth`` holds the leaves.  Counts fit 64-bit integers.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self._levels: list[dict[int, int]] = [dict() for _ in range(spec.depth + 1)]
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
        """Draw a cell with probability count/total; returns (bits, center)."""
        self._frozen = True
        if self.total() == 0:
            raise ConfigError("cannot sample from an empty tree")
        # one draw per level, taken at once: the same stream, in the same
        # order, as one rng.random() call per level
        prefix = 0
        for level, u in enumerate(rng.random(self.spec.depth).tolist()):
            left = self._levels[level + 1].get(2 * prefix, 0)
            here = self._levels[level][prefix]
            prefix = 2 * prefix if u * here < left else 2 * prefix + 1
        return self.spec.leaf_bits(prefix), self.spec.cell_center(prefix)

    def leaf_distribution(self) -> list[tuple[str, int]]:
        """All occupied leaves as (bit string, count), sorted by cell address."""
        leaves = sorted(self._levels[-1].items())
        return [(self.spec.leaf_bits(leaf), count) for leaf, count in leaves]

    def expanded_points(self) -> np.ndarray:
        """Cell centers repeated by multiplicity, shape (total, dim)."""
        rows = []
        for leaf, count in sorted(self._levels[-1].items()):
            rows.append(np.tile(self.spec.cell_center(leaf), (count, 1)))
        if not rows:
            return np.empty((0, self.spec.dim))
        return np.vstack(rows)

    def node_count(self) -> int:
        return sum(len(level) for level in self._levels)


def build_tree(points, lower, upper, delta: float) -> CountTree:
    """Quantize a batch of points into a fresh tree over the given box.

    The batch is quantized at once and the distinct cells found by a
    lexsort of the index rows (first coordinate most significant, so in
    address order), so the build costs one lexsort plus ``depth + 1`` node
    updates per distinct cell.  Each column of indices fits int64 at any
    depth, so grids deeper than 63 bits take the same path.  Use
    ``CountTree.increment`` to stream further points into the tree.
    """
    spec = GridSpec.build(lower, upper, delta)
    idx = spec.coord_indices(np.atleast_2d(points))
    rows = idx[np.lexsort(idx.T[::-1])]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(rows)))
    tree = CountTree(spec)
    for row, count in zip(rows[starts].tolist(), counts.tolist()):
        tree._add(spec._leaf_address(row), count)
    return tree
