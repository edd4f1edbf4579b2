"""Block-structured vectors and block-selection schedules.

A state vector x in R^n is split into b >= 1 contiguous blocks
x = (x_1, ..., x_b).  Block indices are 1-based throughout.  Complex-valued
blocks are stored as interleaved real pairs (re0, im0, re1, im1, ...), so
all norms below are plain real Euclidean norms and coincide with the
complex ones.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

SEQUENTIAL = "sequential"
EPOCH_SHUFFLE = "epoch-shuffle"
RANDOM_IID = "random-iid"
SCHEDULE_KINDS = (SEQUENTIAL, EPOCH_SHUFFLE, RANDOM_IID)


@dataclass(frozen=True)
class BlockLayout:
    """Partition of R^n into b contiguous blocks of the given sizes."""

    sizes: tuple
    # derived from `sizes` once, at construction
    num_blocks: int = field(init=False, repr=False, compare=False)
    total: int = field(init=False, repr=False, compare=False)
    slices: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) < 1:
            raise ValueError("layout needs at least one block")
        if any(s < 1 for s in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")
        bounds = [0]
        for s in sizes:
            bounds.append(bounds[-1] + s)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "num_blocks", len(sizes))
        object.__setattr__(self, "total", bounds[-1])
        object.__setattr__(
            self, "slices", tuple(slice(a, b) for a, b in zip(bounds, bounds[1:]))
        )

    def offset(self, i):
        """Start offset of 1-based block i in the flat vector."""
        return self.block_slice(i).start

    def block_slice(self, i):
        if not 1 <= i <= self.num_blocks:
            raise IndexError(
                f"block index {i} out of range 1..{self.num_blocks}"
            )
        return self.slices[i - 1]


@dataclass(frozen=True)
class BlockVector:
    """Immutable flat vector together with its block layout.

    The constructor copies `data`; `_wrap` is the internal constructor for
    an array that was just computed and is held by no one else.
    """

    layout: BlockLayout
    data: np.ndarray
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        if _owned:
            data = self.data.reshape(-1)
        else:
            data = np.array(self.data, dtype=np.float64, copy=True).ravel()
        if data.size != self.layout.total:
            raise ValueError(
                f"data length {data.size} != layout total {self.layout.total}"
            )
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @classmethod
    def _wrap(cls, layout, data):
        """A vector over the float64 array `data` without a copy; `data` is
        made read-only, so its creator must not keep writing to it."""
        return cls(layout, data, True)

    @classmethod
    def from_blocks(cls, arrays, layout=None):
        """Build a BlockVector by concatenating per-block coordinate arrays.

        With `layout`, the blocks must have its sizes; without, the layout
        is read off the arrays.
        """
        flats = [np.asarray(a, dtype=np.float64).ravel() for a in arrays]
        sizes = tuple(a.size for a in flats)
        if layout is None:
            layout = BlockLayout(sizes)
        elif sizes != layout.sizes:
            raise ValueError(f"block sizes {sizes} != layout sizes {layout.sizes}")
        return cls._wrap(layout, np.concatenate(flats))

    def extract(self, i):
        """Return a copy of block i (1-based); never aliases self.data."""
        return self.data[self.layout.block_slice(i)].copy()

    def block(self, i):
        """Read-only view of block i (1-based), for reading without a copy."""
        return self.data[self.layout.block_slice(i)]

    def inject(self, i, values):
        """Return a new vector with block i replaced by `values`."""
        s = self.layout.block_slice(i)
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size != s.stop - s.start:
            raise ValueError(
                f"block {i} expects length {s.stop - s.start}, got {values.size}"
            )
        out = self.data.copy()
        out[s] = values
        return BlockVector._wrap(self.layout, out)

    def blocks(self):
        return [self.extract(i) for i in range(1, self.layout.num_blocks + 1)]

    def norm(self):
        return float(np.linalg.norm(self.data))

    def block_norms(self):
        return [float(np.linalg.norm(self.data[s])) for s in self.layout.slices]

    def __sub__(self, other):
        return BlockVector._wrap(self.layout, self.data - other.data)

    def __add__(self, other):
        return BlockVector._wrap(self.layout, self.data + other.data)


@dataclass
class BlockSchedule:
    """Block-selection rule: which block index to update at iteration k >= 1.

    The index stream is a pure function of (kind, seed, num_blocks, k):
    random kinds derive a fresh generator per draw (random-iid) or per
    epoch (epoch-shuffle) from a spawned seed sequence, so equal inputs
    always reproduce equal streams and draws can be evaluated out of order.
    Epoch-shuffle keeps the last epoch's permutation, keyed by everything
    that determines it.
    """

    kind: str
    num_blocks: int
    seed: int = 0
    _epoch: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")

    def next_index(self, k):
        """1-based block index for iteration k >= 1."""
        if k < 1:
            raise ValueError("iteration counter starts at 1")
        b = self.num_blocks
        if self.kind == SEQUENTIAL:
            return 1 + (k - 1) % b
        if self.kind == EPOCH_SHUFFLE:
            epoch, pos = divmod(k - 1, b)
            key = (self.seed, b, epoch)
            if self._epoch[0] != key:
                rng = np.random.default_rng(
                    np.random.SeedSequence(self.seed, spawn_key=(0, epoch))
                )
                self._epoch = (key, rng.permutation(b))
            return int(self._epoch[1][pos]) + 1
        rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(1, k))
        )
        return int(rng.integers(b)) + 1

    def with_seed(self, seed):
        return BlockSchedule(self.kind, self.num_blocks, seed)


def complex_to_pairs(z):
    """Interleave a complex array into (re0, im0, re1, im1, ...) reals."""
    # a fresh C-ordered complex128 array already stores (re, im) pairs in order
    return np.array(z, dtype=np.complex128, order="C").reshape(-1).view(np.float64)


def pairs_to_complex(x, shape=None):
    """Inverse of complex_to_pairs; optionally reshape the complex result."""
    x = np.array(x, dtype=np.float64, order="C").reshape(-1)
    if x.size % 2:
        raise ValueError("real-pair array must have even length")
    # a fresh C-ordered float64 copy holds (re, im) pairs as complex128 does,
    # so every value, -0.0 and inf included, comes back as it went in
    z = x.view(np.complex128)
    return z.reshape(shape) if shape is not None else z
