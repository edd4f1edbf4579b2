"""Block-structured vectors and block-selection schedules.

A state vector x in R^n is split into b >= 1 contiguous blocks
x = (x_1, ..., x_b).  Block indices are 1-based throughout.  Complex-valued
blocks are stored as interleaved real pairs (re0, im0, re1, im1, ...), so
all norms below are plain real Euclidean norms and coincide with the
complex ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SEQUENTIAL = "sequential"
EPOCH_SHUFFLE = "epoch-shuffle"
RANDOM_IID = "random-iid"
SCHEDULE_KINDS = (SEQUENTIAL, EPOCH_SHUFFLE, RANDOM_IID)


@dataclass(frozen=True)
class BlockLayout:
    """Partition of R^n into b contiguous blocks of the given sizes."""

    sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) < 1:
            raise ValueError("layout needs at least one block")
        if any(s < 1 for s in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def num_blocks(self):
        return len(self.sizes)

    @property
    def total(self):
        return sum(self.sizes)

    def offset(self, i):
        """Start offset of 1-based block i in the flat vector."""
        self._check_index(i)
        return sum(self.sizes[: i - 1])

    def block_slice(self, i):
        off = self.offset(i)
        return slice(off, off + self.sizes[i - 1])

    def _check_index(self, i):
        if not 1 <= i <= self.num_blocks:
            raise IndexError(
                f"block index {i} out of range 1..{self.num_blocks}"
            )


@dataclass(frozen=True)
class BlockVector:
    """Immutable flat vector together with its block layout."""

    layout: BlockLayout
    data: np.ndarray

    def __post_init__(self):
        data = np.array(self.data, dtype=np.float64, copy=True).ravel()
        if data.size != self.layout.total:
            raise ValueError(
                f"data length {data.size} != layout total {self.layout.total}"
            )
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @classmethod
    def from_blocks(cls, arrays):
        """Build a BlockVector by concatenating per-block coordinate arrays."""
        flats = [np.asarray(a, dtype=np.float64).ravel() for a in arrays]
        layout = BlockLayout(tuple(a.size for a in flats))
        return cls(layout, np.concatenate(flats))

    def extract(self, i):
        """Return a copy of block i (1-based); never aliases self.data."""
        return self.data[self.layout.block_slice(i)].copy()

    def inject(self, i, values):
        """Return a new vector with block i replaced by `values`."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size != self.layout.sizes[i - 1]:
            raise ValueError(
                f"block {i} expects length {self.layout.sizes[i - 1]}, "
                f"got {values.size}"
            )
        out = self.data.copy()
        out[self.layout.block_slice(i)] = values
        return BlockVector(self.layout, out)

    def blocks(self):
        return [self.extract(i) for i in range(1, self.layout.num_blocks + 1)]

    def norm(self):
        return float(np.linalg.norm(self.data))

    def block_norms(self):
        return [float(np.linalg.norm(b)) for b in self.blocks()]

    def __sub__(self, other):
        return BlockVector(self.layout, self.data - other.data)

    def __add__(self, other):
        return BlockVector(self.layout, self.data + other.data)


@dataclass
class BlockSchedule:
    """Block-selection rule: which block index to update at iteration k >= 1.

    The index stream is a pure function of (kind, seed, num_blocks, k):
    random kinds derive a fresh generator per draw from a spawned seed
    sequence, so equal inputs always reproduce equal streams and draws can
    be evaluated out of order.
    """

    kind: str
    num_blocks: int
    seed: int = 0

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
            rng = np.random.default_rng(
                np.random.SeedSequence(self.seed, spawn_key=(0, epoch))
            )
            return int(rng.permutation(b)[pos]) + 1
        rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(1, k))
        )
        return int(rng.integers(b)) + 1

    def with_seed(self, seed):
        return BlockSchedule(self.kind, self.num_blocks, seed)


def complex_to_pairs(z):
    """Interleave a complex array into (re0, im0, re1, im1, ...) reals."""
    z = np.asarray(z, dtype=np.complex128).ravel()
    out = np.empty(2 * z.size, dtype=np.float64)
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def pairs_to_complex(x, shape=None):
    """Inverse of complex_to_pairs; optionally reshape the complex result."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size % 2:
        raise ValueError("real-pair array must have even length")
    z = x[0::2] + 1j * x[1::2]
    return z.reshape(shape) if shape is not None else z
