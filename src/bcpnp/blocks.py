"""Block-structured vectors and block-selection schedules.

A state vector x in R^n is split into b >= 1 contiguous blocks
x = (x_1, ..., x_b).  Block indices are 1-based throughout.  Complex-valued
blocks are stored as interleaved real pairs (re0, im0, re1, im1, ...), so
all norms below are plain real Euclidean norms and coincide with the
complex ones.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

SEQUENTIAL = "sequential"
EPOCH_SHUFFLE = "epoch-shuffle"
RANDOM_IID = "random-iid"
SCHEDULE_KINDS = (SEQUENTIAL, EPOCH_SHUFFLE, RANDOM_IID)

# random-iid draws are computed this many iterations at a time
_CHUNK = 256
# numpy's SeedSequence hash constants and PCG64 multiplier
# (numpy/random/_bit_generator.pyx, pcg64.h); 32-bit arithmetic is mod 2**32
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_M = 0x2360ED051FC65DA44385DF649FCCF645
# seeding and one step leave PCG64 at s = X M^2 + (2Y + 1) C mod 2**128, with
# C = M^2 + M + 1 and the state words X = w0:w1, Y = w2:w3; row r of the table
# multiplies 32-bit limb r of (X, Y) into each limb of s
_PCG_C = (_PCG_M * _PCG_M + _PCG_M + 1) % 2**128
_PCG_TABLE = np.array(
    [[f >> 32 * (c - i) & _M32 if c >= i else 0 for c in range(4)]
     for f in (_PCG_M * _PCG_M, 2 * _PCG_C) for i in range(4)],
    dtype=np.uint64)[..., None]
_PCG_C_LIMBS = np.array([_PCG_C >> 32 * c & _M32 for c in range(4)], dtype=np.uint64)[:, None]


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
    an array that was just computed.  Either way `data` is a read-only view.
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
        """A vector over the float64 array `data` without a copy.  The
        vector's `data` is a read-only view; `data` itself stays writable,
        and a vector over an array that its creator keeps writing shows the
        new values (as `solve`'s one vector over its iterate does)."""
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
        if i > 0:
            try:
                return self.data[self.layout.slices[i - 1]]
            except IndexError:
                pass
        return self.data[self.layout.block_slice(i)]  # raises, naming i

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

    def norm(self):
        return _norm(self.data)

    def block_norms(self):
        return [_norm(self.data[s]) for s in self.layout.slices]


def _sumsq(a):
    """Sum of squares of the entries of a float64 or complex128 array, as a float.

    The one place in the package where a sum of squares goes through BLAS
    (`ddot`): the fidelity values, the solver's norms, finiteness test and
    `rmse`, the power iterations, the inexact denoiser's unit vectors and
    the runner's perturbation sizes all call it or `_norm`.  Bit for bit
    the square `np.linalg.norm` takes the root of: it ravels the array in
    memory order, then dots a real array with itself, and a complex one
    as `re.dot(re) + im.dot(im)` on its real and imaginary views.

    Left where they are: the sums of squares that do not go through BLAS
    (`np.sum` in `GaussianPrior`, `GmmPrior`, `implicit_reg_value` and
    `MultiCoilFidelity._sum_of_squares`), and the matrix products of
    `LinearModel` and `GmmPrior`, which go through BLAS but are no sums of
    squares.
    """
    a = a.ravel(order="K")
    if a.dtype.kind == "c":
        re, im = a.real, a.imag
        return float(re.dot(re) + im.dot(im))
    return float(a.dot(a))


def _norm(a):
    """Euclidean norm of a float64 or complex128 array, as a float: the
    square root of `_sumsq(a)`, bit for bit what `np.linalg.norm`
    returns, at a fraction of its cost."""
    return math.sqrt(_sumsq(a))


@dataclass
class BlockSchedule:
    """Block-selection rule: which block index to update at iteration k >= 1.

    The index stream is a pure function of (kind, seed, num_blocks, k):
    random kinds derive a fresh generator per draw (random-iid, `_iid_draw`)
    or per epoch (epoch-shuffle) from a spawned seed sequence, so equal
    inputs always reproduce equal streams and draws can be evaluated out of
    order. Random-iid computes `_CHUNK` draws at a time (`_iid_chunk`), and
    two-block epoch-shuffle `_CHUNK` epoch orders, with the generators'
    arithmetic and no generator; epoch-shuffle over three or more blocks
    keeps the last epoch's permutation.  Each cache is keyed by everything
    that determines it.
    """

    kind: str
    num_blocks: int
    seed: int = 0
    _epoch: tuple = field(default=(None, None), init=False, repr=False, compare=False)
    _draws: tuple = field(default=(None, None), init=False, repr=False, compare=False)

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
            start = epoch - epoch % _CHUNK
            if b == 2 and start + _CHUNK <= 2**32:
                # permutation(2) swaps when bit 0 of the generator's first
                # output is 0, so the epoch's order is (1 - bit, bit)
                key = (self.seed, b, start)
                if self._epoch[0] != key:
                    es = np.arange(start, start + _CHUNK, dtype=np.uint64)
                    bits = _first_output_low(self.seed, (0,), es) & 1
                    self._epoch = (key, bits.tolist())
                return (self._epoch[1][epoch - start] ^ pos ^ 1) + 1
            key = (self.seed, b, epoch)
            if self._epoch[0] != key:
                rng = np.random.default_rng(
                    np.random.SeedSequence(self.seed, spawn_key=(0, epoch))
                )
                self._epoch = (key, rng.permutation(b))
            return int(self._epoch[1][pos]) + 1
        start = k - (k - 1) % _CHUNK
        if b >= 2**32 or start + _CHUNK > 2**32:
            return _iid_draw(self.seed, b, k) + 1
        key = (self.seed, b, start)
        if self._draws[0] != key:
            ks = np.arange(start, start + _CHUNK, dtype=np.uint64)
            self._draws = (key, _iid_chunk(self.seed, b, ks).tolist())
        return self._draws[1][k - start] + 1

    def with_seed(self, seed):
        return BlockSchedule(self.kind, self.num_blocks, seed)


def _iid_draw(seed, b, k):
    """The random-iid stream's definition: the 0-based draw for iteration k."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, k)))
    return int(rng.integers(b))


def _hashmix(v, h, h_next):
    """SeedSequence's hashmix, given its running constant before and after."""
    v = (v ^ h) * h_next & _M32
    return v ^ v >> 16


def _iid_chunk(seed, b, ks):
    """`_iid_draw(seed, b, k)` for each k of the uint64 array `ks`, computed
    with the arithmetic numpy runs inside those calls, for 1 <= b < 2**32 and
    0 <= k < 2**32. A draw that may reach the rejection loop of Lemire's
    method is taken from the definition."""
    m = _first_output_low(seed, (1,), ks) * b
    draws = m >> 32
    for i in np.flatnonzero((m & _M32) < b):
        draws[i] = _iid_draw(seed, b, int(ks[i]))
    return draws


def _first_output_low(seed, prefix, ks):
    """The low 32 bits of the first 64-bit output of
    `default_rng(SeedSequence(seed, spawn_key=prefix + (k,)))` for each k of
    the uint64 array `ks`, with numpy's arithmetic, for 0 <= k < 2**32 and
    a prefix of ints below 2**32."""
    # numpy's pool after every entropy word before k's: the seed's words,
    # padded to 4, and the prefix's; 4 hashes per word went into it
    pool = np.random.SeedSequence(seed, spawn_key=prefix).pool.astype(np.uint64)[:, None]
    n = 4 * (max(4, -(-int(seed).bit_length() // 32)) + len(prefix))
    h = np.array([_INIT_A * pow(_MULT_A, n + j, 2**32) & _M32 for j in range(5)],
                 dtype=np.uint64)[:, None]
    r = (_MIX_L * pool - _MIX_R * _hashmix(ks, h[:4], h[1:])) & _M32
    pool = r ^ r >> 16
    # the eight 32-bit state words, then PCG64's state as four limbs, low first
    h = np.array([_INIT_B * pow(_MULT_B, j, 2**32) & _M32 for j in range(9)],
                 dtype=np.uint64)[:, None]
    st = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], h[:8], h[1:])
    prod = st[[2, 3, 0, 1, 6, 7, 4, 5], None] * _PCG_TABLE
    limbs = (prod & _M32).sum(0) + _PCG_C_LIMBS
    limbs[1:] += (prod[:, :3] >> 32).sum(0)
    for c in range(3):
        limbs[c + 1] += limbs[c] >> 32
    s = limbs & _M32
    # the XSL-RR output's low 32 bits
    x = (s[3] << 32 | s[2]) ^ (s[1] << 32 | s[0])
    rot = s[3] >> 26
    return (x >> rot | x << (64 - rot & 63)) & _M32


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
