"""Block vector algebra, sums of squares and block-selection schedules."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcpnp.blocks import (
    BlockLayout,
    BlockSchedule,
    BlockVector,
    _norm,
    _sumsq,
    complex_to_pairs,
    pairs_to_complex,
)

# finite doubles over the whole range, subnormals included, and the values
# at which a sum of squares underflows, rounds or overflows
_ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-315, 1e-310, 1e-160, 1e154, -1e200, 1e300]),
    st.floats(min_value=-1e3, max_value=1e3),
)


class TestBlockVector:
    def test_extract_direct_read(self):
        x = BlockVector(BlockLayout((2, 1)), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(x.extract(2), [3.0])

    def test_norm_preservation(self):
        """||x||^2 equals the sum of per-block squared norms."""
        x = BlockVector(BlockLayout((2, 1)), [1.0, 2.0, 3.0])
        assert x.norm() ** 2 == pytest.approx(14.0, abs=0)
        rng = np.random.default_rng(7)
        y = BlockVector(BlockLayout((4, 3, 5)), rng.standard_normal(12))
        total = sum(n**2 for n in y.block_norms())
        np.testing.assert_allclose(total, y.norm() ** 2, rtol=1e-15)

    def test_extract_concatenation_identity(self):
        rng = np.random.default_rng(0)
        x = BlockVector(BlockLayout((4, 3, 5)), rng.standard_normal(12))
        np.testing.assert_array_equal(np.concatenate([x.extract(i) for i in (1, 2, 3)]), x.data)

    def test_inject_round_trip(self):
        rng = np.random.default_rng(1)
        x = BlockVector(BlockLayout((4, 3, 5)), rng.standard_normal(12))
        for i in (1, 2, 3):
            y = x.inject(i, x.extract(i))
            np.testing.assert_array_equal(y.data, x.data)

    def test_inject_direct_write(self):
        x = BlockVector(BlockLayout((2, 1)), [0.0, 0.0, 0.0])
        y = x.inject(1, [5.0, 7.0])
        np.testing.assert_array_equal(y.data, [5.0, 7.0, 0.0])
        np.testing.assert_array_equal(x.data, [0.0, 0.0, 0.0])

    def test_inject_then_extract_bit_exact(self):
        rng = np.random.default_rng(2)
        x = BlockVector(BlockLayout((6, 2)), rng.standard_normal(8))
        v = rng.standard_normal(6)
        assert np.array_equal(x.inject(1, v).extract(1), v)

    def test_resolution_of_identity(self):
        """Summing single-block injections of zero rebuilds the vector."""
        rng = np.random.default_rng(3)
        layout = BlockLayout((3, 4, 2))
        x = BlockVector(layout, rng.standard_normal(9))
        zero = BlockVector(layout, np.zeros(9))
        acc = np.zeros(9)
        for i in (1, 2, 3):
            acc += zero.inject(i, x.extract(i)).data
        np.testing.assert_array_equal(acc, x.data)

    def test_extract_no_aliasing(self):
        x = BlockVector(BlockLayout((2, 2)), [1.0, 2.0, 3.0, 4.0])
        block = x.extract(1)
        block[0] = 99.0
        assert x.data[0] == 1.0

    def test_immutable_data(self):
        x = BlockVector(BlockLayout((3,)), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            x.data[0] = 0.0

    def test_block_is_a_read_only_view(self):
        x = BlockVector(BlockLayout((2, 2)), [1.0, 2.0, 3.0, 4.0])
        view = x.block(2)
        np.testing.assert_array_equal(view, [3.0, 4.0])
        assert np.shares_memory(view, x.data)
        with pytest.raises(ValueError):
            view[0] = 0.0

    def test_computed_vectors_are_immutable_and_unaliased(self):
        """inject and from_blocks own their data and make it read-only."""
        layout = BlockLayout((2, 1))
        x = BlockVector(layout, [1.0, 2.0, 3.0])
        parts = [np.array([5.0, 6.0]), np.array([7.0])]
        for y in (x.inject(1, [5.0, 6.0]), BlockVector.from_blocks(parts, layout),
                  BlockVector.from_blocks(parts)):
            assert y.layout == layout
            assert not y.data.flags.writeable
            assert not np.shares_memory(y.data, x.data)
            assert not any(np.shares_memory(y.data, p) for p in parts)
        with pytest.raises(ValueError):
            BlockVector.from_blocks(parts, BlockLayout((1, 2)))

    def test_layout_slices(self):
        layout = BlockLayout((4, 3, 5))
        assert (layout.num_blocks, layout.total) == (3, 12)
        assert [layout.block_slice(i).start for i in (1, 2, 3)] == [0, 4, 7]
        assert layout.block_slice(3) == slice(7, 12)
        assert layout == BlockLayout([4, 3, 5]) and hash(layout) == hash(BlockLayout((4, 3, 5)))

    def test_errors(self):
        x = BlockVector(BlockLayout((2, 1)), [1.0, 2.0, 3.0])
        with pytest.raises(IndexError):
            x.extract(3)
        with pytest.raises(IndexError):
            x.extract(0)
        with pytest.raises(ValueError):
            x.inject(2, [1.0, 2.0])
        with pytest.raises(ValueError):
            BlockLayout((0, 2))
        with pytest.raises(ValueError):
            BlockVector(BlockLayout((2, 2)), [1.0])


class TestNorm:
    """`_sumsq` and its root `_norm`, which every BLAS sum of squares in the
    package goes through, against `np.dot` and `np.linalg.norm`."""

    # around 10000 entries OpenBLAS `ddot` starts splitting its sum across threads
    SIZES = [1, 9, 73, 4096, 8192, 10001, 32768, 40960]

    @staticmethod
    def _bits(value):
        return np.float64(value).tobytes()

    @staticmethod
    def _with_specials(a, rng):
        """`a` with signed zeros and subnormals placed among its entries."""
        specials = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308]
        spots = rng.choice(a.size, size=min(a.size, len(specials)), replace=False)
        a.flat[spots] = specials[: spots.size]
        return a

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.lists(_ENTRIES, max_size=80), st.integers(0, 80))
    def test_bitwise_equal_to_linalg_norm(self, values, cut):
        a = np.array(values, dtype=np.float64)
        with np.errstate(over="ignore", under="ignore"):
            assert isinstance(_norm(a), float)
            assert self._bits(_norm(a)) == self._bits(np.linalg.norm(a))
            assert self._bits(_sumsq(a)) == self._bits(np.dot(a, a))
            # the block views of a vector, as block_norms reads them
            if a.size >= 2:
                cut = 1 + cut % (a.size - 1)
                x = BlockVector(BlockLayout((cut, a.size - cut)), a)
                assert self._bits(x.norm()) == self._bits(np.linalg.norm(a))
                for s, got in zip(x.layout.slices, x.block_norms()):
                    assert self._bits(got) == self._bits(np.linalg.norm(a[s]))

    @pytest.mark.parametrize("values", [[], [-0.0], [0.0, -0.0], [1e-310] * 7, [1e300, 1e300],
                                        [5e-324], [1e154, -1e154, 3.0]])
    def test_edge_cases(self, values):
        a = np.array(values, dtype=np.float64)
        with np.errstate(over="ignore"):
            assert self._bits(_norm(a)) == self._bits(np.linalg.norm(a))
            assert self._bits(_sumsq(a)) == self._bits(np.dot(a, a))

    @pytest.mark.parametrize("size", SIZES)
    def test_long_vectors(self, size):
        rng = np.random.default_rng(size)
        a = self._with_specials(rng.standard_normal(size), rng)
        assert isinstance(_sumsq(a), float)
        assert self._bits(_sumsq(a)) == self._bits(np.dot(a, a))
        assert self._bits(_norm(a)) == self._bits(np.linalg.norm(a))

    @pytest.mark.parametrize("shape", [(2, 32, 32), (4, 64, 64), (3, 7, 5)])
    def test_complex_coil_stacks(self, shape):
        rng = np.random.default_rng(sum(shape))
        re, im = (self._with_specials(rng.standard_normal(shape), rng) for _ in range(2))
        z = re + 1j * im
        assert isinstance(_sumsq(z), float)
        assert self._bits(_norm(z)) == self._bits(np.linalg.norm(z))
        assert _sumsq(z) == pytest.approx(np.vdot(z, z).real, rel=1e-12)

    def test_no_sum_of_squares_outside_the_helper(self):
        """`np.linalg.norm(`, `np.dot(` and `.dot(` appear in the package
        only inside `_sumsq`, so how sums of squares are formed is decided
        in one function."""
        src = Path(__file__).resolve().parents[1] / "src" / "bcpnp"
        tree = ast.parse((src / "blocks.py").read_text())
        (helper,) = [n for n in tree.body if getattr(n, "name", None) == "_sumsq"]
        inside = range(helper.lineno, helper.end_lineno + 1)
        pattern = re.compile(r"np\.linalg\.norm\(|\.dot\(")
        found = [
            f"{path.name}:{n}: {line.strip()}"
            for path in sorted(src.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), start=1)
            if pattern.search(line) and not (path.name == "blocks.py" and n in inside)
        ]
        assert not found, "sums of squares outside blocks._sumsq:\n" + "\n".join(found)


def _iid_formula(seed, b, k):
    """The random-iid stream's definition: one generator per draw."""
    ss = np.random.SeedSequence(seed, spawn_key=(1, k))
    return int(np.random.default_rng(ss).integers(b)) + 1


def _epoch_formula(seed, b, k):
    """The epoch-shuffle stream's definition: one permutation per epoch."""
    epoch, pos = divmod(k - 1, b)
    ss = np.random.SeedSequence(seed, spawn_key=(0, epoch))
    return int(np.random.default_rng(ss).permutation(b)[pos]) + 1


class TestSchedules:
    def test_sequential_modulo(self):
        sched = BlockSchedule("sequential", 3)
        assert [sched.next_index(k) for k in (1, 2, 3, 4)] == [1, 2, 3, 1]

    def test_epoch_shuffle_permutations(self):
        """Every window of b consecutive indices is a permutation of 1..b."""
        sched = BlockSchedule("epoch-shuffle", 4, seed=5)
        stream = [sched.next_index(k) for k in range(1, 4 * 50 + 1)]
        for e in range(50):
            window = stream[4 * e : 4 * (e + 1)]
            assert sorted(window) == [1, 2, 3, 4]
        # not a constant ordering across epochs
        assert len({tuple(stream[4 * e : 4 * (e + 1)]) for e in range(50)}) > 1

    def test_random_iid_frequency(self):
        """Empirical block-1 frequency matches the uniform law (counting)."""
        sched = BlockSchedule("random-iid", 2, seed=123)
        draws = np.array([sched.next_index(k) for k in range(1, 100001)])
        freq = np.mean(draws == 1)
        assert abs(freq - 0.5) < 0.01

    def test_streams_are_pure_functions(self):
        for kind in ("sequential", "epoch-shuffle", "random-iid"):
            a = BlockSchedule(kind, 3, seed=9)
            b = BlockSchedule(kind, 3, seed=9)
            ks = list(range(1, 61))
            fwd = [a.next_index(k) for k in ks]
            rev = [b.next_index(k) for k in reversed(ks)][::-1]
            assert fwd == rev

    @pytest.mark.parametrize("kind", ["sequential", "epoch-shuffle", "random-iid"])
    @pytest.mark.parametrize("b", [1, 2, 3, 5])
    def test_stream_equals_per_draw_formula(self, kind, b):
        """Draws over three epochs, in order, reversed and shuffled, equal
        the definition: one generator per draw (random-iid) or per epoch
        (epoch-shuffle) from a spawned seed sequence."""

        def formula(k):
            if kind == "sequential":
                return 1 + (k - 1) % b
            if kind == "epoch-shuffle":
                return _epoch_formula(9, b, k)
            return _iid_formula(9, b, k)

        ks = list(range(1, 3 * b + 1))
        want = [formula(k) for k in ks]
        shuffled = [int(k) for k in np.random.default_rng(b).permutation(ks)]
        sched = BlockSchedule(kind, b, seed=9)
        for order in (ks, ks[::-1], shuffled):
            got = {k: sched.next_index(k) for k in order}
            assert [got[k] for k in ks] == want
        # a changed seed or block count is not served the kept permutation
        sched.seed = 10
        assert [sched.next_index(k) for k in ks] == [
            BlockSchedule(kind, b, seed=10).next_index(k) for k in ks
        ]

    @pytest.mark.parametrize("seed", [0, 3, 19, 2**32 - 1, 2**40 + 3, 2**130 + 9])
    def test_chunked_stream_equals_definition(self, seed):
        """Random-iid draws and two-block epoch orders, computed a chunk at
        a time, equal one generator per draw or epoch over several chunks,
        read in order, reversed and shuffled; a seed of more than four
        32-bit words included."""
        ks = list(range(1, 601))
        shuffled = [int(k) for k in np.random.default_rng(seed % 97).permutation(ks)]
        cases = [("random-iid", b, _iid_formula) for b in (1, 2, 3, 5, 16)]
        for kind, b, formula in cases + [("epoch-shuffle", 2, _epoch_formula)]:
            want = [formula(seed, b, k) for k in ks]
            sched = BlockSchedule(kind, b, seed=seed)
            for order in (ks, ks[::-1], shuffled):
                got = {k: sched.next_index(k) for k in order}
                assert [got[k] for k in ks] == want

    def test_two_block_epoch_shuffle_over_many_seeds(self):
        for seed in range(40):
            sched = BlockSchedule("epoch-shuffle", 2, seed=seed)
            ks = range(1, 601)
            assert [sched.next_index(k) for k in ks] == [_epoch_formula(seed, 2, k) for k in ks]

    def test_two_block_epochs_of_two_words_follow_the_definition(self):
        """Epochs from 2**32 - 3 on, past the chunk arithmetic's range."""
        ks = range(2 * (2**32 - 3) + 1, 2 * (2**32 + 3) + 1)
        sched = BlockSchedule("epoch-shuffle", 2, seed=7)
        assert [sched.next_index(k) for k in ks] == [_epoch_formula(7, 2, k) for k in ks]

    @pytest.mark.parametrize("b, ks", [
        (3 * 2**30, range(1, 301)),  # about 3 in 4 draws may reach Lemire's rejection loop
        (2**32 + 1, range(1, 11)),  # numpy's 64-bit bounded draw
        (3, range(2**32 - 3, 2**32 + 3)),  # k of two 32-bit words
    ])
    def test_draws_outside_the_chunk_arithmetic_follow_the_definition(self, b, ks):
        sched = BlockSchedule("random-iid", b, seed=7)
        assert [sched.next_index(k) for k in ks] == [_iid_formula(7, b, k) for k in ks]

    def test_seed_changes_stream(self):
        a = BlockSchedule("random-iid", 4, seed=1)
        b = BlockSchedule("random-iid", 4, seed=2)
        sa = [a.next_index(k) for k in range(1, 101)]
        sb = [b.next_index(k) for k in range(1, 101)]
        assert sa != sb

    def test_invalid(self):
        with pytest.raises(ValueError):
            BlockSchedule("roundrobin", 2)
        with pytest.raises(ValueError):
            BlockSchedule("sequential", 2).next_index(0)


class TestComplexPairs:
    def test_round_trip(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        np.testing.assert_array_equal(pairs_to_complex(complex_to_pairs(z)), z)

    def test_interleaving(self):
        pairs = complex_to_pairs(np.array([1.0 + 2.0j, 3.0 - 4.0j]))
        np.testing.assert_array_equal(pairs, [1.0, 2.0, 3.0, -4.0])

    def test_packing_follows_index_order_for_any_layout(self):
        """Pairs come in C index order whatever the input's memory layout,
        in a new array."""
        rng = np.random.default_rng(6)
        z = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        for a in (z, z.T, z[:, ::-1], z[::2], np.asfortranarray(z)):
            want = np.empty(2 * a.size)
            want[0::2], want[1::2] = a.real.ravel(), a.imag.ravel()
            got = complex_to_pairs(a)
            assert got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, a)

    def test_norm_equality(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        np.testing.assert_allclose(
            np.linalg.norm(complex_to_pairs(z)), np.linalg.norm(z), rtol=1e-15
        )

    def test_exact_inverse_keeps_every_bit(self):
        """-0.0, inf, nan and subnormals survive both directions, and
        unpacking copies its input whatever its memory layout."""
        pairs = np.array([-0.0, 1.0, 2.0, np.inf, np.nan, -0.0, -np.inf, 5e-324])
        z = pairs_to_complex(pairs)
        assert complex_to_pairs(z).tobytes() == pairs.tobytes()
        assert pairs_to_complex(complex_to_pairs(z)).tobytes() == z.tobytes()
        assert not np.shares_memory(z, pairs)
        flipped = pairs_to_complex(pairs[::-1], (2, 2))
        assert flipped.shape == (2, 2)
        assert complex_to_pairs(flipped).tobytes() == pairs[::-1].tobytes()

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            pairs_to_complex([1.0, 2.0, 3.0])
