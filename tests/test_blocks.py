"""Block vector algebra and block-selection schedules."""

import numpy as np
import pytest

from bcpnp.blocks import (
    BlockLayout,
    BlockSchedule,
    BlockVector,
    complex_to_pairs,
    pairs_to_complex,
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
                epoch, pos = divmod(k - 1, b)
                ss = np.random.SeedSequence(9, spawn_key=(0, epoch))
                return int(np.random.default_rng(ss).permutation(b)[pos]) + 1
            ss = np.random.SeedSequence(9, spawn_key=(1, k))
            return int(np.random.default_rng(ss).integers(b)) + 1

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
