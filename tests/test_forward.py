"""Measurement models, fidelity gradients, and Lipschitz certification.

Oracles: a direct O(n^2) circular-convolution sum, central finite
differences of the fidelity value, dense SVD for spectral norms, and
sample statistics for the synthesized noise.
"""

import tracemalloc

import numpy as np
import pytest

from bcpnp import forward
from bcpnp.blocks import BlockLayout, BlockVector, complex_to_pairs, pairs_to_complex
from bcpnp.forward import (
    BlindConvolutionModel,
    ConvolutionFidelity,
    LinearFidelity,
    LinearModel,
    MultiCoilFidelity,
    MultiCoilModel,
    estimate_block_lipschitz,
    synthesize,
    with_full_constant,
)

from desk_problems import two_coil_problem


def naive_circular_convolution(kernel, image):
    """Direct double sum over kernel taps with wrapped indices."""
    H, W = image.shape
    h, w = kernel.shape
    ch, cw = h // 2, w // 2
    out = np.zeros_like(image)
    for i in range(H):
        for j in range(W):
            acc = 0.0
            for a in range(h):
                for b in range(w):
                    ii = (i - (a - ch)) % H
                    jj = (j - (b - cw)) % W
                    acc += kernel[a, b] * image[ii, jj]
            out[i, j] = acc
    return out


def fd_gradient(func, x, step=1e-6):
    grad = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        grad[j] = (func(x + e) - func(x - e)) / (2 * step)
    return grad


def delta_kernel(shape):
    k = np.zeros(shape)
    k[shape[0] // 2, shape[1] // 2] = 1.0
    return k


def make_conv_problem(rng, image_shape=(8, 8), kernel_shape=(3, 3), noise=0.0):
    model = BlindConvolutionModel(image_shape, kernel_shape)
    v = rng.random(image_shape).ravel()
    theta = rng.random(kernel_shape).ravel()
    theta /= theta.sum()
    y = synthesize(model, v, theta, noise_sigma=noise, seed=99)
    return model, ConvolutionFidelity(model, y), v, theta


def make_coil_problem(rng, image_shape=(8, 8), coils=2, full_mask=False):
    mask = np.ones(image_shape) if full_mask else (
        rng.random(image_shape) < 0.6
    ).astype(float)
    mask[0, 0] = 1.0
    model = MultiCoilModel(image_shape, coils, mask)
    v = rng.standard_normal(image_shape) + 1j * rng.standard_normal(image_shape)
    maps = rng.standard_normal((coils,) + image_shape) * 0.5 + 0.8
    maps = maps + 1j * rng.standard_normal((coils,) + image_shape) * 0.3
    y = synthesize(model, v, maps, noise_sigma=0.0, seed=7)
    return model, MultiCoilFidelity(model, y), v, maps


class TestConvolutionModel:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        model = BlindConvolutionModel((6, 6), (3, 3))
        v = rng.standard_normal(36)
        np.testing.assert_allclose(
            model.forward(delta_kernel((3, 3)), v), v, atol=1e-14
        )

    @pytest.mark.parametrize(
        "image, kernel", [((8, 8), (3, 3)), ((5, 7), (5, 3)), ((4, 6), (1, 5))]
    )
    def test_embed_and_extract_match_rolls(self, image, kernel):
        """The flat-index embedding equals padding and rolling the center to
        the origin, and the crop is its inverse."""
        model = BlindConvolutionModel(image, kernel)
        k = np.random.default_rng(3).standard_normal(kernel)
        padded = np.zeros(image)
        padded[: kernel[0], : kernel[1]] = k
        rolled = np.roll(padded, (-(kernel[0] // 2), -(kernel[1] // 2)), axis=(0, 1))
        assert model._embed(k.ravel()).tobytes() == rolled.tobytes()
        assert model._extract(rolled).tobytes() == k.ravel().tobytes()

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(1)
        model = BlindConvolutionModel((4, 4), (3, 3))
        v = rng.standard_normal((4, 4))
        k = rng.standard_normal((3, 3))
        expected = naive_circular_convolution(k, v)
        got = model.forward(k.ravel(), v.ravel()).reshape(4, 4)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_adjoint_consistency(self):
        """<A v, w> == <v, A^T w> to 1e-10 relative, random operator."""
        rng = np.random.default_rng(2)
        model = BlindConvolutionModel((8, 8), (5, 3))
        theta = rng.standard_normal(15)
        v = rng.standard_normal(64)
        w = rng.standard_normal(64)
        lhs = np.dot(model.forward(theta, v), w)
        rhs = np.dot(v, model.adjoint_v(theta, w))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)
        # kernel-side adjoint
        dk = rng.standard_normal(15)
        lhs2 = np.dot(model.forward(dk, v), w)
        rhs2 = np.dot(dk, model.adjoint_theta(v, w))
        np.testing.assert_allclose(lhs2, rhs2, rtol=1e-10)

    def test_bilinear_symmetry_matching_shapes(self):
        """theta (*) v == v (*) theta when both live on the same grid."""
        rng = np.random.default_rng(3)
        model = BlindConvolutionModel((5, 5), (5, 5))
        a = rng.standard_normal(25)
        b = rng.standard_normal(25)
        np.testing.assert_allclose(
            model.forward(a, b), model.forward(b, a), atol=1e-12
        )

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            BlindConvolutionModel((8, 8), (2, 3))
        with pytest.raises(ValueError):
            BlindConvolutionModel((4, 4), (5, 5))


class TestConvolutionFidelity:
    def test_zero_gradient_at_consistent_pair(self):
        rng = np.random.default_rng(4)
        model, fid, v, theta = make_conv_problem(rng)
        np.testing.assert_allclose(fid.grad_v(v, theta), 0, atol=1e-12)
        np.testing.assert_allclose(fid.grad_theta(v, theta), 0, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        model, fid, v, theta = make_conv_problem(rng, noise=0.05)
        for _ in range(5):
            x = BlockVector.from_blocks(
                [rng.standard_normal(64), rng.standard_normal(9)]
            )

            def value_of(flat):
                return fid.value(BlockVector(x.layout, flat))

            fd = fd_gradient(value_of, x.data.copy())
            got = fid.grad(x).data
            np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-8)

    def test_scaling_invariance_direction(self):
        """g((a v, theta / a)) is constant in a, so its a-derivative is 0."""
        rng = np.random.default_rng(6)
        model, fid, v, theta = make_conv_problem(rng, noise=0.1)
        v2 = rng.standard_normal(64)
        g0 = fid.value(BlockVector.from_blocks([v2, theta]))
        for a in (0.5, 2.0, 1.001):
            ga = fid.value(BlockVector.from_blocks([a * v2, theta / a]))
            np.testing.assert_allclose(ga, g0, rtol=1e-12)

    def test_hessian_vec_matches_fd_of_gradient(self):
        rng = np.random.default_rng(7)
        model, fid, v, theta = make_conv_problem(rng, noise=0.02)
        x = BlockVector.from_blocks([rng.standard_normal(64), rng.standard_normal(9)])
        u = BlockVector.from_blocks([rng.standard_normal(64), rng.standard_normal(9)])
        step = 1e-6
        xp = BlockVector(x.layout, x.data + step * u.data)
        xm = BlockVector(x.layout, x.data - step * u.data)
        fd = (fid.grad(xp).data - fid.grad(xm).data) / (2 * step)
        np.testing.assert_allclose(fid.hessian_vec(x, u).data, fd, rtol=1e-5, atol=1e-6)


class TestMultiCoilModel:
    def test_single_coil_full_mask_is_unitary(self):
        rng = np.random.default_rng(8)
        model = MultiCoilModel((8, 8), 1, np.ones((8, 8)))
        v = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        y = model.forward(np.ones((1, 8, 8), dtype=complex), v)
        np.testing.assert_allclose(
            np.linalg.norm(y), np.linalg.norm(v), rtol=1e-12
        )

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        model, fid, v, maps = make_coil_problem(rng)
        layout = fid.layout
        for _ in range(5):
            x = BlockVector(layout, rng.standard_normal(layout.total))

            def value_of(flat):
                return fid.value(BlockVector(layout, flat))

            fd = fd_gradient(value_of, x.data.copy())
            np.testing.assert_allclose(fid.grad(x).data, fd, rtol=1e-5, atol=1e-8)

    def test_zero_gradient_at_consistent_pair(self):
        rng = np.random.default_rng(10)
        model, fid, v, maps = make_coil_problem(rng)
        x = BlockVector.from_blocks(
            [complex_to_pairs(v), complex_to_pairs(maps)]
        )
        np.testing.assert_allclose(fid.grad(x).data, 0, atol=1e-12)

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            MultiCoilModel((4, 4), 1, np.full((4, 4), 0.5))

    def test_hessian_vec_matches_fd_of_gradient(self):
        rng = np.random.default_rng(16)
        model, fid, v, maps = make_coil_problem(rng)
        layout = fid.layout
        x = BlockVector(layout, rng.standard_normal(layout.total))
        u = BlockVector(layout, rng.standard_normal(layout.total))
        step = 1e-6
        xp = BlockVector(layout, x.data + step * u.data)
        xm = BlockVector(layout, x.data - step * u.data)
        fd = (fid.grad(xp).data - fid.grad(xm).data) / (2 * step)
        np.testing.assert_allclose(fid.hessian_vec(x, u).data, fd, rtol=1e-5, atol=1e-6)


def _bilinear_problems():
    """(fidelity, random point) for the convolution and multi-coil fidelities."""
    rng = np.random.default_rng(17)
    out = []
    for fid in (make_conv_problem(rng, noise=0.05)[1], make_coil_problem(rng)[1]):
        out.append((fid, BlockVector(fid.layout, rng.standard_normal(fid.layout.total))))
    return out


def _all_problems():
    rng = np.random.default_rng(18)
    A = rng.standard_normal((9, 8))
    layout = BlockLayout((5, 3))
    linear = LinearFidelity(LinearModel(A), layout, rng.standard_normal(9))
    return _bilinear_problems() + [(linear, BlockVector(layout, rng.standard_normal(8)))]


class TestSharedEvaluations:
    """The fused evaluations equal their one-operator-at-a-time definitions."""

    @pytest.mark.parametrize("case", range(3))
    def test_block_product_is_block_of_full_product(self, case):
        fid, x = _all_problems()[case]
        layout = fid.layout
        rng = np.random.default_rng(19)
        for i in range(1, layout.num_blocks + 1):
            u = rng.standard_normal(layout.sizes[i - 1])
            full = BlockVector(layout, np.zeros(layout.total)).inject(i, u)
            want = fid.hessian_vec(x, full).extract(i)
            got = fid.hessian_vec(x, u, block=i)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("case", range(2))
    def test_grad_is_block_gradients_bitwise(self, case):
        fid, x = _bilinear_problems()[case]
        want = np.concatenate([fid.grad_v(x.extract(1), x.extract(2)),
                               fid.grad_theta(x.extract(1), x.extract(2))])
        assert fid.grad(x).data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", range(2))
    def test_full_product_is_operator_composition_bitwise(self, case):
        """H(x)u equals its terms, each operator applied on its own."""
        fid, x = _bilinear_problems()[case]
        u = BlockVector(fid.layout, np.random.default_rng(22).standard_normal(fid.layout.total))
        m = fid.model
        if case == 0:
            adjoint_theta = m.adjoint_theta
            v, th, dv, dth = x.extract(1), x.extract(2), u.extract(1), u.extract(2)
        else:
            adjoint_theta = m.adjoint_maps
            v, dv = (pairs_to_complex(b.extract(1), m.image_shape) for b in (x, u))
            th, dth = (pairs_to_complex(b.extract(2), (m.num_coils,) + m.image_shape)
                       for b in (x, u))
        r = m.forward(th, v) - fid.y
        s = m.forward(th, dv) + m.forward(dth, v)
        hv = m.adjoint_v(th, s) + m.adjoint_v(dth, r)
        ht = adjoint_theta(v, s) + adjoint_theta(dv, r)
        if case == 1:
            hv, ht = complex_to_pairs(hv), complex_to_pairs(ht)
        want = np.concatenate([hv, ht])
        assert fid.hessian_vec(x, u).data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", range(3))
    def test_value_and_grad_is_value_and_grad_bitwise(self, case):
        fid, x = _all_problems()[case]
        value, grad = fid.value_and_grad(x)
        assert value == fid.value(x)
        assert grad.data.tobytes() == fid.grad(x).data.tobytes()

    @pytest.mark.parametrize("case", range(3))
    @pytest.mark.parametrize("blocks", [[1], [2], [1, 2]])
    def test_grad_of_some_blocks_is_those_blocks_bitwise(self, case, blocks):
        """`grad_block(x, i)`, for each asked block i in turn, is block i of
        grad g(x) with zeros elsewhere, at a fresh point and at points that
        change block i and repeat the others."""
        fid, x = _all_problems()[case]
        for step in range(3):
            for i in blocks:
                x = _change_block(x, i) if step else x
                got = fid.grad_block(x, i)
                want = np.zeros(fid.layout.total)
                want[fid.layout.block_slice(i)] = fid.grad(x).block(i)
                assert got.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", [0, 1], ids=["convolution", "multicoil"])
    def test_each_evaluation_forms_its_residuals(self, case, count_calls):
        """A value or a gradient forms the residual once, a full
        Hessian-vector product once, and a product restricted to a block
        and `adjoint_init` never; the benchmark's
        `forward.residual_per_iter` counts these calls."""
        fid, x = _bilinear_problems()[case]
        u = BlockVector(fid.layout, np.random.default_rng(25).standard_normal(fid.layout.total))
        out = np.empty(fid.layout.total)
        evaluations = {
            "value": (lambda: fid.value(x), 1),
            "grad": (lambda: fid.grad(x), 1),
            "grad out=": (lambda: fid.grad(x, out=out), 1),
            "grad_block 1": (lambda: fid.grad_block(x, 1), 1),
            "grad_block 2": (lambda: fid.grad_block(x, 2, out=out), 1),
            "value_and_grad": (lambda: fid.value_and_grad(x), 1),
            "value_and_grad out=": (lambda: fid.value_and_grad(x, out=out), 1),
            "hessian_vec": (lambda: fid.hessian_vec(x, u), 1),
            "hessian_vec 1": (lambda: fid.hessian_vec(x, u.extract(1), block=1), 0),
            "hessian_vec 2": (lambda: fid.hessian_vec(x, u.extract(2), block=2), 0),
            "adjoint_init": (lambda: fid.adjoint_init(x.extract(2)), 0),
        }
        calls = count_calls(type(fid), "residual")
        got = {}
        for name, (evaluate, _) in evaluations.items():
            calls.clear()
            evaluate()
            got[name] = len(calls)
        assert got == {name: want for name, (_, want) in evaluations.items()}

    @pytest.mark.parametrize("case", range(3))
    def test_bad_block_index(self, case):
        fid, x = _all_problems()[case]
        for block in (0, fid.layout.num_blocks + 1):
            with pytest.raises(IndexError):
                fid.hessian_vec(x, np.zeros(4), block=block)
            with pytest.raises(IndexError):
                fid.grad_block(x, block)


class _FftCount:
    """Calls of the models' transform helpers, each counted under the name
    of the numpy transform it equals, the planes they transform (a call on
    a stack of planes transforms each of them), and the shape each call
    passes."""

    def __init__(self):
        self.calls, self.planes, self.shapes = {}, {}, []

    def clear(self):
        self.calls.clear()
        self.planes.clear()
        self.shapes.clear()

    def add(self, name, a, shape):
        self.calls[name] = self.calls.get(name, 0) + 1
        self.planes[name] = self.planes.get(name, 0) + int(np.prod(np.shape(a)[:-2]))
        self.shapes.append(shape)

    def total(self):
        return sum(self.planes.values())


@pytest.fixture
def fft(monkeypatch):
    count = _FftCount()
    rfft2, irfft2, dft2 = forward._rfft2, forward._irfft2, forward._dft2

    def counted_rfft2(a, shape, out=None):
        count.add("rfft2", a, shape)
        return rfft2(a, shape, out)

    def counted_irfft2(spectrum, shape, out=None):
        count.add("irfft2", spectrum, shape)
        return irfft2(spectrum, shape, out)

    def counted_dft2(stack, shape, inverse=False):
        count.add("ifft2" if inverse else "fft2", stack, shape)
        return dft2(stack, shape, inverse)

    monkeypatch.setattr(forward, "_rfft2", counted_rfft2)
    monkeypatch.setattr(forward, "_irfft2", counted_irfft2)
    monkeypatch.setattr(forward, "_dft2", counted_dft2)
    return count


def _change_block(x, i, step=1.0):
    """x with one entry of block i moved by `step`; the other blocks repeat."""
    block = x.extract(i)
    block[0] += step
    return x.inject(i, block)


class TestTransformBudgets:
    """Each evaluation transforms each distinct array once, and a
    convolution fidelity does not transform again an image block or a
    kernel that it transformed last."""

    def test_convolution_grad_takes_six(self, fft):
        fid, x = _bilinear_problems()[0]
        fft.clear()
        fid.grad(x)  # a new point: both blocks, the residual and two adjoints
        assert fft.planes == {"rfft2": 3, "irfft2": 3}
        assert fft.calls == {"rfft2": 3, "irfft2": 2}  # the adjoints share one call
        for i in (1, 2):  # one block repeated
            x = _change_block(x, i)
            fft.clear()
            fid.grad(x)
            assert fft.total() == 5
        fft.clear()
        fid.value_and_grad(x)  # both blocks repeated
        assert fft.total() == 4
        fft.clear()
        fid.value(x)
        assert fft.total() == 1

    @pytest.mark.parametrize("block", [1, 2])
    def test_convolution_grad_of_one_block_takes_four(self, fft, block):
        """The changed block's gradient alone, at a point that repeats the
        other block, takes one adjoint plane, not two; a frozen-kernel solve
        asks for just that at every point after its first."""
        fid, x = _bilinear_problems()[0]
        fid.grad(x)
        x = _change_block(x, block)
        fft.clear()
        fid.grad_block(x, block)
        assert fft.planes == {"rfft2": 2, "irfft2": 2}

    @pytest.mark.parametrize("block, budget", [(None, 13), (1, 5), (2, 5)])
    def test_convolution_hessian_vec(self, fft, block, budget):
        """`budget` at a new point; at the same point again (as in a power
        iteration) the spectra of x's blocks are kept."""
        fid, x = _bilinear_problems()[0]
        rng = np.random.default_rng(23)
        for budget in (budget, {None: 11, 1: 4, 2: 4}[block]):
            size = fid.layout.total if block is None else fid.layout.sizes[block - 1]
            u = rng.standard_normal(size)
            u = BlockVector(fid.layout, u) if block is None else u
            fft.clear()
            fid.hessian_vec(x, u, block=block)
            assert fft.total() == budget

    @pytest.mark.parametrize("case", [0, 1], ids=["convolution", "multicoil"])
    def test_every_transform_passes_the_image_shape(self, fft, case):
        """Each transform of a gradient or a Hessian-vector product is
        told the model's image shape, not another."""
        fid, x = _bilinear_problems()[case]
        rng = np.random.default_rng(24)
        fft.clear()
        fid.value_and_grad(x)
        for i in (1, 2):
            fid.grad_block(_change_block(x, i), i)
        fid.hessian_vec(x, BlockVector(fid.layout, rng.standard_normal(fid.layout.total)))
        for i in (1, 2):
            fid.hessian_vec(x, rng.standard_normal(fid.layout.sizes[i - 1]), block=i)
        assert len(fft.shapes) >= 10
        assert set(fft.shapes) == {fid.model.image_shape}

    @pytest.mark.parametrize("coils", [1, 3])
    def test_multicoil_grad_takes_two_per_coil(self, fft, coils):
        rng = np.random.default_rng(20)
        _, fid, _, _ = make_coil_problem(rng, coils=coils)
        x = BlockVector(fid.layout, rng.standard_normal(fid.layout.total))
        for grad in (fid.grad, lambda x: fid.grad_block(x, 1), lambda x: fid.grad_block(x, 2)):
            fft.clear()
            grad(x)
            assert fft.planes == {"fft2": coils, "ifft2": coils}
            assert fft.calls == {"fft2": 1, "ifft2": 1}  # one call over the coil stack

    @pytest.mark.parametrize("block, per_coil", [(None, 5), (1, 2), (2, 2)])
    def test_multicoil_hessian_vec(self, fft, block, per_coil):
        rng = np.random.default_rng(21)
        _, fid, _, _ = make_coil_problem(rng, coils=3)
        x = BlockVector(fid.layout, rng.standard_normal(fid.layout.total))
        u = x if block is None else x.extract(block)
        fft.clear()
        fid.hessian_vec(x, u, block=block)
        assert fft.total() == 3 * per_coil


class TestStackedTransforms:
    """numpy transforms each plane of a stack bit for bit as it transforms
    that plane alone; the stacked coil DFTs and the stacked convolution
    adjoints rely on it."""

    @pytest.mark.parametrize("shape", [(2, 8, 8), (3, 64, 64), (2, 9, 7), (4, 5, 12)])
    def test_real_transforms(self, shape):
        a = np.random.default_rng(30).standard_normal(shape)
        spectra = np.fft.rfft2(a)
        back = np.fft.irfft2(spectra, s=shape[1:])
        for i in range(shape[0]):
            assert spectra[i].tobytes() == np.fft.rfft2(a[i]).tobytes()
            assert back[i].tobytes() == np.fft.irfft2(spectra[i], s=shape[1:]).tobytes()

    @pytest.mark.parametrize("shape", [(1, 8, 8), (4, 64, 64), (3, 9, 7)])
    def test_unitary_complex_transforms(self, shape):
        rng = np.random.default_rng(31)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        forward, inverse = np.fft.fft2(z, norm="ortho"), np.fft.ifft2(z, norm="ortho")
        for i in range(shape[0]):
            assert forward[i].tobytes() == np.fft.fft2(z[i], norm="ortho").tobytes()
            assert inverse[i].tobytes() == np.fft.ifft2(z[i], norm="ortho").tobytes()

    def test_stacked_coil_operators_equal_per_coil_loops(self):
        rng = np.random.default_rng(32)
        model, fid, _, _ = make_coil_problem(rng, coils=3)
        maps = rng.standard_normal((3,) + model.image_shape) + 1j
        v = rng.standard_normal(model.image_shape) - 1j
        w = fid.y
        want_fwd = np.stack([model.mask * np.fft.fft2(m * v, norm="ortho") for m in maps])
        want_back = np.stack([np.fft.ifft2(model.mask * c, norm="ortho") for c in w])
        want_adj = np.zeros(model.image_shape, dtype=complex)
        for m, b in zip(maps, want_back):
            want_adj += np.conj(m) * b
        assert model.forward(maps, v).tobytes() == want_fwd.tobytes()
        assert model.inverse(w).tobytes() == want_back.tobytes()
        assert model.adjoint_v(maps, w).tobytes() == want_adj.tobytes()

    def test_stacked_convolution_adjoints_equal_separate(self):
        model, fid, v, k = make_conv_problem(np.random.default_rng(33), noise=0.05)
        ft, fv, fw = model.kernel_spectrum(k), model.spectrum(v), model.spectrum(fid.y)
        adj_v, adj_theta = model.adjoints(ft, fv, fw)
        assert adj_v.tobytes() == model.adjoint_v(k, fid.y).tobytes()
        assert adj_theta.tobytes() == model.adjoint_theta(v, fid.y).tobytes()


class _AllocatingMultiCoil:
    """The multi-coil model and fidelity as first written, allocating every
    intermediate: blocks copied to complex by `pairs_to_complex`, a fresh
    stack for each product and transform, the float mask cast by numpy at
    each product, and results packed by `complex_to_pairs` and joined by
    `BlockVector.from_blocks`."""

    def __init__(self, fid):
        self.mask, self.y, self.layout = fid.model.mask, fid.y, fid.layout
        self.shape = fid.model.image_shape
        self.stack = (fid.model.num_coils,) + self.shape

    def unpack(self, x):
        return (pairs_to_complex(x.block(1), self.shape),
                pairs_to_complex(x.block(2), self.stack))

    def forward(self, maps, v):
        return self.mask * np.fft.fft2(maps * v, s=self.shape, norm="ortho")

    def inverse(self, w):
        return np.fft.ifft2(self.mask * w, s=self.shape, norm="ortho")

    def adjoint_v(self, maps, w, back=None):
        back = self.inverse(w) if back is None else back
        img = np.zeros(self.shape, dtype=np.complex128)
        for term in np.conj(maps) * back:
            img += term
        return img

    def adjoint_maps(self, v, w, back=None):
        back = self.inverse(w) if back is None else back
        return np.conj(v) * back

    def value_and_grad(self, x, blocks=(1, 2)):
        v, maps = self.unpack(x)
        r = self.forward(maps, v) - self.y
        back = self.inverse(r)
        parts = [complex_to_pairs(self.adjoint_v(maps, r, back)) if 1 in blocks
                 else np.zeros(self.layout.sizes[0]),
                 complex_to_pairs(self.adjoint_maps(v, r, back)) if 2 in blocks
                 else np.zeros(self.layout.sizes[1])]
        return 0.5 * float(np.sum(np.abs(r) ** 2)), BlockVector.from_blocks(parts, self.layout)

    def hessian_vec(self, x, u, block=None):
        v, maps = self.unpack(x)
        if block == 1:
            return complex_to_pairs(
                self.adjoint_v(maps, self.forward(maps, pairs_to_complex(u, self.shape))))
        if block == 2:
            dmaps = pairs_to_complex(u, self.stack)
            return complex_to_pairs(self.adjoint_maps(v, self.forward(dmaps, v)))
        dv, dmaps = self.unpack(u)
        r = self.forward(maps, v) - self.y
        s = self.forward(maps, dv) + self.forward(dmaps, v)
        back_s, back_r = self.inverse(s), self.inverse(r)
        hv = self.adjoint_v(maps, s, back_s) + self.adjoint_v(dmaps, r, back_r)
        ht = self.adjoint_maps(v, s, back_s) + self.adjoint_maps(dv, r, back_r)
        return BlockVector.from_blocks([complex_to_pairs(hv), complex_to_pairs(ht)],
                                       self.layout)

    def adjoint_init(self, theta_pairs):
        return complex_to_pairs(self.adjoint_v(pairs_to_complex(theta_pairs, self.stack), self.y))


def _held_arrays(fid):
    """Every array that a fidelity holds, found rather than named: its
    ndarray attributes (its work buffers and `y`) and those of the objects
    it holds (its model and its kept spectra)."""
    arrays = []
    for a in vars(fid).values():
        held = [a] if isinstance(a, np.ndarray) else getattr(a, "__dict__", {}).values()
        arrays += [b for b in held if isinstance(b, np.ndarray)]
    assert arrays
    return arrays


def _signed_zero_point(rng, layout):
    """A random point with a fifth of its entries set to +0.0 or -0.0."""
    data = rng.standard_normal(layout.total)
    zeros = rng.random(layout.total) < 0.2
    data[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return BlockVector(layout, data)


_COIL_CASES = [((8, 8), 1), ((8, 8), 2), ((6, 10), 4)]


class TestInPlaceMultiCoil:
    """The multi-coil model and fidelity, computing in preallocated
    buffers through complex views of the blocks, give every bit of the
    allocating formulation, and what they return is never a buffer."""

    @staticmethod
    def _case(shape, coils):
        rng = np.random.default_rng(50 + coils)
        model, fid, _, _ = make_coil_problem(rng, image_shape=shape, coils=coils)
        return model, fid, _AllocatingMultiCoil(fid), rng

    @pytest.mark.parametrize("shape, coils", _COIL_CASES)
    def test_model_operators_with_and_without_out(self, shape, coils):
        model, fid, ref, rng = self._case(shape, coils)
        x = _signed_zero_point(rng, fid.layout)
        v, maps = ref.unpack(x)
        w = fid.y + ref.forward(maps, v)
        back = ref.inverse(w)
        cases = [
            (model.forward, (maps, v), ref.forward(maps, v), ref.stack),
            (model.inverse, (w,), back, ref.stack),
            (model.adjoint_v, (maps, w), ref.adjoint_v(maps, w), ref.shape),
            (model.adjoint_v, (maps, w, back), ref.adjoint_v(maps, w, back), ref.shape),
            (model.adjoint_maps, (v, w), ref.adjoint_maps(v, w), ref.stack),
            (model.adjoint_maps, (v, w, back), ref.adjoint_maps(v, w, back), ref.stack),
        ]
        for method, args, want, shape_out in cases:
            assert method(*args).tobytes() == want.tobytes()
            out = np.full(shape_out, np.nan, dtype=np.complex128)
            got = method(*args, out=out)
            assert got.tobytes() == want.tobytes()
            assert got is out

    @pytest.mark.parametrize("shape, coils", _COIL_CASES)
    def test_gradients_and_values(self, shape, coils):
        _, fid, ref, rng = self._case(shape, coils)
        for _ in range(3):
            x = _signed_zero_point(rng, fid.layout)
            value, grad = ref.value_and_grad(x)
            assert fid.grad(x).data.tobytes() == grad.data.tobytes()
            got_value, got = fid.value_and_grad(x)
            assert got_value == value == fid.value(x)
            assert got.data.tobytes() == grad.data.tobytes()
            for i in (1, 2):
                want = ref.value_and_grad(x, (i,))[1]
                assert fid.grad_block(x, i).data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("shape, coils", _COIL_CASES)
    def test_hessian_vec_and_adjoint_init(self, shape, coils):
        _, fid, ref, rng = self._case(shape, coils)
        for _ in range(2):
            x = _signed_zero_point(rng, fid.layout)
            u = _signed_zero_point(rng, fid.layout)
            got, want = fid.hessian_vec(x, u), ref.hessian_vec(x, u)
            assert got.data.tobytes() == want.data.tobytes()
            for i in (1, 2):
                got, want = fid.hessian_vec(x, u.extract(i), block=i), ref.hessian_vec(x, u.extract(i), i)
                assert got.tobytes() == want.tobytes()
            theta = x.extract(2)
            assert fid.adjoint_init(theta).tobytes() == ref.adjoint_init(theta).tobytes()

    def test_results_are_not_overwritten_by_later_calls(self):
        _, fid, _, rng = self._case((8, 8), 2)
        x, y = (_signed_zero_point(rng, fid.layout) for _ in range(2))
        u = _signed_zero_point(rng, fid.layout)
        kept = [fid.grad_block(x, 1), fid.grad_block(x, 2), fid.grad(x),
                fid.value_and_grad(x)[1], fid.hessian_vec(x, u),
                fid.hessian_vec(x, u.extract(1), block=1),
                fid.hessian_vec(x, u.extract(2), block=2), fid.adjoint_init(x.extract(2))]
        arrays = [a.data if isinstance(a, BlockVector) else a for a in kept]
        before = [a.tobytes() for a in arrays]
        for i in (1, 2):
            fid.grad_block(y, i)
            fid.hessian_vec(y, u.extract(i), block=i)
        fid.value_and_grad(y)
        fid.value(y)
        fid.hessian_vec(y, u)
        fid.adjoint_init(y.extract(2))
        assert [a.tobytes() for a in arrays] == before
        buffers = _held_arrays(fid)
        assert not any(np.shares_memory(a, b) for a in arrays for b in buffers)

    @pytest.mark.parametrize("block", [1, 2])
    def test_grad_block_allocates_its_output_and_two_stacks_at_most(self, block):
        """At 64x64 with 4 coils, one block's gradient peaks within its
        320 KB output plus one 256 KB coil stack of traced allocation:
        both transforms run in place in the fidelity's own buffers."""
        rng = np.random.default_rng(60)
        _, fid, _, _ = make_coil_problem(rng, image_shape=(64, 64), coils=4)
        x = BlockVector(fid.layout, rng.standard_normal(fid.layout.total))
        stack = np.empty(fid.model.stack_shape, dtype=np.complex128).nbytes
        assert _traced_peak(lambda: fid.grad_block(x, block)) <= 8 * fid.layout.total + stack


class TestInPlaceConvolution:
    """The convolution model writes into the buffers it is given with the
    bits it allocates, and the fidelity, computing in buffers it owns,
    never returns one of them."""

    @pytest.mark.parametrize("shape, kernel", [((8, 8), (3, 3)), ((6, 9), (5, 3))])
    def test_model_operators_with_and_without_out(self, shape, kernel):
        rng = np.random.default_rng(70)
        model, fid, _, _ = make_conv_problem(rng, shape, kernel, noise=0.05)
        x = _signed_zero_point(rng, fid.layout)
        v, theta = x.extract(1), x.extract(2)
        ft, fv, fw = model.kernel_spectrum(theta), model.spectrum(v), model.spectrum(fid.y)
        want = model.forward(theta, v)
        out = np.full(shape[0] * shape[1], np.nan)
        got = model.forward(theta, v, ft, fv, out=out)
        assert got.tobytes() == want.tobytes()
        assert np.shares_memory(got, out)
        want = model.adjoints(ft, fv, fw)
        stack = np.full((2,) + ft.shape, np.nan, dtype=np.complex128)
        got = model.adjoints(ft, fv, fw, out=stack)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert got[0].tobytes() == model.adjoint_v(theta, fid.y).tobytes()
        assert got[1].tobytes() == model.adjoint_theta(v, fid.y).tobytes()
        embedded = np.zeros(shape[0] * shape[1])
        got = model._embed(theta, embedded)
        assert got.tobytes() == model._embed(theta).tobytes()
        assert np.shares_memory(got, embedded)

    def test_results_are_kept_and_equal_a_fresh_fidelity(self):
        """Each result stays as it was after later calls at another point,
        and is bitwise what a fidelity that made no call before gives."""
        fid, x = _bilinear_problems()[0]
        rng = np.random.default_rng(71)
        y = _signed_zero_point(rng, fid.layout)
        u = _signed_zero_point(rng, fid.layout)

        def results(f, point):
            theta = point.extract(2)
            out = [f.grad_block(point, 1), f.grad_block(point, 2), f.grad(point),
                   f.value_and_grad(point)[1], f.hessian_vec(point, u),
                   f.hessian_vec(point, u.extract(1), block=1),
                   f.hessian_vec(point, u.extract(2), block=2), f.adjoint_init(theta),
                   f.residual(point.block(1), theta)]
            return [a.data if isinstance(a, BlockVector) else a for a in out]

        kept = results(fid, x)
        before = [a.tobytes() for a in kept]
        fresh = results(ConvolutionFidelity(fid.model, fid.y), x)
        assert before == [a.tobytes() for a in fresh]
        for point in (y, x, y):
            results(fid, point)
            fid.value(point)
        assert [a.tobytes() for a in kept] == before
        arrays = [a for a in kept if isinstance(a, np.ndarray)]
        buffers = _held_arrays(fid)
        assert not any(np.shares_memory(a, b) for a in arrays for b in buffers)


class TestGradientOut:
    """`out=` on `grad_block`, `grad` and `value_and_grad` writes the bits
    of the call without it, zeros off the block included, into `out`, and
    returns a vector over it."""

    @pytest.mark.parametrize("case", range(3))
    def test_out_gives_the_bits_of_a_fresh_call(self, case):
        fid, x = _all_problems()[case]
        layout = fid.layout
        rng = np.random.default_rng(80 + case)
        out = np.empty(layout.total)
        for point in (x, _signed_zero_point(rng, layout), _signed_zero_point(rng, layout)):
            calls = [lambda **kw: fid.grad(point, **kw),
                     lambda **kw: fid.value_and_grad(point, **kw)[1]]
            calls += [lambda i=i, **kw: fid.grad_block(point, i, **kw)
                      for i in range(1, layout.num_blocks + 1)]
            for call in calls:
                want = call().data.tobytes()
                out.fill(np.nan)  # a block left unwritten shows
                got = call(out=out)
                assert got.data.tobytes() == want
                assert np.shares_memory(got.data, out)
                assert not got.data.flags.writeable
            assert fid.value_and_grad(point, out=out)[0] == fid.value_and_grad(point)[0]

    @pytest.mark.parametrize("block", [1, 2])
    def test_grad_block_into_out_allocates_less_than_a_coil_stack(self, block):
        """At 64x64 with 4 coils, one block's gradient written into `out`
        peaks below one 256 KB coil stack of traced allocation, and the
        masked inverse DFT allocates no iterator buffer for the mask."""
        rng = np.random.default_rng(60)
        model, fid, _, _ = make_coil_problem(rng, image_shape=(64, 64), coils=4)
        x = BlockVector(fid.layout, rng.standard_normal(fid.layout.total))
        out = np.empty(fid.layout.total)
        stack = np.empty(model.stack_shape, dtype=np.complex128)
        assert _traced_peak(lambda: fid.grad_block(x, block, out=out)) < stack.nbytes
        assert _traced_peak(lambda: model.inverse(fid.y, out=stack)) < 4096


def _traced_peak(call):
    """Peak traced allocation, in bytes, of `call()` after a first call
    that fills numpy's caches."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestSpectrumReuse:
    """A kept spectrum is never served for a block that differs in any bit."""

    @staticmethod
    def _points(x, rng):
        """A walk that changes one entry of one block per step, by a random
        amount, by one ulp, or only the sign of a zero."""
        points = [x]
        for step in range(12):
            i = 1 + step % 2
            block = points[-1].extract(i)
            j = rng.integers(block.size)
            if step % 3 == 0:
                block[j] += rng.standard_normal()
            elif step % 3 == 1:
                block[j] = np.nextafter(block[j], np.inf)
            else:
                block[j] = 0.0 if np.signbit(block[j]) else -0.0
            points.append(points[-1].inject(i, block))
            points.append(points[-1])  # and a repeat of the same point
        return points

    def test_grad_and_value_equal_a_fresh_fidelity(self):
        fid, x = _bilinear_problems()[0]
        for y in self._points(x, np.random.default_rng(40)):
            fresh = ConvolutionFidelity(fid.model, fid.y)
            assert fid.grad(y).data.tobytes() == fresh.grad(y).data.tobytes()
            value, grad = fid.value_and_grad(y)
            fresh_value, fresh_grad = ConvolutionFidelity(fid.model, fid.y).value_and_grad(y)
            assert value == fresh_value
            assert grad.data.tobytes() == fresh_grad.data.tobytes()
            assert fid.value(y) == ConvolutionFidelity(fid.model, fid.y).value(y)

    def test_hessian_vec_equals_a_fresh_fidelity(self):
        fid, x = _bilinear_problems()[0]
        rng = np.random.default_rng(41)
        for y in self._points(x, rng):
            for block in (1, 2, None):
                size = fid.layout.total if block is None else fid.layout.sizes[block - 1]
                u = rng.standard_normal(size)
                u = BlockVector(fid.layout, u) if block is None else u
                got = fid.hessian_vec(y, u, block=block)
                want = ConvolutionFidelity(fid.model, fid.y).hessian_vec(y, u, block=block)
                if block is None:
                    got, want = got.data, want.data
                assert got.tobytes() == want.tobytes()


class TestLastSpectrumKey:
    """`_LastSpectrum` serves its kept value only for an array of the same
    shape and bit pattern."""

    @staticmethod
    def _counting():
        calls = []

        def transform(a):
            calls.append(a.copy())
            return a.sum()

        return forward._LastSpectrum(transform), calls

    def test_hits_on_equal_bits_in_a_fresh_array(self):
        last, calls = self._counting()
        a = np.array([0.5, -0.0, 3.0])
        first = last(a)
        assert last(a.copy()) is first and len(calls) == 1

    def test_misses_on_the_sign_of_zero(self):
        last, calls = self._counting()
        last(np.array([1.0, 0.0]))
        last(np.array([1.0, -0.0]))
        last(np.array([1.0, 0.0]))
        assert len(calls) == 3

    def test_misses_on_equal_bytes_of_another_shape(self):
        last, calls = self._counting()
        a = np.arange(6.0)
        last(a)
        last(a.reshape(2, 3))
        last(a.reshape(3, 2))
        assert [c.shape for c in calls] == [(6,), (2, 3), (3, 2)]

    def test_hits_on_an_equal_nan_bit_pattern(self):
        last, calls = self._counting()
        nan = np.float64(np.nan)
        last(np.array([nan, 2.0]))
        last(np.array([nan, 2.0]))
        assert len(calls) == 1
        # a NaN with another payload is another key
        other = np.array([nan, 2.0])
        other.view(np.int64)[0] ^= 1
        last(other)
        assert len(calls) == 2


class _FirstConvolution:
    """The convolution fidelity's gradient and Hessian-vector products as
    first written: each spectrum taken afresh by `rfft2` without its shape,
    the two adjoint products joined by `np.stack`, and a two-block result
    joined by `BlockVector.from_blocks`."""

    def __init__(self, fid):
        self.model, self.y, self.layout = fid.model, fid.y, fid.layout
        self.shape = fid.model.image_shape

    def spectrum(self, a):
        return np.fft.rfft2(np.asarray(a, dtype=np.float64).reshape(self.shape))

    def kernel_spectrum(self, theta):
        return np.fft.rfft2(self.model._embed(theta))

    def forward(self, ft, fv):
        return np.fft.irfft2(ft * fv, s=self.shape).ravel()

    def adjoint_v(self, ft, fw):
        return np.fft.irfft2(np.conj(ft) * fw, s=self.shape).ravel()

    def adjoint_theta(self, fv, fw):
        return self.model._extract(np.fft.irfft2(np.conj(fv) * fw, s=self.shape))

    def value_and_grad(self, x, blocks=None):
        fv, ft = self.spectrum(x.block(1)), self.kernel_spectrum(x.block(2))
        r = self.forward(ft, fv) - self.y
        fr = self.spectrum(r)
        if blocks is None or {1, 2} <= set(blocks):
            products = np.stack([np.conj(ft) * fr, np.conj(fv) * fr])
            back = np.fft.irfft2(products, s=self.shape)
            parts = [back[0].ravel(), self.model._extract(back[1])]
        else:
            parts = [self.adjoint_v(ft, fr) if 1 in blocks else np.zeros(self.layout.sizes[0]),
                     self.adjoint_theta(fv, fr) if 2 in blocks else np.zeros(self.layout.sizes[1])]
        return 0.5 * float(np.dot(r, r)), BlockVector.from_blocks(parts, self.layout)

    def hessian_vec(self, x, u, block=None):
        v, theta = x.block(1), x.block(2)
        if block == 1:
            ft = self.kernel_spectrum(theta)
            return self.adjoint_v(ft, self.spectrum(self.forward(ft, self.spectrum(u))))
        if block == 2:
            fv = self.spectrum(v)
            return self.adjoint_theta(fv, self.spectrum(self.forward(self.kernel_spectrum(u), fv)))
        fv, ft = self.spectrum(v), self.kernel_spectrum(theta)
        fdt, fdv = self.kernel_spectrum(u.block(2)), self.spectrum(u.block(1))
        r = self.forward(ft, fv) - self.y
        s = self.forward(ft, fdv) + self.forward(fdt, fv)
        fs, fr = self.spectrum(s), self.spectrum(r)
        hv = self.adjoint_v(ft, fs) + self.adjoint_v(fdt, fr)
        ht = self.adjoint_theta(fv, fs) + self.adjoint_theta(fdv, fr)
        return BlockVector.from_blocks([hv, ht], self.layout)


class TestFirstFormulation:
    """Passing the transform shapes, writing the adjoint products into one
    stack and the gradient into one buffer change no bit of any result,
    along a walk on which the fidelity keeps and reuses spectra."""

    @staticmethod
    def _walk(case):
        rng = np.random.default_rng(42 + case)
        shapes = [((8, 8), (3, 3)), ((7, 9), (3, 5))][case]
        fid = make_conv_problem(rng, *shapes, noise=0.05)[1]
        x = BlockVector(fid.layout, rng.standard_normal(fid.layout.total))
        return fid, _FirstConvolution(fid), TestSpectrumReuse._points(x, rng), rng

    @pytest.mark.parametrize("case", [0, 1], ids=["8x8-3x3", "7x9-3x5"])
    def test_gradients(self, case):
        fid, first, points, _ = self._walk(case)
        for y in points:
            value, grad = first.value_and_grad(y)
            assert fid.grad(y).data.tobytes() == grad.data.tobytes()
            got_value, got = fid.value_and_grad(y)
            assert got_value == value
            assert got.data.tobytes() == grad.data.tobytes()
            for i in (1, 2):
                want = first.value_and_grad(y, [i])[1]
                assert fid.grad_block(y, i).data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("case", [0, 1], ids=["8x8-3x3", "7x9-3x5"])
    def test_hessian_vec(self, case):
        fid, first, points, rng = self._walk(case)
        for y in points:
            for block in (1, 2, None):
                size = fid.layout.total if block is None else fid.layout.sizes[block - 1]
                u = rng.standard_normal(size)
                u = BlockVector(fid.layout, u) if block is None else u
                got, want = fid.hessian_vec(y, u, block=block), first.hessian_vec(y, u, block)
                if block is None:
                    got, want = got.data, want.data
                assert got.tobytes() == want.tobytes()


def _eager_estimate(fidelity, x, radius):
    """Every constant at once, the full iteration right after the block
    iterations on one generator: (block constants, l_max, l_full, blocks
    converged, full converged)."""
    layout = fidelity.layout
    boundary = BlockVector(layout, radius * x.data)
    rng = np.random.default_rng(forward._POWER_SEED)
    constants, blocks_ok = [], True
    for i in range(1, layout.num_blocks + 1):
        lam, ok = forward._power_iteration(
            lambda u, i=i: fidelity.hessian_vec(boundary, u, block=i), layout.sizes[i - 1], rng
        )
        constants.append(lam)
        blocks_ok = blocks_ok and ok
    l_full, full_ok = forward._power_iteration(
        lambda u: fidelity.hessian_vec(boundary, BlockVector(layout, u)).data,
        layout.total, rng, square=True,
    )
    return tuple(constants), max(constants), max(l_full, max(constants)), blocks_ok, full_ok


class TestLipschitzEstimation:
    def test_generic_linear_matches_dense_svd(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((8, 8))
        layout = BlockLayout((5, 3))
        fid = LinearFidelity(LinearModel(A), layout, rng.standard_normal(8))
        x = BlockVector(layout, rng.standard_normal(8))
        est = with_full_constant(fid, x, estimate_block_lipschitz(fid, x, radius=1.0), radius=1.0)
        svals = np.linalg.svd(A, compute_uv=False)
        np.testing.assert_allclose(est.l_full, svals[0] ** 2, rtol=1e-3)
        np.testing.assert_allclose(
            est.block_constants[0],
            np.linalg.svd(A[:, :5], compute_uv=False)[0] ** 2,
            rtol=1e-3,
        )
        np.testing.assert_allclose(
            est.block_constants[1],
            np.linalg.svd(A[:, 5:], compute_uv=False)[0] ** 2,
            rtol=1e-3,
        )
        assert est.l_max == max(est.block_constants)
        assert est.converged

    @pytest.mark.parametrize("kind", ["convolution", "multi-coil", "linear"])
    def test_on_demand_full_constant_equals_eager_bitwise(self, kind):
        """l_full, added after other work on the fidelity, is bitwise what
        an estimate computing everything at once gives, and so are the block
        constants; `converged` holds both convergence flags."""
        rng = np.random.default_rng(16)
        if kind == "convolution":
            _, fid, v, theta = make_conv_problem(rng)
            x = BlockVector.from_blocks([v, theta])
        elif kind == "multi-coil":
            desk = two_coil_problem()
            fid, x = desk.fidelity, desk.truth
        else:
            A = rng.standard_normal((9, 7))
            layout = BlockLayout((3, 2, 2))
            fid = LinearFidelity(LinearModel(A), layout, rng.standard_normal(9))
            x = BlockVector(layout, rng.standard_normal(7))
        est = estimate_block_lipschitz(fid, x, radius=2.0)
        fid.grad(BlockVector(x.layout, rng.standard_normal(x.layout.total)))
        full = with_full_constant(fid, x, est, radius=2.0)
        constants, l_max, l_full, blocks_ok, full_ok = _eager_estimate(fid, x, 2.0)
        assert (est.block_constants, est.l_max, est.l_full, est.converged) == (
            constants, l_max, None, blocks_ok)
        assert (full.block_constants, full.l_max, full.l_full, full.converged) == (
            constants, l_max, l_full, blocks_ok and full_ok)

    def test_full_constant_runs_only_when_added(self, count_calls):
        """Certifying runs the block iterations alone; `with_full_constant`
        runs the full one, and reading or comparing estimates runs none."""
        rng = np.random.default_rng(17)
        _, fid, v, theta = make_conv_problem(rng)
        x = BlockVector.from_blocks([v, theta])
        sweeps = count_calls(forward, "_power_iteration")
        est = estimate_block_lipschitz(fid, x)
        assert [kwargs for _, kwargs in sweeps] == [{}, {}]
        full = with_full_constant(fid, x, est)
        assert [kwargs for _, kwargs in sweeps] == [{}, {}, {"square": True}]
        assert full.l_full >= full.l_max and full.converged
        assert full != est and est == estimate_block_lipschitz(fid, x)
        assert len(sweeps) == 5

    def test_delta_kernel_unit_ball(self):
        rng = np.random.default_rng(12)
        model = BlindConvolutionModel((6, 6), (3, 3))
        theta = delta_kernel((3, 3)).ravel()
        v = rng.random(36)
        y = model.forward(theta, v)
        fid = ConvolutionFidelity(model, y)
        est = estimate_block_lipschitz(
            fid, BlockVector.from_blocks([v, theta]), radius=1.0
        )
        np.testing.assert_allclose(est.block_constants[0], 1.0, rtol=1e-3)

    def test_multicoil_unitary_block(self):
        model = MultiCoilModel((6, 6), 1, np.ones((6, 6)))
        maps = np.ones((1, 6, 6), dtype=complex)
        rng = np.random.default_rng(13)
        v = rng.standard_normal((6, 6)) + 0j
        y = model.forward(maps, v)
        fid = MultiCoilFidelity(model, y)
        x = BlockVector.from_blocks([complex_to_pairs(v), complex_to_pairs(maps)])
        est = estimate_block_lipschitz(fid, x, radius=1.0)
        np.testing.assert_allclose(est.block_constants[0], 1.0, rtol=1e-3)

    def test_radius_scales_quadratically(self):
        """Bilinear operators scale linearly in theta, constants in radius^2."""
        rng = np.random.default_rng(14)
        model, fid, v, theta = make_conv_problem(rng)
        x = BlockVector.from_blocks([v, theta])
        e1 = estimate_block_lipschitz(fid, x, radius=1.0)
        e2 = estimate_block_lipschitz(fid, x, radius=3.0)
        np.testing.assert_allclose(
            e2.block_constants[0], 9 * e1.block_constants[0], rtol=1e-3
        )

    def test_iterate_must_be_inside_ball(self):
        rng = np.random.default_rng(15)
        model, fid, v, theta = make_conv_problem(rng)
        with pytest.raises(ValueError):
            estimate_block_lipschitz(
                fid, BlockVector.from_blocks([v, theta]), radius=0.5
            )


class TestSynthesize:
    def test_noiseless_is_exact_forward(self):
        rng = np.random.default_rng(16)
        model = BlindConvolutionModel((5, 5), (3, 3))
        v, theta = rng.random(25), rng.random(9)
        np.testing.assert_array_equal(
            synthesize(model, v, theta, 0.0, seed=1), model.forward(theta, v)
        )

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(17)
        model = BlindConvolutionModel((5, 5), (3, 3))
        v, theta = rng.random(25), rng.random(9)
        a = synthesize(model, v, theta, 0.3, seed=42)
        b = synthesize(model, v, theta, 0.3, seed=42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, synthesize(model, v, theta, 0.3, seed=43))

    def test_noise_power_concentrates(self):
        """||e||^2 / m -> sigma^2 within 5% for m = 10^4 (counting oracle)."""
        rng = np.random.default_rng(18)
        model = BlindConvolutionModel((100, 100), (3, 3))
        v, theta = rng.random(10000), rng.random(9)
        clean = model.forward(theta, v)
        noisy = synthesize(model, v, theta, noise_sigma=0.2, seed=5)
        power = np.sum((noisy - clean) ** 2) / clean.size
        assert abs(power - 0.04) / 0.04 < 0.05

    def test_multicoil_noise_on_mask_only(self):
        rng = np.random.default_rng(19)
        mask = (rng.random((8, 8)) < 0.5).astype(float)
        model = MultiCoilModel((8, 8), 2, mask)
        v = rng.standard_normal((8, 8)) + 0j
        maps = np.ones((2, 8, 8), dtype=complex)
        y = synthesize(model, v, maps, noise_sigma=0.5, seed=3)
        assert np.all(y[:, mask == 0] == 0)
