"""Parameterized measurement operators and the bilinear data fidelity.

Models map a parameter vector theta and an image v to measurements
A(theta) v.  The data fidelity g(x) = 0.5 ||y - A(theta) v||^2 with
x = (v, theta) is bilinear, hence nonconvex in the joint variable; its
block gradients, exact Hessian-vector products, and ball-restricted
Lipschitz estimates live here.

Block convention for the two-block fidelities: block 1 is the image v,
block 2 is the operator parameters theta.  Complex quantities (multi-coil
model) are packed as interleaved real pairs, under which the real gradient
of g with respect to the pairs is exactly the pair packing of A^H(residual)
(the usual folding of the Wirtinger factor two).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

# the benchmark's tracer wraps the two pair converters where this module
# would look them up, so they stay importable from it
from .blocks import (  # noqa: F401
    BlockLayout, BlockVector, _norm, _sumsq, complex_to_pairs, pairs_to_complex,
)

POWER_ITER_TOL = 1e-4
POWER_ITER_MAX = 100
_POWER_SEED = 0x5EED


# ---------------------------------------------------------------------------
# 2-D transforms
# ---------------------------------------------------------------------------
#
# numpy's `rfft2`, `irfft2`, `fft2` and `ifft2` run one pocketfft kernel per
# axis, and around each call they parse the shape and the axes, derive the
# dtypes and allocate each pass's result: at 8x8 that costs more than the
# kernels do.  The helpers below call the same kernels, in numpy's order
# and with numpy's factors, so they give numpy's bits (a test pins it).  The
# pass over axis -2 runs on views with the two last axes swapped, as the
# kernels transform along the last axis.  `shape` is the (H, W) of the
# images transformed; an array given may stack several on leading axes.


def _rfft2(a, shape, out=None):
    """numpy's `rfft2(a, s=shape)` of the float64 array `a`, in `out` when
    given, else in a new array."""
    w = shape[1]
    if out is None:
        out = np.empty(a.shape[:-1] + (w // 2 + 1,), dtype=np.complex128)
    (_pocketfft.rfft_n_even if w % 2 == 0 else _pocketfft.rfft_n_odd)(a, 1.0, out=out)
    columns = out.swapaxes(-1, -2)
    _pocketfft.fft(columns, 1.0, out=columns)
    return out


def _irfft2(spectrum, shape, out=None):
    """numpy's `irfft2(spectrum, s=shape)`, in `out` when given, else in a
    new array; the complex128 `spectrum` is overwritten, so pass only a
    product made for the call."""
    h, w = shape
    columns = spectrum.swapaxes(-1, -2)
    _pocketfft.ifft(columns, 1 / h, out=columns)
    if out is None:
        out = np.empty(spectrum.shape[:-1] + (w,))
    _pocketfft.irfft(spectrum, 1 / w, out=out)
    return out


def _dft2(stack, shape, inverse=False):
    """numpy's `fft2` (or `ifft2`) of the complex128 `stack` with
    `norm="ortho"`, written into `stack`, which is returned."""
    h, w = shape
    kernel = _pocketfft.ifft if inverse else _pocketfft.fft
    kernel(stack, 1 / math.sqrt(w), out=stack)
    columns = stack.swapaxes(-1, -2)
    kernel(columns, 1 / math.sqrt(h), out=columns)
    return stack


# ---------------------------------------------------------------------------
# measurement models
# ---------------------------------------------------------------------------


class BlindConvolutionModel:
    """Circular 2-D convolution with an unknown, centered, odd-sized kernel.

    Circular boundary handling makes the operator diagonal in the DFT
    basis, so forward/adjoint pairs are exact and spectral norms are
    attainable by power iteration.
    """

    def __init__(self, image_shape, kernel_shape):
        hI, wI = (int(s) for s in image_shape)
        hK, wK = (int(s) for s in kernel_shape)
        if hK % 2 == 0 or wK % 2 == 0:
            raise ValueError("kernel dimensions must be odd")
        if hK > hI or wK > wI:
            raise ValueError("kernel must not exceed the image")
        self.image_shape = (hI, wI)
        self.kernel_shape = (hK, wK)
        self.layout = BlockLayout((hI * wI, hK * wK))
        # flat image position of each kernel entry, with the kernel center
        # at the origin (circularly wrapped)
        rows = (np.arange(hK) - hK // 2) % hI
        cols = (np.arange(wK) - wK // 2) % wI
        self._kernel_index = (rows[:, None] * wI + cols[None, :]).ravel()

    def _embed(self, kernel, out=None):
        """The kernel padded to image size with its center at the origin;
        written into `out` when given, a flat float64 array of H*W entries
        that is zero off the kernel's."""
        full = np.zeros(self.image_shape[0] * self.image_shape[1]) if out is None else out
        full[self._kernel_index] = np.asarray(kernel, dtype=np.float64).ravel()
        return full.reshape(self.image_shape)

    def _extract(self, full):
        """Inverse of `_embed`: the flat kernel-sized crop around the origin."""
        return full.reshape(-1)[self._kernel_index]

    def spectrum(self, image):
        """rfft2 of an image-shaped array (an image or a measurement)."""
        image = np.asarray(image, dtype=np.float64).reshape(self.image_shape)
        return _rfft2(image, self.image_shape)

    def kernel_spectrum(self, theta):
        """rfft2 of the kernel embedded at image size."""
        return _rfft2(self._embed(theta), self.image_shape)

    # Each operator below takes the spectra of its two arguments when the
    # caller already has them, so that an evaluation sharing an argument
    # between operators transforms it once.  `forward` and `adjoints` write
    # into `out` when given, and run the same ufuncs in the same order as
    # without it, so both give the same bits.

    def forward(self, theta, v, ft=None, fv=None, out=None):
        """A(theta) v = theta (*) v, flattened to length H*W; `out` is a flat
        float64 array of H*W entries."""
        ft = self.kernel_spectrum(theta) if ft is None else ft
        fv = self.spectrum(v) if fv is None else fv
        if out is not None:
            out = out.reshape(self.image_shape)
        return _irfft2(ft * fv, self.image_shape, out).ravel()

    def adjoint_v(self, theta, w, ft=None, fw=None):
        """A(theta)^T w: correlate the kernel against a measurement image."""
        ft = self.kernel_spectrum(theta) if ft is None else ft
        fw = self.spectrum(w) if fw is None else fw
        return _irfft2(np.conj(ft) * fw, self.image_shape).ravel()

    def adjoint_theta(self, v, w, fv=None, fw=None):
        """Adjoint of theta -> theta (*) v: correlate v with w, crop to kernel."""
        fv = self.spectrum(v) if fv is None else fv
        fw = self.spectrum(w) if fw is None else fw
        return self._extract(_irfft2(np.conj(fv) * fw, self.image_shape))

    def adjoints(self, ft, fv, fw, out=None):
        """(adjoint_v(theta, w), adjoint_theta(v, w)) from the spectra of theta,
        v and w, with one inverse transform of the two products, written
        into the planes of one stack: `out` when given, a C-ordered
        (2, H, W // 2 + 1) complex128 array that the transform overwrites.

        The kernels transform each plane of a stack exactly as they would
        transform that plane alone, so both equal the separate adjoints
        bitwise.
        """
        products = np.empty((2,) + fw.shape, dtype=np.complex128) if out is None else out
        for plane, f in zip(products, (ft, fv)):
            np.multiply(np.conjugate(f, out=plane), fw, out=plane)
        back = _irfft2(products, self.image_shape)
        return back[0].ravel(), self._extract(back[1])


class MultiCoilModel:
    """Per-coil weighting, unitary 2-D DFT, then frequency subsampling.

    The image and the per-coil sensitivity maps are complex; the sampling
    mask selects frequencies (1 = sampled).  Measurements are kept as full
    (coils, H, W) complex arrays that are zero off the mask.
    """

    def __init__(self, image_shape, num_coils, mask):
        self.image_shape = tuple(int(s) for s in image_shape)
        self.num_coils = int(num_coils)
        if self.num_coils < 1:
            raise ValueError("need at least one coil")
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != self.image_shape:
            raise ValueError("mask shape must match the image shape")
        if not np.all((mask == 0) | (mask == 1)):
            raise ValueError("mask entries must be 0 or 1")
        if not mask.any():
            raise ValueError("mask samples no frequency")
        self.mask = mask
        self.stack_shape = (self.num_coils,) + self.image_shape
        # a product with a coil stack would cast the mask to complex128 each
        # time, and broadcasting it over the coils makes numpy allocate an
        # iterator buffer; cast and spread into a C-ordered stack once, the
        # products are the same bitwise
        self._complex_mask = np.ascontiguousarray(
            np.broadcast_to(mask, self.stack_shape), dtype=np.complex128)
        n = self.image_shape[0] * self.image_shape[1]
        self.layout = BlockLayout((2 * n, 2 * self.num_coils * n))

    def _as_image(self, v):
        return np.asarray(v, dtype=np.complex128).reshape(self.image_shape)

    def _as_maps(self, maps):
        return np.asarray(maps, dtype=np.complex128).reshape(self.stack_shape)

    def _stack(self, out):
        return np.empty(self.stack_shape, dtype=np.complex128) if out is None else out

    # The per-coil transforms below run as one call over the stacked coil
    # axis; the kernels transform each plane of a stack exactly as they
    # would transform that plane alone.
    #
    # Each operator writes its result into `out` when given, a C-ordered
    # complex128 array of the result's shape; without it, it allocates one
    # and runs the same ufuncs in the same order, so both give the same
    # bits.  `inverse`'s `out` may be `w` itself and `adjoint_maps`'s may
    # be `back`; no other argument may share memory with `out`.

    def forward(self, maps, v, out=None):
        """Stack of masked unitary DFTs of (map_i * image)."""
        out = np.multiply(self._as_maps(maps), self._as_image(v), out=self._stack(out))
        return np.multiply(self._complex_mask, _dft2(out, self.image_shape), out=out)

    def inverse(self, w, out=None):
        """Masked inverse unitary DFT of each coil of w, shared by both adjoints."""
        out = np.multiply(self._complex_mask, w, out=self._stack(out))
        return _dft2(out, self.image_shape, inverse=True)

    def adjoint_v(self, maps, w, back=None, out=None):
        """A(maps)^H w; `back` is `inverse(w)` when the caller has it."""
        back = self.inverse(w) if back is None else back
        img = np.empty(self.image_shape, dtype=np.complex128) if out is None else out
        img.fill(0)
        term = np.empty(self.image_shape, dtype=np.complex128)
        for map_c, back_c in zip(self._as_maps(maps), back):  # summed in coil order
            img += np.multiply(np.conjugate(map_c, out=term), back_c, out=term)
        return img

    def adjoint_maps(self, v, w, back=None, out=None):
        """Adjoint of maps -> A(maps) v; `back` is `inverse(w)` when the caller has it."""
        back = self.inverse(w) if back is None else back
        return np.multiply(np.conj(self._as_image(v)), back, out=self._stack(out))


class LinearModel:
    """Fixed known measurement matrix; no operator parameters."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ValueError("measurement matrix must be 2-D")

    def forward(self, x):
        return self.matrix @ np.asarray(x, dtype=np.float64).ravel()

    def adjoint(self, w):
        return self.matrix.T @ np.asarray(w, dtype=np.float64).ravel()


# ---------------------------------------------------------------------------
# data fidelities g(x) = 0.5 || y - A(theta) v ||^2
# ---------------------------------------------------------------------------


def _one_block_array(layout: BlockLayout, i, out=None):
    """A flat array that is zero off block i: `out`, with every other block
    zeroed, when given, else a fresh zero array.  Block i is left for the
    caller to write."""
    if out is None:
        return np.zeros(layout.total)
    s = layout.block_slice(i)
    out[:s.start] = 0.0
    out[s.stop:] = 0.0
    return out


class _LastSpectrum:
    """The transform of the last array given, kept while the next array
    given is bitwise equal to it.

    One entry: a solve changes one block per iteration, so the other
    block's spectrum carries over to the next gradient.  Not for sharing
    between threads.
    """

    def __init__(self, transform):
        self.transform = transform
        self.key = self.value = None

    def __call__(self, a):
        """The transform of the float64 array `a`; do not modify the result."""
        # keyed by the bytes, so compared as bit patterns: -0.0 and 0.0
        # differ, and a NaN matches itself
        key = (a.shape, a.tobytes())
        if key != self.key:
            self.value = self.transform(a)
            self.key = key
        return self.value


class _BilinearFidelity:
    """Least-squares fidelity g(x) = 0.5 ||A(theta) v - y||^2 of a bilinear
    model over x = (v, theta), written once for every model.

    A model's subclass supplies what its products read of a block, its
    *operand* (a spectrum, or a complex view of the pairs): `_point_image`
    and `_point_theta` for an evaluated point's blocks, which may be kept
    from the last call, and `_image_operand` and `_theta_operand` for any
    other array.  It supplies `_forward(pt, pv, out)`, A(theta) v into
    `out` or a new array; `_adjoint_v(pt, w, out)`, `_adjoint_theta(pv, w,
    out)` and `_adjoints(pt, pv, w, out)`, the adjoints of one block or of
    both at the measurement-space array `w` (transformed once), written
    into the flat float64 block(s) of `out`; `_sum_of_squares(r)`; and its
    work buffers, `_r` for the residual among them.  Because of those and
    the kept operands, a fidelity is not for sharing between threads.
    """

    def residual(self, v, theta, pt=None, pv=None, out=None):
        """A(theta) v - y for the blocks v and theta as a point holds them,
        written into `out` when given; `pt`, `pv` are their operands when
        the caller has them."""
        if pt is None:
            pt, pv = self._theta_operand(theta), self._image_operand(v)
        r = self._forward(pt, pv, out)
        return np.subtract(r, self.y, out=r)

    def _residual_at(self, x: BlockVector):
        """(pt, pv, r): the operands of x's blocks and the residual at x,
        the last in the work buffer."""
        image_slice, theta_slice = self.layout.slices
        v, theta = x.data[image_slice], x.data[theta_slice]
        pt, pv = self._point_theta(theta), self._point_image(v)
        return pt, pv, self.residual(v, theta, pt, pv, self._r)

    def value(self, x: BlockVector):
        return 0.5 * self._sum_of_squares(self._residual_at(x)[2])

    def grad_v(self, v, theta):
        return self.grad_block(BlockVector.from_blocks([v, theta]), 1).block(1)

    def grad_theta(self, v, theta):
        return self.grad_block(BlockVector.from_blocks([v, theta]), 2).block(2)

    # `grad_block`, `grad` and `value_and_grad` write the gradient into `out`
    # when given, a writable flat float64 array of the layout's total length
    # that shares no memory with x, and return a vector over it; without
    # it, into a fresh array.  Both give the same bits.

    def grad_block(self, x: BlockVector, i, out=None):
        """Block i of grad g(x), with zeros on the other block: the adjoint
        of block i alone, from the residual and the other block."""
        if i not in (1, 2):
            raise IndexError(f"block index {i} out of range 1..2")
        pt, pv, r = self._residual_at(x)
        grad = _one_block_array(self.layout, i, out)
        if i == 1:
            self._adjoint_v(pt, r, grad[self.layout.slices[0]])
        else:
            self._adjoint_theta(pv, r, grad[self.layout.slices[1]])
        return BlockVector._wrap(self.layout, grad)

    def _residual_and_grad(self, x: BlockVector, out):
        # the residual returned is the work buffer, read before the next call
        pt, pv, r = self._residual_at(x)
        grad = np.empty(self.layout.total) if out is None else out
        self._adjoints(pt, pv, r, grad)
        return r, BlockVector._wrap(self.layout, grad)

    def grad(self, x: BlockVector, out=None):
        return self._residual_and_grad(x, out)[1]

    def value_and_grad(self, x: BlockVector, out=None):
        """(g(x), grad g(x)) from one residual."""
        r, grad = self._residual_and_grad(x, out)
        return 0.5 * self._sum_of_squares(r), grad

    def hessian_vec(self, x: BlockVector, u, block=None):
        """Exact Hessian-vector product of the bilinear fidelity at x.

        With `block=i`, `u` holds only block i of the direction (the other
        block is zero) and the result is block i of H(x)u: A(theta)^H
        A(theta) u for the image block and A_v^H A_v u for the operator
        block, where A_v theta = A(theta) v; the residual terms drop out.
        The full product is the two-block adjoint at the direction's image
        s = A(theta) du + A(dtheta) v plus the adjoint, with the direction's
        blocks as operands, at the residual.
        """
        if block == 1:
            pt = self._point_theta(x.block(2))
            out = np.empty(self.layout.sizes[0])
            self._adjoint_v(pt, self._forward(pt, self._image_operand(u), self._r), out)
            return out
        if block == 2:
            pv = self._point_image(x.block(1))
            out = np.empty(self.layout.sizes[1])
            self._adjoint_theta(pv, self._forward(self._theta_operand(u), pv, self._r), out)
            return out
        if block is not None:
            raise IndexError(f"block index {block} out of range 1..2")
        pt, pv, r = self._residual_at(x)
        pdt, pdv = self._theta_operand(u.block(2)), self._image_operand(u.block(1))
        s = self._forward(pt, pdv, None)
        s += self._forward(pdt, pv, None)
        out, at_r = np.empty(self.layout.total), np.empty(self.layout.total)
        self._adjoints(pt, pv, s, out)
        self._adjoints(pdt, pdv, r, at_r)
        out += at_r
        return BlockVector._wrap(self.layout, out)

    def adjoint_init(self, theta):
        """Image-block initialization A(theta)^H y."""
        out = np.empty(self.layout.sizes[0])
        self._adjoint_v(self._theta_operand(theta), self.y, out)
        return out

    # the benchmark's span tracer (`benchmarks/tracing.py`) wraps these by
    # name in each fidelity class's own namespace, so each binds them there
    _traced = (residual, value, grad_v, grad_theta, grad_block, grad, hessian_vec, adjoint_init)


class ConvolutionFidelity(_BilinearFidelity):
    """Least-squares fidelity for the blind deconvolution model.

    The operands are spectra.  It keeps the spectrum of the last image
    block and of the last kernel it transformed at a point, so a point that
    repeats a block (in a solve, every block but the one just updated)
    transforms only what changed.  Its work buffers are the kernel
    embedding, the residual, its spectrum and the two-plane adjoint stack.
    """

    # bound in this namespace for `benchmarks/tracing.py` (see `_traced`)
    (residual, value, grad_v, grad_theta, grad_block, grad, hessian_vec,
     adjoint_init) = _BilinearFidelity._traced

    def __init__(self, model: BlindConvolutionModel, y):
        self.model = model
        self.y = np.asarray(y, dtype=np.float64).ravel()
        h, w = model.image_shape
        if self.y.size != h * w:
            raise ValueError("measurement size does not match the image shape")
        self.layout = model.layout
        self._embedding = np.zeros(h * w)  # zero off the kernel's entries
        self._r = np.empty(h * w)
        self._fr = np.empty((h, w // 2 + 1), dtype=np.complex128)
        self._stack = np.empty((2, h, w // 2 + 1), dtype=np.complex128)
        self._point_image = _LastSpectrum(model.spectrum)
        self._point_theta = _LastSpectrum(
            lambda theta: _rfft2(model._embed(theta, self._embedding), model.image_shape))
        self._image_operand, self._theta_operand = model.spectrum, model.kernel_spectrum
        self._forward = functools.partial(model.forward, None, None)  # from the spectra

    _sum_of_squares = staticmethod(_sumsq)

    # the adjoints read only the spectrum of `w`, taken into the work buffer

    def _adjoint_v(self, ft, w, out):
        shape = self.model.image_shape
        out[...] = self.model.adjoint_v(None, w, ft, _rfft2(w.reshape(shape), shape, self._fr))

    def _adjoint_theta(self, fv, w, out):
        shape = self.model.image_shape
        out[...] = self.model.adjoint_theta(None, w, fv, _rfft2(w.reshape(shape), shape, self._fr))

    def _adjoints(self, ft, fv, w, out):
        # both adjoints share one inverse transform, of a two-plane stack
        shape = self.model.image_shape
        fw = _rfft2(w.reshape(shape), shape, self._fr)
        image_slice, kernel_slice = self.layout.slices
        out[image_slice], out[kernel_slice] = self.model.adjoints(ft, fv, fw, self._stack)


def _complex_view(pairs, shape):
    """The pair-packed float64 array `pairs` as a complex128 array of
    `shape`; a view, without a copy, of a C-ordered float64 array."""
    pairs = np.ascontiguousarray(pairs, dtype=np.float64).reshape(-1)
    return pairs.view(np.complex128).reshape(shape)


def _complex_out(out, shape):
    """The flat float64 array `out`, to be written, as a complex128 view of
    `shape`; a ValueError where that view would need a copy, which the
    write would not reach."""
    if not out.flags.c_contiguous:
        raise ValueError("out must be contiguous for a multi-coil gradient")
    return out.view(np.complex128).reshape(shape)


class MultiCoilFidelity(_BilinearFidelity):
    """Least-squares fidelity for the multi-coil model over real pairs.

    The operands are complex views of the pair-packed blocks, and each
    result is written through a complex view of its array, which must be
    contiguous.  Its work buffers are two (coils, H, W) stacks: the
    residual and its masked inverse DFT.
    """

    # bound in this namespace for `benchmarks/tracing.py` (see `_traced`)
    (residual, value, grad_v, grad_theta, grad_block, grad, hessian_vec,
     adjoint_init) = _BilinearFidelity._traced

    def __init__(self, model: MultiCoilModel, y):
        self.model = model
        y = np.asarray(y, dtype=np.complex128)
        if y.shape != model.stack_shape:
            raise ValueError("measurements must be (coils, H, W) complex")
        self.y = y
        self.layout = model.layout
        self._r = np.empty(model.stack_shape, dtype=np.complex128)
        self._back = np.empty(model.stack_shape, dtype=np.complex128)
        self._point_image = self._image_operand = functools.partial(
            _complex_view, shape=model.image_shape)
        self._point_theta = self._theta_operand = functools.partial(
            _complex_view, shape=model.stack_shape)
        self._forward = model.forward

    @staticmethod
    def _sum_of_squares(r):
        return float(np.sum(np.abs(r) ** 2))

    # the adjoints read only the masked inverse DFT of `w`

    def _adjoint_v(self, maps, w, out):
        m = self.model
        m.adjoint_v(maps, w, m.inverse(w, out=self._back),
                    out=_complex_out(out, m.image_shape))

    def _adjoint_theta(self, v, w, out):
        m = self.model
        m.adjoint_maps(v, w, m.inverse(w, out=self._back),
                       out=_complex_out(out, m.stack_shape))

    def _adjoints(self, maps, v, w, out):
        m = self.model
        back = m.inverse(w, out=self._back)
        image_slice, maps_slice = self.layout.slices
        m.adjoint_v(maps, w, back, out=_complex_out(out[image_slice], m.image_shape))
        m.adjoint_maps(v, w, back, out=_complex_out(out[maps_slice], m.stack_shape))


class LinearFidelity:
    """Least-squares fidelity with a fixed operator; any block partition."""

    def __init__(self, model: LinearModel, layout: BlockLayout, y):
        self.model = model
        if model.matrix.shape[1] != layout.total:
            raise ValueError("matrix columns must match the layout total")
        self.layout = layout
        self.y = np.asarray(y, dtype=np.float64).ravel()
        if self.y.size != model.matrix.shape[0]:
            raise ValueError("measurement length must match matrix rows")

    def value(self, x: BlockVector):
        r = self.model.forward(x.data) - self.y
        return 0.5 * _sumsq(r)

    # `out` on the gradients as in ConvolutionFidelity; the gradient is
    # computed in a fresh array and copied into it

    def grad(self, x: BlockVector, out=None):
        return self.value_and_grad(x, out)[1]

    def grad_block(self, x: BlockVector, i, out=None):
        """Block i of grad g(x), with zeros on the other blocks; the residual
        reads every block, so it costs the whole gradient."""
        grad = _one_block_array(self.layout, i, out)
        grad[self.layout.block_slice(i)] = self.grad(x).block(i)
        return BlockVector._wrap(self.layout, grad)

    def value_and_grad(self, x: BlockVector, out=None):
        """(g(x), grad g(x)) from one residual."""
        r = self.model.forward(x.data) - self.y
        grad = self.model.adjoint(r)
        if out is not None:
            out[...] = grad
            grad = out
        return 0.5 * _sumsq(r), BlockVector._wrap(self.layout, grad)

    def hessian_vec(self, x: BlockVector, u, block=None):
        """A^T A u; with `block=i`, `u` holds only block i and the result is
        A_i^T A_i u for the column slice A_i of block i."""
        if block is not None:
            a = self.model.matrix[:, self.layout.block_slice(block)]
            return a.T @ (a @ np.asarray(u, dtype=np.float64))
        return BlockVector._wrap(self.layout, self.model.adjoint(self.model.forward(u.data)))

    def adjoint_init(self, theta=None):
        return self.model.adjoint(self.y)


# ---------------------------------------------------------------------------
# Lipschitz estimates at the boundary of a norm ball around the iterate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LipschitzEstimate:
    """Power-iteration estimates of the block and full gradient-smoothness
    constants at the scaled ball boundary (see `estimate_block_lipschitz`).

    `converged` holds for every power iteration the estimate ran.  The
    full-gradient constant `l_full`, which only the theory bounds read, is
    None until `with_full_constant` adds it.
    """

    block_constants: tuple
    l_max: float
    converged: bool
    l_full: float | None = None

    def exceeded_by(self, gamma):
        """Whether step size `gamma` breaks the convergence rule gamma < 1/l_max."""
        return self.l_max > 0 and gamma >= 1.0 / self.l_max


def _power_iteration(apply_op, dim, rng, square=False):
    """Largest |eigenvalue| of a symmetric operator; (value, converged).

    With square=True the operator is applied twice per sweep, which makes
    the estimate robust for indefinite spectra (paired +/- eigenvalues of
    the bilinear Hessian) at the cost of one extra application.
    """
    u = rng.standard_normal(dim)
    nrm = _norm(u)
    if nrm == 0:
        return 0.0, True
    u /= nrm
    lam = 0.0
    for _ in range(POWER_ITER_MAX):
        w = apply_op(u)
        if square:
            w = apply_op(w)
        wn = _norm(w)
        if wn == 0.0:
            return 0.0, True
        est = math.sqrt(wn) if square else wn
        # normalised into u, which only the product that gave w read; w may
        # be a vector's read-only data
        np.divide(w, wn, out=u)
        if abs(est - lam) <= POWER_ITER_TOL * max(est, 1e-300):
            return est, True
        lam = est
    return lam, False


def estimate_block_lipschitz(fidelity, x: BlockVector, radius=10.0):
    """Estimates of the block Lipschitz constants of the fidelity gradient,
    by power iteration at one point.

    The bilinear fidelity has no global smoothness constant.  The point is
    the iterate scaled blockwise to the boundary of the ball
    {||x_i|| <= radius * ||current x_i||}, and power iteration runs there on
    the block-restricted products `hessian_vec(boundary, u, block=i)`.  The
    results are estimates, not bounds: power iteration can stop below the
    largest eigenvalue at that point, and the curvature elsewhere in the
    ball can be larger (README, "Notes and caveats").  `with_full_constant`
    adds the full-gradient constant.
    Requires radius >= 1 so the current iterate lies inside the ball.
    """
    boundary, rng = _ball_boundary(x, radius)
    converged = True
    block_constants = []
    for i, size in enumerate(fidelity.layout.sizes, start=1):

        def block_op(u, i=i):
            return fidelity.hessian_vec(boundary, u, block=i)

        lam, ok = _power_iteration(block_op, size, rng)
        converged = converged and ok
        block_constants.append(lam)

    return LipschitzEstimate(tuple(block_constants), max(block_constants), converged)


def with_full_constant(fidelity, x: BlockVector, estimate: LipschitzEstimate, radius=10.0):
    """`estimate`, the one `estimate_block_lipschitz(fidelity, x, radius)`
    gives, with the full-gradient constant of the joint Hessian, floored at
    l_max, and its power iteration's convergence folded into `converged`.

    The start vector is drawn after the block start vectors from the same
    generator, as one pass computing every constant would draw it.
    """
    layout = fidelity.layout
    boundary, rng = _ball_boundary(x, radius)
    for size in layout.sizes:
        rng.standard_normal(size)

    def full_op(u):
        return fidelity.hessian_vec(boundary, BlockVector(layout, u)).data

    l_full, ok = _power_iteration(full_op, layout.total, rng, square=True)
    return dataclasses.replace(
        estimate, l_full=max(l_full, estimate.l_max), converged=estimate.converged and ok
    )


def _ball_boundary(x: BlockVector, radius):
    """(x scaled to the ball boundary, the power iterations' start generator)."""
    if radius < 1.0:
        raise ValueError("ball radius factor must be >= 1 (iterate inside ball)")
    return BlockVector._wrap(x.layout, radius * x.data), np.random.default_rng(_POWER_SEED)


# ---------------------------------------------------------------------------
# measurement synthesis
# ---------------------------------------------------------------------------


def synthesize(model, v, theta=None, noise_sigma=0.0, seed=0):
    """Generate y = A(theta) v + e with seeded white Gaussian noise.

    Noise has standard deviation noise_sigma per real measurement scalar;
    for the multi-coil model it is complex (independent real and imaginary
    parts) and restricted to sampled frequencies.
    """
    if noise_sigma < 0:
        raise ValueError("noise level must be nonnegative")
    rng = np.random.default_rng(seed)
    if isinstance(model, BlindConvolutionModel):
        y = model.forward(theta, v)
        if noise_sigma > 0:
            y = y + noise_sigma * rng.standard_normal(y.size)
        return y
    if isinstance(model, MultiCoilModel):
        y = model.forward(theta, v)
        if noise_sigma > 0:
            e = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
            y = y + noise_sigma * model.mask * e
        return y
    if isinstance(model, LinearModel):
        y = model.forward(v)
        if noise_sigma > 0:
            y = y + noise_sigma * rng.standard_normal(y.size)
        return y
    raise TypeError(f"cannot synthesize measurements for {type(model).__name__}")
