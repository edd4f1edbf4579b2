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
        # numpy casts the mask to complex128 for every product with a coil
        # stack; cast once, the products are the same bitwise
        self._complex_mask = mask.astype(np.complex128)
        self.stack_shape = (self.num_coils,) + self.image_shape
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


def _one_block(layout: BlockLayout, i, a):
    """The BlockVector holding `a` in block i and zeros on every other block.

    Each `grad_block` builds it before it returns, while its temporaries
    are still allocated: freed first, they would let glibc trim the heap
    and map it again on every iteration.
    """
    out = np.zeros(layout.total)
    out[layout.block_slice(i)] = a
    return BlockVector._wrap(layout, out)


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


class ConvolutionFidelity:
    """Least-squares fidelity for the blind deconvolution model.

    Keeps the spectrum of the last image block and of the last kernel it
    transformed at an iterate, so a point that repeats a block (in a solve,
    every block but the one just updated) transforms only what changed.
    Like `MultiCoilFidelity`, it computes in work buffers it owns (the
    kernel embedding, the residual, its spectrum and the two-plane adjoint
    stack) and hands back only fresh arrays; because of them it is not for
    sharing between threads.
    """

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
        self._image_spectrum = _LastSpectrum(model.spectrum)
        self._kernel_spectrum = _LastSpectrum(
            lambda theta: _rfft2(model._embed(theta, self._embedding), model.image_shape))

    def _spectra(self, x: BlockVector):
        """(v, theta, fv, ft): read-only views of the blocks and their spectra."""
        image_slice, kernel_slice = self.layout.slices
        v, theta = x.data[image_slice], x.data[kernel_slice]
        return v, theta, self._image_spectrum(v), self._kernel_spectrum(theta)

    def residual(self, v, theta, ft=None, fv=None, out=None):
        """A(theta) v - y, written into `out` when given; `ft`, `fv` are the
        spectra of theta and v when the caller has them."""
        r = self.model.forward(theta, v, ft, fv, out)
        return np.subtract(r, self.y, out=r)

    def _residual_spectrum(self, x: BlockVector):
        """(v, theta, fv, ft, r, fr): `_spectra`, the residual and its
        spectrum, the last two in the work buffers."""
        v, theta, fv, ft = self._spectra(x)
        r = self.residual(v, theta, ft, fv, out=self._r)
        fr = _rfft2(r.reshape(self.model.image_shape), self.model.image_shape, self._fr)
        return v, theta, fv, ft, r, fr

    def value(self, x: BlockVector):
        v, theta, fv, ft = self._spectra(x)
        r = self.residual(v, theta, ft, fv)
        return 0.5 * _sumsq(r)

    def grad_v(self, v, theta):
        return self.grad_block(BlockVector.from_blocks([v, theta]), 1).block(1)

    def grad_theta(self, v, theta):
        return self.grad_block(BlockVector.from_blocks([v, theta]), 2).block(2)

    def grad_block(self, x: BlockVector, i):
        """Block i of grad g(x), with zeros on the other block: one adjoint
        plane, from the spectra of the residual and of the other block."""
        if i not in (1, 2):
            raise IndexError(f"block index {i} out of range 1..2")
        v, theta, fv, ft, r, fr = self._residual_spectrum(x)
        m = self.model
        part = m.adjoint_v(theta, r, ft, fr) if i == 1 else m.adjoint_theta(v, r, fv, fr)
        return _one_block(self.layout, i, part)

    def _residual_and_grad(self, x: BlockVector):
        # theta, v and the residual are each transformed once, and both
        # adjoints share one inverse transform and one gradient buffer; the
        # residual returned is the work buffer, read before the next call
        v, theta, fv, ft, r, fr = self._residual_spectrum(x)
        grad = np.empty(self.layout.total)
        image_slice, kernel_slice = self.layout.slices
        grad[image_slice], grad[kernel_slice] = self.model.adjoints(ft, fv, fr, self._stack)
        return r, BlockVector._wrap(self.layout, grad)

    def grad(self, x: BlockVector):
        return self._residual_and_grad(x)[1]

    def value_and_grad(self, x: BlockVector):
        """(g(x), grad g(x)) from one residual."""
        r, grad = self._residual_and_grad(x)
        return 0.5 * _sumsq(r), grad

    def hessian_vec(self, x: BlockVector, u, block=None):
        """Exact Hessian-vector product of the bilinear fidelity at x.

        With `block=i`, `u` holds only block i of the direction (the other
        blocks are zero) and the result is block i of H(x)u: A(theta)^T
        A(theta) u for the image block and A_v^T A_v u for the kernel block,
        where A_v theta = theta (*) v; the residual terms drop out.
        """
        m = self.model
        if block == 1:
            theta = x.block(2)
            ft = self._kernel_spectrum(theta)
            return m.adjoint_v(theta, m.forward(theta, u, ft), ft)
        if block == 2:
            v = x.block(1)
            fv = self._image_spectrum(v)
            return m.adjoint_theta(v, m.forward(u, v, fv=fv), fv)
        if block is not None:
            raise IndexError(f"block index {block} out of range 1..2")
        v, theta, fv, ft = self._spectra(x)
        dv, dtheta = u.block(1), u.block(2)
        fdt, fdv = m.kernel_spectrum(dtheta), m.spectrum(dv)
        r = self.residual(v, theta, ft, fv)
        s = m.forward(theta, dv, ft, fdv) + m.forward(dtheta, v, fdt, fv)
        fs, fr = m.spectrum(s), m.spectrum(r)
        hv = m.adjoint_v(theta, s, ft, fs) + m.adjoint_v(dtheta, r, fdt, fr)
        ht = m.adjoint_theta(v, s, fv, fs) + m.adjoint_theta(dv, r, fdv, fr)
        return BlockVector.from_blocks([hv, ht], self.layout)

    def adjoint_init(self, theta):
        """Image-block initialization A(theta)^T y."""
        return self.model.adjoint_v(theta, self.y)


def _complex_view(pairs, shape):
    """The pair-packed float64 array `pairs` as a complex128 array of
    `shape`; a view, without a copy, of a C-ordered float64 array."""
    pairs = np.ascontiguousarray(pairs, dtype=np.float64).reshape(-1)
    return pairs.view(np.complex128).reshape(shape)


class MultiCoilFidelity:
    """Least-squares fidelity for the multi-coil model over real pairs.

    It reads the pair-packed blocks through complex views and runs every
    evaluation in two (coils, H, W) work buffers that it owns, writing each
    result through a complex view of a fresh array.  Because of the
    buffers it is, like `_LastSpectrum`, not for sharing between threads.
    """

    def __init__(self, model: MultiCoilModel, y):
        self.model = model
        y = np.asarray(y, dtype=np.complex128)
        if y.shape != model.stack_shape:
            raise ValueError("measurements must be (coils, H, W) complex")
        self.y = y
        self.layout = model.layout
        self._r = np.empty(model.stack_shape, dtype=np.complex128)
        self._back = np.empty(model.stack_shape, dtype=np.complex128)

    def _image(self, pairs):
        return _complex_view(pairs, self.model.image_shape)

    def _maps(self, pairs):
        return _complex_view(pairs, self.model.stack_shape)

    def _halves(self, a):
        """Complex views of the image and map blocks of the flat pair-packed
        array `a` (a vector's `data`, or a fresh result)."""
        image_slice, maps_slice = self.layout.slices
        return self._image(a[image_slice]), self._maps(a[maps_slice])

    def residual(self, v, maps, out=None):
        """A(maps) v - y, written into `out` when given."""
        r = self.model.forward(maps, v, out=out)
        return np.subtract(r, self.y, out=r)

    @staticmethod
    def _value(r):
        return 0.5 * float(np.sum(np.abs(r) ** 2))

    def value(self, x: BlockVector):
        return self._value(self.residual(*self._halves(x.data), out=self._r))

    def grad_v(self, v_pairs, theta_pairs):
        return self.grad_block(BlockVector.from_blocks([v_pairs, theta_pairs]), 1).block(1)

    def grad_theta(self, v_pairs, theta_pairs):
        return self.grad_block(BlockVector.from_blocks([v_pairs, theta_pairs]), 2).block(2)

    def grad_block(self, x: BlockVector, i):
        """Block i of grad g(x), with zeros on the other block."""
        if i not in (1, 2):
            raise IndexError(f"block index {i} out of range 1..2")
        m = self.model
        v, maps = self._halves(x.data)
        r = self.residual(v, maps, out=self._r)
        back = m.inverse(r, out=self._back)
        grad = np.zeros(self.layout.total)
        part = self._halves(grad)[i - 1]
        if i == 1:
            m.adjoint_v(maps, r, back, out=part)
        else:
            m.adjoint_maps(v, r, back, out=part)
        return BlockVector._wrap(self.layout, grad)

    def _residual_and_grad(self, x: BlockVector):
        # both adjoints share one masked inverse DFT of the residual; the
        # residual returned is the work buffer, read before the next call
        m = self.model
        v, maps = self._halves(x.data)
        r = self.residual(v, maps, out=self._r)
        back = m.inverse(r, out=self._back)
        grad = np.empty(self.layout.total)
        hv, ht = self._halves(grad)
        m.adjoint_v(maps, r, back, out=hv)
        m.adjoint_maps(v, r, back, out=ht)
        return r, BlockVector._wrap(self.layout, grad)

    def grad(self, x: BlockVector):
        return self._residual_and_grad(x)[1]

    def value_and_grad(self, x: BlockVector):
        """(g(x), grad g(x)) from one residual."""
        r, grad = self._residual_and_grad(x)
        return self._value(r), grad

    def hessian_vec(self, x: BlockVector, u, block=None):
        """Exact Hessian-vector product at x; `block=i` as in ConvolutionFidelity:
        A(maps)^H A(maps) u for the image block, A_v^H A_v u for the map block."""
        m = self.model
        if block == 1:
            maps = self._maps(x.block(2))
            s = m.forward(maps, self._image(u), out=self._r)
            out = np.empty(self.layout.sizes[0])
            m.adjoint_v(maps, s, m.inverse(s, out=self._back), out=self._image(out))
            return out
        if block == 2:
            v = self._image(x.block(1))
            s = m.forward(self._maps(u), v, out=self._r)
            out = np.empty(self.layout.sizes[1])
            m.adjoint_maps(v, s, m.inverse(s, out=self._back), out=self._maps(out))
            return out
        if block is not None:
            raise IndexError(f"block index {block} out of range 1..2")
        v, maps = self._halves(x.data)
        dv, dmaps = self._halves(u.data)
        # the adjoints read only the masked inverse DFTs of the residual and
        # of the direction's image s, so each may overwrite its input
        back_r = m.inverse(self.residual(v, maps, out=self._r), out=self._r)
        s = m.forward(maps, dv, out=self._back)
        s += m.forward(dmaps, v)
        back_s = m.inverse(s, out=s)
        out = np.empty(self.layout.total)
        hv, ht = self._halves(out)
        m.adjoint_v(maps, None, back_s, out=hv)
        hv += m.adjoint_v(dmaps, None, back_r)
        m.adjoint_maps(v, None, back_s, out=ht)
        ht += m.adjoint_maps(dv, None, back_r, out=back_r)
        return BlockVector._wrap(self.layout, out)

    def adjoint_init(self, theta_pairs):
        m = self.model
        out = np.empty(self.layout.sizes[0])
        m.adjoint_v(self._maps(theta_pairs), self.y, m.inverse(self.y, out=self._back),
                    out=self._image(out))
        return out


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

    def grad(self, x: BlockVector):
        return self.value_and_grad(x)[1]

    def grad_block(self, x: BlockVector, i):
        """Block i of grad g(x), with zeros on the other blocks; the residual
        reads every block, so it costs the whole gradient."""
        return _one_block(self.layout, i, self.grad(x).block(i))

    def value_and_grad(self, x: BlockVector):
        """(g(x), grad g(x)) from one residual."""
        r = self.model.forward(x.data) - self.y
        return 0.5 * _sumsq(r), BlockVector._wrap(self.layout, self.model.adjoint(r))

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
# Lipschitz certification over a norm ball around the current iterate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LipschitzEstimate:
    """Block and full gradient-smoothness constants over the scaled ball.

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
        u = w / wn
        if abs(est - lam) <= POWER_ITER_TOL * max(est, 1e-300):
            return est, True
        lam = est
    return lam, False


def estimate_block_lipschitz(fidelity, x: BlockVector, radius=10.0):
    """Upper bounds for the block Lipschitz constants of the fidelity gradient.

    The bilinear fidelity has no global smoothness constant, so constants
    are certified over the ball {||x_i|| <= radius * ||current x_i||} by
    evaluating block Hessians at the iterate scaled blockwise to the ball
    boundary and running power iteration there, on the block-restricted
    products `hessian_vec(boundary, u, block=i)`.  `with_full_constant`
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
