"""The forward models' 2-D transform helpers give numpy's bits.

The helpers call numpy's private pocketfft kernels directly, so a numpy
whose kernels moved, were renamed or changed fails here, under these
tests' names, before any model test does.
"""

import numpy as np
import pytest

from bcpnp.forward import _dft2, _irfft2, _rfft2

# even and odd sizes, single rows and columns, and one plane or a stack
SHAPES = [(8, 8), (9, 7), (6, 10), (5, 12), (64, 64), (1, 8), (8, 1), (1, 7), (7, 1), (1, 1)]
LEADS = [(), (1,), (2,), (2, 3)]

# infinities and NaNs raise numpy's floating-point warnings, in numpy's
# transforms as in the helpers
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf, np.nan]


def _real(rng, shape):
    """Normal entries with a share of signed zeros, subnormals, infinities and NaNs."""
    a = rng.standard_normal(shape)
    special = rng.random(shape) < 0.15
    a[special] = rng.choice(SPECIAL, size=int(special.sum()))
    return a


def _complex(rng, shape):
    """Real and imaginary parts drawn as `_real` draws, each kept bit for bit."""
    z = np.empty(shape, dtype=np.complex128)
    z.real, z.imag = _real(rng, shape), _real(rng, shape)
    return z


def _finite_real(rng, shape):
    """As `_real`, but finite: one infinity in a plane is NaN in all of
    its spectrum, which would mask every other entry's bits."""
    a = _real(rng, shape)
    a[~np.isfinite(a)] = -0.0
    return a


def _cases():
    return [(shape, lead) for shape in SHAPES for lead in LEADS]


def _id(case):
    shape, lead = case
    return "x".join(map(str, lead + shape))


@pytest.mark.parametrize("case", _cases(), ids=_id)
@pytest.mark.parametrize("make", [_real, _finite_real], ids=["special", "finite"])
def test_rfft2(case, make):
    shape, lead = case
    a = make(np.random.default_rng(70), lead + shape)
    kept = a.copy()
    got = _rfft2(a, shape)
    assert got.tobytes() == np.fft.rfft2(a, s=shape).tobytes()
    assert a.tobytes() == kept.tobytes()  # the input is left as it was


@pytest.mark.parametrize("case", _cases(), ids=_id)
@pytest.mark.parametrize("make", [_complex, None], ids=["special", "spectrum"])
def test_irfft2(case, make):
    """On arbitrary half spectra and on spectra of real images; the
    helper overwrites its input and still gives numpy's bits."""
    shape, lead = case
    rng = np.random.default_rng(71)
    half = lead + (shape[0], shape[1] // 2 + 1)
    spectrum = make(rng, half) if make else np.fft.rfft2(_finite_real(rng, lead + shape))
    want = np.fft.irfft2(spectrum, s=shape)
    assert _irfft2(spectrum, shape).tobytes() == want.tobytes()


@pytest.mark.parametrize("case", _cases(), ids=_id)
@pytest.mark.parametrize("inverse", [False, True], ids=["fft2", "ifft2"])
def test_dft2_in_place(case, inverse):
    shape, lead = case
    stack = _complex(np.random.default_rng(72), lead + shape)
    numpy_dft = np.fft.ifft2 if inverse else np.fft.fft2
    want = numpy_dft(stack, s=shape, norm="ortho")
    got = _dft2(stack, shape, inverse=inverse)
    assert got is stack
    assert got.tobytes() == want.tobytes()

