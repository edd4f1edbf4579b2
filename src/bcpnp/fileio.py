"""Plain-file handling: PGM grayscale images, CSV matrices, CSV tables and
binary arrays.

Images are exchanged as floats in [0, 1]; PGM rasters (ASCII P2 or binary
P5, 8- or 16-bit) are scaled by their declared maxval on read and
quantized on write.  16-bit binary rasters use the most-significant-byte-
first order of the format.  CSV matrices are the input format of configs
(images, kernels, masks, matrices).  A run's array outputs are `.npy`
files (`save_array`), which hold every bit of their array with its shape
and dtype and read back with `np.load`; its tables (`metrics.csv`,
`trace.csv`) are CSV (`write_table`).
"""

from __future__ import annotations

import numpy as np


def read_pgm(path):
    """Read a P2/P5 grayscale image as floats in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, fields, offset = _parse_header(data)
    width, height, maxval = fields
    if magic == b"P2":
        values = np.array(data[offset:].split(), dtype=np.float64)
        if values.size != width * height:
            raise ValueError("ASCII raster size mismatch")
        img = values.reshape(height, width)
    else:
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        count = width * height
        raster = data[offset : offset + count * dtype.itemsize]
        if len(raster) != count * dtype.itemsize:
            raise ValueError("binary raster truncated")
        img = np.frombuffer(raster, dtype=dtype).reshape(height, width)
        img = img.astype(np.float64)
    return img / float(maxval)


def _parse_header(data):
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"not a PGM file (magic {magic!r})")
    fields = []
    pos = 2
    while len(fields) < 3:
        # skip whitespace and # comments between header tokens
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace byte after maxval precedes the raster
    width, height, maxval = fields
    if not 0 < maxval < 65536:
        raise ValueError(f"maxval {maxval} out of range")
    return magic, (width, height, maxval), pos


def write_pgm(path, image, maxval=65535):
    """Write floats in [0, 1] as a binary P5 image (clipped, quantized)."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("PGM images are 2-D")
    if not 0 < maxval < 65536:
        raise ValueError(f"maxval {maxval} out of range")
    quant = np.round(np.clip(img, 0.0, 1.0) * maxval)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(quant.astype(dtype).tobytes())


def load_matrix_csv(path):
    """Read a 2-D comma-separated matrix of finite floats."""
    arr = np.genfromtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    if not np.isfinite(arr).all():
        raise ValueError(f"non-numeric or non-finite entries in {path}")
    return arr


_CSV_CHUNK = 1024  # values formatted at once, so a long row's strings are never all held


def save_matrix_csv(path, array):
    """Write each row as the shortest round-trip repr of its floats."""
    arr = np.atleast_2d(np.asarray(array, dtype=np.float64))
    with open(path, "w", newline="") as fh:
        for row in arr:
            for start in range(0, row.size, _CSV_CHUNK):
                if start:
                    fh.write(",")
                fh.write(",".join(map(repr, row[start : start + _CSV_CHUNK].tolist())))
            fh.write("\n")


def save_array(path, array):
    """Write `array` as a `.npy` file: its shape, dtype and every bit of its
    values, in a header and raw bytes that `np.load` reads back."""
    np.save(path, array, allow_pickle=False)


def write_table(path, header, rows):
    """Write a header line of column names, then one line per row of values,
    each value as its `str`: a Python float's is its shortest round-trip form."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)
