"""PGM and CSV round trips."""

import numpy as np
import pytest

from bcpnp import fileio


class TestPgm:
    def test_round_trip_16bit(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((12, 17))
        path = tmp_path / "img.pgm"
        fileio.write_pgm(path, img, maxval=65535)
        back = fileio.read_pgm(path)
        assert back.shape == img.shape
        np.testing.assert_allclose(back, img, atol=0.5 / 65535)

    def test_round_trip_8bit(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.random((5, 9))
        path = tmp_path / "img8.pgm"
        fileio.write_pgm(path, img, maxval=255)
        back = fileio.read_pgm(path)
        np.testing.assert_allclose(back, img, atol=0.5 / 255)

    def test_reads_ascii_with_comments(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_bytes(b"P2\n# a comment\n3 2\n255\n0 128 255\n64 32 16\n")
        img = fileio.read_pgm(path)
        np.testing.assert_allclose(
            img, np.array([[0, 128, 255], [64, 32, 16]]) / 255.0
        )

    def test_clipping_on_write(self, tmp_path):
        path = tmp_path / "clip.pgm"
        fileio.write_pgm(path, np.array([[-0.5, 1.5]]), maxval=255)
        np.testing.assert_array_equal(fileio.read_pgm(path), [[0.0, 1.0]])

    def test_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n1 1\n255\nxxx")
        with pytest.raises(ValueError):
            fileio.read_pgm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\nab")
        with pytest.raises(ValueError):
            fileio.read_pgm(path)


class TestCsv:
    def test_matrix_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        mat = rng.standard_normal((4, 7))
        path = tmp_path / "m.csv"
        fileio.save_matrix_csv(path, mat)
        np.testing.assert_array_equal(fileio.load_matrix_csv(path), mat)

    def test_single_row(self, tmp_path):
        path = tmp_path / "row.csv"
        fileio.save_matrix_csv(path, np.array([1.0, 2.5, -3.125]))
        back = fileio.load_matrix_csv(path)
        assert back.shape == (1, 3)

    def test_mask_of_zeros_and_ones(self, tmp_path):
        rng = np.random.default_rng(3)
        mask = (rng.random((6, 6)) < 0.5).astype(float)
        path = tmp_path / "mask.csv"
        fileio.save_matrix_csv(path, mask)
        np.testing.assert_array_equal(fileio.load_matrix_csv(path), mask)

    @pytest.mark.parametrize("length", [1, 1023, 1024, 1025, 32768])
    def test_rows_are_written_as_float_reprs(self, tmp_path, length):
        """Rows longer than one formatting chunk come out as one repr join."""
        special = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, 0.1, -2.5]
        rng = np.random.default_rng(length)
        mat = rng.standard_normal((len(special), length))
        for j, v in enumerate(special):  # each special value in a row of its own
            mat[j, [rng.integers(length), -1]] = v
        path = tmp_path / "m.csv"
        fileio.save_matrix_csv(path, mat)
        want = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in mat)
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("entry", ["inf", "-inf", "nan", "x"])
    def test_rejects_non_finite_and_non_numeric_entries(self, tmp_path, entry):
        path = tmp_path / "bad.csv"
        path.write_text(f"1.0,2.0\n3.0,{entry}\n")
        with pytest.raises(ValueError, match="non-numeric or non-finite"):
            fileio.load_matrix_csv(path)
