"""File formats: sample/loss/sweep CSVs and P5 grayscale dumps."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import noiselab.io as nio
from conftest import read_pgm, traced_peak
from noiselab.core import Rng, as_f64
from noiselab.io import (
    read_loss_csv,
    read_samples_csv,
    read_sweep_csv,
    tile_images,
    write_loss_csv,
    write_pgm,
    write_samples_csv,
    write_sweep_csv,
    write_sweep_errors_csv,
)
from noiselab.sweep import SweepRow


def write_samples_csv_whole(path, samples):
    """write_samples_csv formatting every row before writing any: the reference."""
    x = as_f64(samples, "samples")
    lines = [",".join(map(repr, row)) for row in x.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


MAX = 1.7976931348623157e308
# repr's edges: signed zero, the subnormals, the largest doubles, and both
# sides of each switch to exponent form (at 1e16 and below 1e-04)
EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, MAX, -MAX,
    1e16, np.nextafter(1e16, 0.0), -1e16, 1e-05, np.nextafter(1e-05, 1.0),
    1e-04, np.nextafter(1e-04, 0.0), 0.1, 1.0, 123456.789,
]


class TestSamplesCsv:
    def test_round_trip_exact(self, tmp_path):
        x = Rng(0).normal((40, 3))
        path = tmp_path / "s.csv"
        write_samples_csv(path, x)
        np.testing.assert_array_equal(read_samples_csv(path), x)

    def test_identical_arrays_identical_bytes(self, tmp_path):
        x = Rng(1).normal((10, 2))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(a, x)
        write_samples_csv(b, x.copy())
        assert a.read_bytes() == b.read_bytes()

    def test_single_column(self, tmp_path):
        x = np.array([[1.5], [-2.25]])
        path = tmp_path / "one.csv"
        write_samples_csv(path, x)
        out = read_samples_csv(path)
        assert out.shape == (2, 1)
        np.testing.assert_array_equal(out, x)

    @pytest.mark.golden
    def test_golden_bytes(self, tmp_path):
        # repr text: signed zero, exponent forms, shortest round-trip digits
        x = np.array([[-0.0, 1e-7, 1e17], [0.1, -2.5, 123456.789]])
        path = tmp_path / "g.csv"
        write_samples_csv(path, x)
        assert path.read_bytes() == b"-0.0,1e-07,1e+17\n0.1,-2.5,123456.789\n"

    def test_float32_and_int_inputs_write_float64_text(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(a, np.array([[0.1, 3.0]], dtype=np.float32))
        write_samples_csv(b, np.array([[np.float64(np.float32(0.1)), 3.0]]))
        assert a.read_bytes() == b.read_bytes()
        write_samples_csv(a, np.array([[1, -2]]))
        assert a.read_bytes() == b"1.0,-2.0\n"

    def test_rejects_bad_shapes(self, tmp_path):
        with pytest.raises(ValueError):
            write_samples_csv(tmp_path / "x.csv", np.zeros(5))
        with pytest.raises(ValueError):
            write_samples_csv(tmp_path / "x.csv", np.zeros((0, 3)))

    def test_read_rejects_ragged(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_samples_csv(path)

    def test_read_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_samples_csv(path)

    @pytest.mark.parametrize("text", ["", " \n\t\n\n", "# x y\n1.0,2.0\n", "1.0,2.0\n#3.0,4.0\n",
                                      "1.0,abc\n", "1.0,2.0,\n"])
    def test_read_rejects_naming_the_path(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_samples_csv(path)

    def test_read_skips_blank_and_whitespace_lines(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("\n1.0,2.0\n\n  \n\t\n3.0,-4.5\n \n\n")
        out = read_samples_csv(path)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, -4.5]])

    def test_single_row_stays_2d(self, tmp_path):
        path = tmp_path / "row.csv"
        write_samples_csv(path, np.array([[0.5, -1.0, 2.0]]))
        assert read_samples_csv(path).shape == (1, 3)

    @settings(max_examples=60, deadline=None)
    @given(block=st.integers(1, 5), width=st.integers(1, 4),
           times=st.sampled_from([(1, -1), (1, 0), (1, 1), (2, 1)]), data=st.data())
    def test_blocks_write_the_one_shot_bytes(self, block, width, times, data):
        """Rows around the block size: the reference's bytes, read back bit for bit."""
        n = times[0] * block + times[1]
        assume(n >= 1)
        value = st.one_of(st.sampled_from(EDGE_VALUES),
                          st.floats(allow_nan=False, allow_infinity=False))
        x = np.array(data.draw(st.lists(value, min_size=n * width, max_size=n * width)),
                     dtype=np.float64).reshape(n, width)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(nio, "_WRITE_VALUES", block * width)
            got, ref = Path(tmp) / "got.csv", Path(tmp) / "ref.csv"
            write_samples_csv(got, x)
            write_samples_csv_whole(ref, x)
            assert got.read_bytes() == ref.read_bytes()
            assert read_samples_csv(got).tobytes() == x.tobytes()

    def test_write_and_read_peak_memory(self, tmp_path):
        """Both hold a block of Python objects at a time, not one per value.

        tracemalloc peaks on (20000, 4): 8.1 MB with one Python float and
        its text per value, 1.3 MB a block at a time.
        """
        x = Rng(3).normal((20000, 4))
        path, back = tmp_path / "s.csv", []
        peak = traced_peak(lambda: (write_samples_csv(path, x),
                                    back.append(read_samples_csv(path))))
        write_samples_csv_whole(tmp_path / "ref.csv", x)
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert back[0].tobytes() == x.tobytes()
        assert peak < 3.5e6


class TestLossCsv:
    def test_round_trip(self, tmp_path):
        history = [(1, 0.75, 0.003), (100, 0.5121875, 0.0015)]
        path = tmp_path / "loss.csv"
        write_loss_csv(path, history)
        assert read_loss_csv(path) == history

    def test_header(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_csv(path, [(1, 1.0, 0.1)])
        assert path.read_text().splitlines()[0] == "step,loss,lr"

    def test_read_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_loss_csv(path)


class TestSweepCsv:
    ROWS = (
        SweepRow("linear", 1.0, 0.0625, 412, 99, 0),
        SweepRow("cosine:0,1,1", 0.5, float("nan"), 3, 100, 1, "boom"),
    )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, self.ROWS)
        rows = read_sweep_csv(path)
        assert rows[0] == ("linear", 1.0, 0.0625, 412, 99, 0)
        sched, scale, metric, wall, seed, status = rows[1]
        assert (sched, scale, wall, seed, status) == ("cosine:0,1,1", 0.5, 3, 100, 1)
        assert np.isnan(metric)

    def test_header_line(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, self.ROWS)
        assert path.read_text().splitlines()[0] == "schedule,scale,metric,wall_ms,seed,status"

    def test_read_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("step,loss,lr\n1,1.0,0.1\n")
        with pytest.raises(ValueError):
            read_sweep_csv(path)


class TestSweepErrorsCsv:
    def test_failed_rows_only(self, tmp_path):
        rows = TestSweepCsv.ROWS + (
            SweepRow("sigmoid:-3,3,1", 0.25, float("nan"), 7, 101, 1,
                     'ValueError: bad "value", on\ntwo lines'),
        )
        path = tmp_path / "sweep_errors.csv"
        write_sweep_errors_csv(path, rows)
        assert path.read_text() == (
            "schedule,scale,seed,error\n"
            '"cosine:0,1,1",0.5,100,boom\n'
            '"sigmoid:-3,3,1",0.25,101,"ValueError: bad ""value"", on\ntwo lines"\n'
        )


class TestTileImages:
    def test_places_images_row_major(self):
        flat = np.arange(12, dtype=np.float64).reshape(3, 4)
        grid = tile_images(flat, 2)
        assert grid.shape == (4, 4)
        np.testing.assert_array_equal(grid[:2, :2], flat[0].reshape(2, 2))
        np.testing.assert_array_equal(grid[:2, 2:], flat[1].reshape(2, 2))
        np.testing.assert_array_equal(grid[2:, :2], flat[2].reshape(2, 2))
        np.testing.assert_array_equal(grid[2:, 2:], np.zeros((2, 2)))

    def test_square_count_fills_grid(self):
        flat = np.ones((4, 9))
        grid = tile_images(flat, 3)
        assert grid.shape == (6, 6)
        assert np.all(grid == 1.0)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            tile_images(np.zeros((2, 5)), 2)

    def test_rejects_empty_batch(self):
        # ceil(n / cols) divided by zero here
        with pytest.raises(ValueError, match=r"^expected a nonempty \(n, 4\) array, "
                                             r"got shape \(0, 4\)$"):
            tile_images(np.zeros((0, 4)), 2)


class TestPgm:
    def test_round_trip_and_header(self, tmp_path):
        img = Rng(2).normal((5, 7))
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n7 5\n255\n")
        pixels = read_pgm(path)
        assert pixels.shape == (5, 7)
        assert pixels.dtype == np.uint8

    def test_value_mapping(self, tmp_path):
        img = np.array([[-3.0, 0.0, 3.0, -10.0, 10.0]])
        path = tmp_path / "map.pgm"
        write_pgm(path, img)
        pixels = read_pgm(path)
        # endpoints of the range map to 0 and 255, center to 128,
        # out-of-range values clip
        assert list(pixels[0]) == [0, 128, 255, 0, 255]

    def test_deterministic_bytes(self, tmp_path):
        img = Rng(3).normal((4, 4))
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(a, img)
        write_pgm(b, img.copy())
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_bad_inputs(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.zeros(4))
