"""Field dump, CSV, and summary file format tests."""
import re

import numpy as np
import pytest

from enslab.grid import Grid, VectorField, scalar_from_function
from enslab import fieldio


def sample_scalar(grid):
    return scalar_from_function(grid, lambda x, y: np.sin(3 * x) + np.cos(2 * y))


def sample_vector(grid):
    rng = np.random.default_rng(11)
    return VectorField(grid, rng.standard_normal(grid.shape_u),
                       rng.standard_normal(grid.shape_v))


class TestFieldDumps:
    def test_scalar_round_trip_bitwise(self, tmp_path):
        grid = Grid(16)
        p = sample_scalar(grid)
        path = str(tmp_path / "p.ensf")
        fieldio.write_scalar(path, p, 0.375)
        q, t = fieldio.read_scalar(path)
        assert t == 0.375
        assert q.grid == grid
        assert np.array_equal(q.values, p.values)

    def test_vector_round_trip_bitwise(self, tmp_path):
        grid = Grid(8)
        w = sample_vector(grid)
        stem = str(tmp_path / "w")
        fieldio.write_vector(stem, w, 1.25)
        w2, t = fieldio.read_vector(stem)
        assert t == 1.25
        assert np.array_equal(w2.u, w.u) and np.array_equal(w2.v, w.v)

    def test_header_is_single_ascii_line(self, tmp_path):
        grid = Grid(8)
        path = str(tmp_path / "p.ensf")
        fieldio.write_scalar(path, sample_scalar(grid), 0.5)
        with open(path, "rb") as f:
            header = f.readline().decode("ascii")
        assert header == "ENSF1 8 8 cell 0.5\n"

    def test_payload_is_little_endian_rows(self, tmp_path):
        grid = Grid(8)
        p = sample_scalar(grid)
        path = str(tmp_path / "p.ensf")
        fieldio.write_scalar(path, p, 0.0)
        with open(path, "rb") as f:
            f.readline()
            raw = f.read()
        vals = np.frombuffer(raw, dtype="<f8").reshape(8, 8)
        assert np.array_equal(vals, p.values)

    def test_shape_kind_mismatch_rejected(self, tmp_path):
        grid = Grid(8)
        with pytest.raises(ValueError):
            fieldio.write_component(str(tmp_path / "x.ensf"),
                                    np.zeros((8, 8)), grid, "xface", 0.0)
        with pytest.raises(ValueError):
            fieldio.write_component(str(tmp_path / "x.ensf"),
                                    np.zeros((8, 8)), grid, "midface", 0.0)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ensf"
        path.write_bytes(b"NOTME 8 8 cell 0\n" + b"\0" * 512)
        with pytest.raises(ValueError):
            fieldio.read_component(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.ensf"
        path.write_bytes(b"ENSF1 8 8 cell 0\n" + b"\0" * 100)
        with pytest.raises(ValueError):
            fieldio.read_component(str(path))

    def test_non_square_header_rejected(self, tmp_path):
        path = tmp_path / "wide.ensf"
        path.write_bytes(b"ENSF1 8 16 cell 0\n" + b"\0" * (8 * 8 * 16))
        with pytest.raises(ValueError, match=r"wide\.ensf: grid 8 x 16 is not square"):
            fieldio.read_component(str(path))

    def test_every_header_error_names_the_file(self, tmp_path):
        # a bad size, a bad time and a grid too coarse
        for i, header in enumerate([b"ENSF1 x 8 cell 0", b"ENSF1 8 8 cell zz",
                                    b"ENSF1 2 2 cell 0"]):
            path = tmp_path / f"bad{i}.ensf"
            path.write_bytes(header + b"\n" + b"\0" * 512)
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                fieldio.read_component(str(path))

    def test_scalar_reader_rejects_face_file(self, tmp_path):
        grid = Grid(8)
        path = str(tmp_path / "u.ensf")
        fieldio.write_component(path, np.zeros(grid.shape_u), grid, "xface", 0.0)
        with pytest.raises(ValueError):
            fieldio.read_scalar(path)

    def test_vector_reader_rejects_mismatched_pair(self, tmp_path):
        fieldio.write_component(str(tmp_path / "w.u.ensf"),
                                np.zeros(Grid(8).shape_u), Grid(8), "xface", 0.0)
        fieldio.write_component(str(tmp_path / "w.v.ensf"),
                                np.zeros(Grid(16).shape_v), Grid(16), "yface", 0.0)
        with pytest.raises(ValueError):
            fieldio.read_vector(str(tmp_path / "w"))


class TestCsv:
    def test_schema_and_determinism(self, tmp_path):
        rows = [(0.0, {"b_metric": 1.0, "a_metric": 2.0}),
                (0.1, {"b_metric": 0.5, "a_metric": 1.0 / 3.0})]
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        fieldio.write_csv(str(p1), rows)
        fieldio.write_csv(str(p2), rows)
        text = p1.read_text(encoding="ascii")
        assert text.splitlines()[0] == "t,a_metric,b_metric"
        assert p1.read_bytes() == p2.read_bytes()
        recovered = float(text.splitlines()[2].split(",")[1])
        assert recovered == 1.0 / 3.0

    def test_rows_must_share_metric_names(self, tmp_path):
        rows = [(0.0, {"a": 1.0}), (0.1, {"b": 1.0})]
        with pytest.raises(ValueError):
            fieldio.write_csv(str(tmp_path / "bad.csv"), rows)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            fieldio.write_csv(str(tmp_path / "bad.csv"), [])


class TestSummary:
    def test_all_pass(self, tmp_path):
        path = tmp_path / "summary.txt"
        ok = fieldio.write_summary(str(path), [("alpha", 1e-12, True),
                                               ("beta", 0.25, True)])
        assert ok is True
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines[0] == "margin alpha = 9.9999999999999998e-13 PASS"
        assert lines[-1] == "overall PASS"

    def test_any_failure_flips_overall(self, tmp_path):
        path = tmp_path / "summary.txt"
        ok = fieldio.write_summary(str(path), [("alpha", 1.0, True),
                                               ("beta", -0.5, False)])
        assert ok is False
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines[1] == "margin beta = -0.5 FAIL"
        assert lines[-1] == "overall FAIL"


class TestEnsureDir:
    def test_creates_nested_and_is_idempotent(self, tmp_path):
        target = tmp_path / "a" / "b" / "c"
        assert fieldio.ensure_dir(str(target)) == str(target)
        assert target.is_dir()
        fieldio.ensure_dir(str(target))
