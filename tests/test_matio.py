import math

import numpy as np
import pytest

from csdesign.experiments import ExperimentRecord, write_convergence_csv, write_records_csv
from csdesign.matio import (
    read_keyvalues,
    read_matrix_csv,
    render_value,
    write_csv,
    write_keyvalues,
    write_matrix_csv,
)
from csdesign.solver import TracePoint, write_trace_csv


class TestMatrixCsv:
    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-8, 8, size=(7, 4))
        path = tmp_path / "a.csv"
        write_matrix_csv(a, path)
        np.testing.assert_array_equal(read_matrix_csv(path), a)

    def test_header_format(self, tmp_path):
        path = tmp_path / "b.csv"
        write_matrix_csv(np.zeros((2, 3)), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "2,3"
        assert len(lines) == 3
        assert lines[1].count(",") == 2

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("nonsense\n1,2\n")
        with pytest.raises(ValueError):
            read_matrix_csv(path)

    def test_rejects_short_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("3,2\n1,2\n")
        with pytest.raises(ValueError):
            read_matrix_csv(path)

    def test_rejects_ragged_row(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("1,3\n1,2\n")
        with pytest.raises(ValueError):
            read_matrix_csv(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1,2\n1,x\n")
        with pytest.raises(ValueError):
            read_matrix_csv(path)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_matrix_csv(np.zeros(3), tmp_path / "g.csv")


class TestFloatFormat:
    def test_lossless(self):
        rng = np.random.default_rng(1)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200):
            assert float(render_value(float(x))) == float(x)


# Every table goes through write_csv.  The expected texts are the bytes the
# writers produced before they shared it; the inputs mix numpy and Python
# scalars, a signed zero, a subnormal-range float, NaN and an integral float.
_NAN = math.nan
GOLDEN_TABLES = [
    (
        lambda path: write_csv(
            path, ("x", "n", "y"),
            [(np.float64(0.1), np.int64(7), -0.0), (1e-300, _NAN, 5.0)],
        ),
        "x,n,y\n0.10000000000000001,7,-0\n1e-300,nan,5\n",
    ),
    (
        lambda path: write_matrix_csv(
            np.array([[np.float64(0.1), -0.0, 1e-300], [_NAN, 5.0, np.int64(3)]]), path
        ),
        "2,3\n0.10000000000000001,-0,1e-300\nnan,5,3\n",
    ),
    (
        lambda path: write_trace_csv(
            [TracePoint(np.int64(1), 0, np.float64(0.1), 5.0),
             TracePoint(2, np.int64(7), -0.0, 1e-300),
             TracePoint(2, 8, _NAN, 0.0)],
            path,
        ),
        "outer_iter,cg_iter,f,grad_norm\n1,0,0.10000000000000001,5\n2,7,-0,1e-300\n"
        "2,8,nan,0\n",
    ),
    (
        lambda path: write_records_csv(
            [ExperimentRecord("mt", "snr", np.float64(5.0), np.int64(3), 0.1, _NAN, -0.0,
                              1e-300, 5.0, np.float64(2.5), 0.0)],
            path,
        ),
        "method,param_name,param_value,seed,rho_mse,rho_psnr,mu,mu_av,phi_energy,"
        "proj_noise_energy,wall_time_ms\nmt,snr,5,3,0.10000000000000001,nan,-0,1e-300,5,2.5,0\n",
    ),
    (
        lambda path: write_convergence_csv(
            [(np.float64(0.5), np.int64(0), 5.0), (-0.0, 1, _NAN),
             (1e-300, 2, np.float64(0.1))],
            path,
        ),
        "lambda,iteration,f\n0.5,0,5\n-0,1,nan\n1e-300,2,0.10000000000000001\n",
    ),
]


@pytest.mark.parametrize(
    "write, expected", GOLDEN_TABLES,
    ids=["write_csv", "matrix", "trace", "records", "convergence"],
)
def test_table_golden_bytes(tmp_path, write, expected):
    path = tmp_path / "t.csv"
    write(path)
    assert path.read_bytes() == expected.encode("ascii")


@pytest.mark.parametrize("value", ["a,b", "a\nb", "a\rb", "\u00e9"],
                         ids=["comma", "newline", "return", "non_ascii"])
def test_write_csv_rejects_value_before_opening(tmp_path, value):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old\n")
    with pytest.raises(ValueError, match="cannot write"):
        write_csv(path, ("method", "x"), [("mt", 1.0), (value, 2.0)])
    assert path.read_bytes() == b"old\n"


class TestKeyValues:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.txt"
        write_keyvalues({"alpha": 1, "beta": 0.1, "name": "run-1", "flag": True}, path)
        back = read_keyvalues(path)
        assert back["alpha"] == "1"
        assert float(back["beta"]) == 0.1
        assert back["name"] == "run-1"
        assert back["flag"] == "true"

    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "n.txt"
        path.write_text("# comment\n\nkey=value\n")
        assert read_keyvalues(path) == {"key": "value"}

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "o.txt"
        path.write_text("keyvalue\n")
        with pytest.raises(ValueError):
            read_keyvalues(path)

    def test_value_may_contain_equals(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("grid=0:0.1:1\nnote=a=b\n")
        back = read_keyvalues(path)
        assert back["grid"] == "0:0.1:1"
        assert back["note"] == "a=b"
