import math

import numpy as np
import pytest

from csdesign.coherence import coherence_report, equivalent_dictionary, normalize_columns
from csdesign.experiments import (ExperimentParams, ExperimentRecord, design_for_method,
                                  write_convergence_csv, write_records_csv)
from csdesign.matio import (
    check_csv_value,
    check_keyvalue,
    check_matrix,
    read_keyvalues,
    read_matrix_csv,
    render_value,
    write_csv,
    write_keyvalues,
    write_matrix_csv,
)
from csdesign.objective import ObjectiveSpec, objective_value, value_and_gradient
from csdesign.recovery import batch_recover, omp
from csdesign.solver import TracePoint, design, project_to_relaxed_etf, write_trace_csv
from csdesign.synth import gen_dictionary, gen_signals, gen_sparse_codes, lemma1_check


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

    def test_rejects_rows_past_the_header_count(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("2,2\n1,2\n3,4\n5,6\n")
        with pytest.raises(ValueError, match="long.csv"):
            read_matrix_csv(path)

    def test_trailing_blank_lines_allowed(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("1,2\n1,2\n\n \n")
        np.testing.assert_array_equal(read_matrix_csv(path), [[1.0, 2.0]])

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


@pytest.mark.parametrize("value", ["a,b", "a\nb", "a\rb", "\u00e9"],
                         ids=["comma", "newline", "return", "non_ascii"])
def test_check_csv_value_rejects(value):
    with pytest.raises(ValueError, match="cannot write"):
        check_csv_value(value)


def test_check_csv_value_returns_rendered_text():
    assert check_csv_value(0.1) == render_value(0.1)
    assert check_csv_value(True) == "true"
    assert check_csv_value("mt-etf") == "mt-etf"


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

    @pytest.mark.parametrize("value", [" mt ", "mt\t", "", "a\nb", "a\rb"],
                             ids=["padded", "trailing-tab", "empty", "newline", "return"])
    def test_value_that_would_not_read_back_rejected(self, tmp_path, value):
        with pytest.raises(ValueError, match="cannot write"):
            check_keyvalue(value, "tag")
        path = tmp_path / "m.txt"
        path.write_bytes(b"old\n")
        with pytest.raises(ValueError, match="^tag: cannot write"):
            write_keyvalues({"alpha": 1, "tag": value}, path)
        assert path.read_bytes() == b"old\n"

    def test_unset_value_written_empty(self, tmp_path):
        assert check_keyvalue(None, "sre") == ""
        assert check_keyvalue(0.1, "lambda") == render_value(0.1)
        path = tmp_path / "m.txt"
        write_keyvalues({"sre": None, "tag": "a b"}, path)
        assert path.read_text() == "sre=\ntag=a b\n"
        assert read_keyvalues(path) == {"sre": "", "tag": "a b"}

    def test_value_may_contain_equals(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("grid=0:0.1:1\nnote=a=b\n")
        back = read_keyvalues(path)
        assert back["grid"] == "0:0.1:1"
        assert back["note"] == "a=b"


class TestCheckMatrix:
    def test_returns_a_float_matrix(self):
        out = check_matrix([[1, 2], [3, 4]], "a", rows=2, cols=2)
        assert out.dtype == float
        np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 4.0]])

    def test_float_array_passes_through(self):
        a = np.ones((2, 3))
        assert check_matrix(a, "a") is a

    @pytest.mark.parametrize(
        "a, shape, message",
        [
            (np.ones(3), {}, "a must be a nonempty 2-D array, got shape (3,)"),
            (np.ones((2, 0)), {}, "a must be a nonempty 2-D array, got shape (2, 0)"),
            (np.ones((2, 3)), {"rows": 3}, "a must have 3 rows, got shape (2, 3)"),
            (np.ones((2, 3)), {"cols": 2}, "a must have 2 columns, got shape (2, 3)"),
            (np.ones((2, 3)), {"rows": 3, "cols": 3},
             "a must have 3 rows and 3 columns, got shape (2, 3)"),
            (np.array([[1.0, np.nan, np.inf], [0.0, 1.0, -np.inf]]), {},
             "a has non-finite entries in 2 of 3 columns"),
        ],
        ids=["1-d", "empty", "rows", "cols", "square", "non-finite"],
    )
    def test_messages(self, a, shape, message):
        with pytest.raises(ValueError) as err:
            check_matrix(a, "a", **shape)
        assert str(err.value) == message


def _matrix_entries():
    """(id, argument name, valid matrix, call taking that matrix, a wrong shape or None)."""
    rng = np.random.default_rng(4)
    psi = gen_dictionary(6, 10, 1)
    phi = rng.standard_normal((3, 6))
    spec = ObjectiveSpec(psi=psi, lam=0.1)
    theta = gen_sparse_codes(10, 2, 4, 1)
    d = rng.standard_normal((3, 8))
    y = rng.standard_normal((3, 4))
    gram = np.eye(4) + 0.1
    return [
        ("spec-psi", "psi", psi, lambda a: ObjectiveSpec(psi=a), None),
        ("spec-gram-target", "gram_target", np.eye(10),
         lambda a: ObjectiveSpec(psi=psi, gram_target=a), (9, 9)),
        ("spec-sre", "sre", 0.1 * rng.standard_normal((6, 20)),
         lambda a: ObjectiveSpec(psi=psi, lam=0.1, sre=a), (5, 20)),
        ("design-phi0", "phi0", phi, lambda a: design(psi, 0.1, a), (3, 5)),
        ("randn-phi0", "phi0", phi,
         lambda a: design_for_method("randn", ExperimentParams(), psi, a, 0.1), None),
        ("objective-value", "phi", phi, lambda a: objective_value(a, spec), (3, 5)),
        ("value-and-gradient", "phi", phi, lambda a: value_and_gradient(a, spec), (3, 5)),
        ("equivalent-dictionary-phi", "phi", phi, lambda a: equivalent_dictionary(a, psi),
         None),
        ("equivalent-dictionary-psi", "psi", psi, lambda a: equivalent_dictionary(phi, a),
         (5, 10)),
        ("coherence-report", "phi", phi, lambda a: coherence_report(a, psi), None),
        ("normalize-columns", "d", d, normalize_columns, None),
        ("omp", "d", d, lambda a: omp(a, y[:, 0], 1), None),
        ("batch-recover-d", "d", d, lambda a: batch_recover(a, y, 1), None),
        ("batch-recover-y", "y", y, lambda a: batch_recover(d, a, 1), (4, 4)),
        ("gen-signals-psi", "psi", psi, lambda a: gen_signals(a, theta, 10.0, 1), None),
        ("gen-signals-theta", "theta", theta, lambda a: gen_signals(psi, a, 10.0, 1), (9, 4)),
        ("lemma1-check", "phi", phi, lambda a: lemma1_check(a, 1.0, 10, 1), None),
        ("relaxed-etf", "gram", gram, lambda a: project_to_relaxed_etf(a, 0.3), (3, 4)),
    ]


def _bad_matrices(valid, wrong_shape):
    nan, inf = valid.copy(), valid.copy()
    nan[0, 1] = np.nan
    inf[-1, -1] = -np.inf
    cases = {"nan": nan, "inf": inf, "empty": valid[:, :0], "1-d": valid[0]}
    if wrong_shape is not None:
        cases["shape"] = np.ones(wrong_shape)
    return cases


@pytest.mark.parametrize(
    "name, valid, call, case, bad",
    [
        pytest.param(name, valid, call, case, bad, id=f"{entry}-{case}")
        for entry, name, valid, call, wrong in _matrix_entries()
        for case, bad in _bad_matrices(valid, wrong).items()
    ],
)
def test_every_public_matrix_entry_holds_to_the_rule(name, valid, call, case, bad):
    # each entry takes its valid matrix, and rejects a NaN, an inf, an empty
    # matrix, a 1-D array and a wrong shape with a ValueError naming the argument
    call(valid)
    with pytest.raises(ValueError, match=rf"^{name} (must|has) "):
        call(bad)
