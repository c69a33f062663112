"""Command-line interface: parsing, exit codes, determinism, round trips."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thames import estimator, experiments, radius
from thames.cli import (
    _load_csv_columns,
    _load_table_rows,
    _write_csv,
    format_float,
    load_table,
    main,
    parse_radius_policy,
    parse_support,
)
from thames.correction import ConstrainedCorrectionConfig, SupportPredicate
from thames.errors import EmptyTruncationSet, InvalidInput, ParseError
from thames.estimator import ThamesOptions, thames
from thames.experiments import EXPERIMENTS
from thames.models import (
    DirMultModel,
    GaussianMeanModel,
    dirmult_dataset,
    gaussian_dataset,
)
from thames.seeds import spawn_seed, splitmix64


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def write_text(path, text):
    """Write text to path as UTF-8, newlines as they are; the path as a str."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


def write_draw_csv(path, d=2, t=2000, seed=3, mangle=None, model=None):
    """Posterior draws of model, by default a d-dimensional GaussianMeanModel."""
    model = model or GaussianMeanModel(1.0, gaussian_dataset(d, seed=seed))
    draws = model.posterior_sample(t, seed + 1)
    lp, ll = model.log_prior(draws), model.log_likelihood(draws)
    rows = [[format_float(v) for v in (*theta, a, b)]
            for theta, a, b in zip(draws, lp, ll)]
    if mangle:
        mangle(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"theta_{i + 1}" for i in range(draws.shape[1])]
                        + ["log_prior", "log_likelihood"])
        writer.writerows(rows)
    return model


class TestSeeds:
    def test_splitmix_reference_values(self):
        # published test vector for the splitmix64 output function
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_spawn_is_injective_over_small_ranges(self):
        seeds = {spawn_seed(42, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    def test_spawn_depends_on_master(self):
        assert spawn_seed(1, 0) != spawn_seed(2, 0)


class TestFloatFormatting:
    def test_round_trips_doubles(self):
        for x in (math.pi, 1.0 / 3.0, 1e-300, -2.5e17, 0.1):
            assert float(format_float(x)) == x

    def test_nonfinite_tokens(self):
        assert format_float(float("inf")) == "inf"
        assert format_float(float("-inf")) == "-inf"
        assert format_float(float("nan")) == "nan"

    def test_nan_with_its_sign_bit_set(self):
        negative_nan = -float("nan")
        assert math.copysign(1.0, negative_nan) == -1.0
        assert format_float(negative_nan) == "nan"
        assert format_float(np.float64(negative_nan)) == "nan"

    def test_csv_writer_value_types(self):
        # scv and replicate write every row through this one writer
        buf = io.StringIO()
        _write_csv(buf, ["s", "i", "n", "f", "g", "nan", "inf"],
                   [("a,b", 3, np.int64(-4), 0.1, np.float64(1e300),
                     float("nan"), -math.inf)])
        assert buf.getvalue() == (
            "s,i,n,f,g,nan,inf\n"
            '"a,b",3,-4,0.10000000000000001,1.0000000000000001e+300,nan,-inf\n')


class TestLoadTable:
    def test_csv_round_trip(self, tmp_path):
        path = str(tmp_path / "draws.csv")
        model = write_draw_csv(path, t=500)
        draws, log_post = load_table(path)
        assert draws.shape == (500, 2)
        expected = model.log_post(model.posterior_sample(500, 4))
        assert np.allclose(log_post, expected)

    def test_jsonl_input(self, tmp_path):
        path = str(tmp_path / "draws.jsonl")
        with open(path, "w") as fh:
            for theta, lp in (((0.1, 0.2), -3.0), ((0.3, -0.1), -2.5)):
                fh.write(json.dumps({"theta_1": theta[0], "theta_2": theta[1],
                                     "log_unnorm_posterior": lp}) + "\n")
        draws, log_post = load_table(path)
        assert draws.shape == (2, 2)
        assert log_post.tolist() == [-3.0, -2.5]

    def test_minus_inf_literal_is_retained(self, tmp_path):
        path = str(tmp_path / "draws.csv")
        with open(path, "w") as fh:
            fh.write("theta_1,log_unnorm_posterior\n1.0,-1.0\n2.0,-inf\n")
        _, log_post = load_table(path)
        assert log_post[1] == -math.inf

    @pytest.mark.parametrize("text, line, message", [
        ("theta_1,log_unnorm_posterior\n1.0,-1.0\nzzz,-2.0\n", 3,
         "cannot parse 'zzz'"),
        ('theta_1,note,log_unnorm_posterior\n1,"a\nb",2\nzzz,c,4\n', 4,
         "cannot parse 'zzz'"),
        ("theta_1,theta_01,log_unnorm_posterior\n1,2,-1\n", 1,
         "columns 'theta_1' and 'theta_01' are both theta 1"),
        ("theta_1,theta_\u0662,log_unnorm_posterior\n1,2,-1\n", 1,
         "column 'theta_\u0662': theta index is not ASCII digits"),
        ("theta_1,log_prior,log_likelihood\n1,-1,-1\n2,1e308,1e308\n", 3,
         "the log densities sum to +inf"),
        ("\n\ntheta_1,other\n1,2\n", 1, "the header line is empty"),
    ], ids=["one line per record", "after a quoted newline",
            "one theta index twice", "non-ASCII theta index",
            "densities that overflow", "blank first line"])
    def test_parse_error_names_line(self, tmp_path, text, line, message):
        path = str(tmp_path / "draws.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(ParseError) as exc_info:
            load_table(path)
        assert exc_info.value.line == line and message in str(exc_info.value)

    @pytest.mark.parametrize("value", ["true", "false", "9" * 400, "9" * 5000,
                                       "[" * 100_000],
                             ids=["true", "false", "400 digits", "5000 digits",
                                  "nested past the recursion limit"])
    def test_jsonl_value_that_is_not_a_float_is_a_parse_error(
            self, tmp_path, capsys, value):
        # true is no number, a 400-digit int overflows float(), a
        # 5000-digit one is past json's int digit limit, and json.loads
        # raises RecursionError on the nested one
        path = str(tmp_path / "draws.jsonl")
        with open(path, "w") as fh:
            fh.write('{"theta_1": 1.0, "log_unnorm_posterior": -1.0}\n' * 4)
            fh.write(f'{{"theta_1": {value}, "log_unnorm_posterior": -1.0}}\n')
        code, out = run_cli(capsys, "estimate", path)
        assert code == 3
        error = json.loads(out)
        assert error["error"] == "parse" and error["line"] == 5
        assert len(out.encode()) < 300  # a long token is quoted only in part

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_densities_that_overflow_are_a_parse_error(self, tmp_path, capsys,
                                                       suffix):
        # 1e308 + 1e308 is +inf: the record's line is named, with no
        # overflow warning on the way (pyproject.toml makes one an error)
        rows = [(1.0, -1.0, -1.0)] * 4 + [(2.0, 1e308, 1e308), (3.0, -1.0, -1.0)]
        names = ("theta_1", "log_prior", "log_likelihood")
        path = str(tmp_path / f"draws{suffix}")
        with open(path, "w") as fh:
            if suffix == ".csv":
                fh.write(",".join(names) + "\n")
                fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
            else:
                fh.writelines(json.dumps(dict(zip(names, row))) + "\n" for row in rows)
        code, out = run_cli(capsys, "estimate", path)
        assert code == 3
        assert json.loads(out) == {"error": "parse", "line": 5 + (suffix == ".csv"),
                                   "message": "the log densities sum to +inf"}

    def test_densities_that_sum_to_minus_inf_mark_a_zero_density_draw(
            self, tmp_path):
        # -1e308 + -1e308 is -inf, as the literal -inf is
        for text, suffix in (
                ("theta_1,log_prior,log_likelihood\n1,-1,-1\n2,-1e308,-1e308\n",
                 ".csv"),
                ('{"theta_1": 1, "log_prior": -1, "log_likelihood": -1}\n'
                 '{"theta_1": 2, "log_prior": -1e308, "log_likelihood": -1e308}\n',
                 ".jsonl")):
            path = write_text(tmp_path / f"draws{suffix}", text)
            assert load_table(path)[1].tolist() == [-2.0, -math.inf]

    def test_long_bad_csv_field_gives_short_error(self, tmp_path, capsys):
        path = str(tmp_path / "draws.csv")
        with open(path, "w") as fh:
            fh.write("theta_1,log_unnorm_posterior\n1.0,-1.0\n")
            fh.write("x" * 100_000 + ",-2.0\n")
        code, out = run_cli(capsys, "estimate", path)
        assert code == 3
        lines = out.splitlines()
        assert len(lines) == 1 and len(out.encode()) < 300
        error = json.loads(lines[0])
        assert error["error"] == "parse" and error["line"] == 3
        assert "100000 characters" in error["message"]

    def test_rejects_nonfinite_theta(self, tmp_path):
        path = str(tmp_path / "draws.csv")
        with open(path, "w") as fh:
            fh.write("theta_1,log_unnorm_posterior\ninf,-1.0\n")
        with pytest.raises(ParseError):
            load_table(path)

    def test_requires_density_columns(self, tmp_path):
        path = str(tmp_path / "draws.csv")
        with open(path, "w") as fh:
            fh.write("theta_1,other\n1.0,2.0\n")
        with pytest.raises(ParseError):
            load_table(path)

    @pytest.mark.parametrize("name, data, line", [
        ("draws.csv", b"theta_1,log_unnorm_posterior\n1.0,-1.0\n2.\xff0,-2.0\n", 3),
        ("draws.csv", b"theta_1,log_unnorm\xff_posterior\n1.0,-1.0\n2.0,-2.0\n", 1),
        ("draws.jsonl", b'{"theta_1": 1.0, "log_unnorm_posterior": -1.0}\n'
                        b'{"theta_1": 2.\xff0, "log_unnorm_posterior": -2.0}\n', 2),
    ], ids=["csv row", "csv header", "jsonl line"])
    def test_invalid_utf8_is_parse_error(self, tmp_path, capsys, name, data, line):
        path = str(tmp_path / name)
        with open(path, "wb") as fh:
            fh.write(data)
        code, out = run_cli(capsys, "estimate", path)
        assert code == 3
        assert json.loads(out) == {"error": "parse", "line": line,
                                   "message": "invalid UTF-8 byte 0xff"}

    # vectorized: whether np.loadtxt settles a CSV without the row parser
    @pytest.mark.parametrize("name, text, vectorized", [
        ("draws.csv", "theta_1,theta_2,log_unnorm_posterior\n1,2,-3\n4,5,-6\n",
         True),
        ("draws.csv", "theta_1,theta_2,log_unnorm_posterior\n1_0,2,-3\n4,5,-6\n",
         False),
        ("draws.jsonl",
         '{"theta_1": 1, "theta_2": 2, "log_unnorm_posterior": -3}\n'
         '{"theta_1": 4, "theta_2": 5, "log_unnorm_posterior": -6}\n', None),
    ], ids=["csv", "csv through the row parser", "jsonl"])
    def test_utf8_byte_order_mark_is_skipped(self, tmp_path, name, text,
                                             vectorized):
        # Excel and PowerShell start a UTF-8 file with one
        plain, marked = str(tmp_path / name), str(tmp_path / f"bom-{name}")
        with open(plain, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(marked, "w", encoding="utf-8-sig", newline="") as fh:
            fh.write(text)
        if vectorized is not None:
            assert (_load_csv_columns(marked) is not None) == vectorized
        for a, b in zip(load_table(marked), load_table(plain)):
            assert a.tobytes() == b.tobytes()


H2 = "theta_1,log_unnorm_posterior\n"

# (case, file text, whether the vectorized pass settles it without the
# row parser)
INGEST_CASES = [
    ("reordered columns, string chain ids",
     "chain,log_likelihood,theta_2,log_prior,theta_1\n"
     "c1,-1.5,0.2,-0.5,0.1\nchain-2,-2.5,0.3,-0.25,-0.4\n", True),
    ("duplicated header name, last wins",
     "theta_1,theta_1,log_unnorm_posterior\nabc,0.5,-1\n7,0.25,-2\n", True),
    ("two names for one theta index",
     "theta_1,theta_01,log_unnorm_posterior\n1,2,-1\n3,4,-2\n", False),
    ("Arabic-Indic digits in theta indices",
     "theta_\u0661,theta_\u0662,log_unnorm_posterior\n1,2,-1\n3,4,-2\n", False),
    ("theta_x is an unused column",
     "theta_1,theta_x,log_unnorm_posterior\n1,a,-1\n3,b,-2\n", True),
    ("quotes, padding, CRLF, blank lines",
     'theta_1,"log_unnorm_posterior"\r\n"1.5", -2.0 \r\n\r\n 0.25 ,"-3"\r\n'
     "\r\n4,5\r\n", True),
    ("quoted newline in an unused column",
     'theta_1,note,log_unnorm_posterior\n1,"a\nb",2\n3,c,4\n', True),
    ("whitespace-only line", H2 + "1,2\n   \n3,4\n", False),
    ("row with one extra field", H2 + "1,2\n1.0,1,5\n", False),
    ("row with one missing field",
     "theta_1,log_unnorm_posterior,chain\n1,2,a\n3,4\n", False),
    ("short row offset by a long row",
     "theta_1,log_unnorm_posterior,chain\n1,2\n3,4,a,b\n", False),
    ("nan theta on line 3", H2 + "1,2\nnan,4\n", False),
    ("inf theta on line 3", H2 + "1,2\ninf,4\n", False),
    ("-inf theta on line 4", H2 + "1,2\n3,4\n-inf,4\n", False),
    ("-inf log_prior, finite log_likelihood",
     "theta_1,log_prior,log_likelihood\n1,-inf,-2\n2,-1,-3\n", True),
    ("+inf density", H2 + "1,2\n3,inf\n", False),
    ("nan density", H2 + "1,nan\n", False),
    ("negative zero density sums to positive zero",
     "theta_1,log_prior,log_likelihood\n1,-0.0,-0.0\n", True),
    ("underscore digits", H2 + "1_0,2\n3,4\n", False),
    ("quoted comma", H2 + '"1,5",2\n', False),
    ("unparseable token", H2 + "1,2\nzzz,4\n", False),
    ("no density columns", "theta_1,other\n1.0,2.0\n", False),
    ("header only", H2, False),
    ("empty file", "", False),
    # csv.reader's default limit is 131 072 characters a field; loadtxt
    # has none, and the row parser lifts csv's while it reads
    ("200 000-character field in an unused column",
     "theta_1,note,log_unnorm_posterior\n1," + "x" * 200_000 + ",2\n3,c,4\n",
     True),
    ("200 000-character field in an unused column, then a bad value",
     "theta_1,note,log_unnorm_posterior\n1," + "x" * 200_000 + ",2\nzzz,c,4\n",
     False),
    ("200 000-character header name",
     "theta_1," + "n" * 200_000 + ",log_unnorm_posterior\n1,a,2\n", False),
]


J2 = '{"theta_1": 1, "log_unnorm_posterior": -2}\n'


def json_error(line):
    """The message of json.loads's error on line; some differ across
    Python versions."""
    try:
        json.loads(line)
    except json.JSONDecodeError as exc:
        return exc.msg
    raise AssertionError(f"{line!r} is valid JSON")


# (case, file text, the (draws, log_post) that load_table returns or the
# (message, line) of its ParseError); only the row parser reads JSONL, so
# each result is pinned
JSONL_INGEST_CASES = [
    ("ints and floats",
     J2 + '{"theta_1": 0.5, "log_unnorm_posterior": -2.5e-3}\n',
     ([[1.0], [0.5]], [-2.0, -0.0025])),
    ("reordered and extra keys, prior and likelihood",
     '{"chain": "a", "log_likelihood": -1.5, "theta_2": 0.2, '
     '"log_prior": -0.5, "theta_1": 0.1}\n'
     '{"theta_1": -0.4, "log_prior": -0.25, "theta_2": 0.3, '
     '"log_likelihood": -2.5, "note": [1, {"x": null}]}\n',
     ([[0.1, 0.2], [-0.4, 0.3]], [-2.0, -2.75])),
    ("duplicated key, last wins",
     '{"theta_1": "abc", "theta_1": 0.5, "log_unnorm_posterior": -1}\n',
     ([[0.5]], [-1.0])),
    ("two keys for one theta index",
     '{"theta_1": 1, "theta_01": 2, "log_unnorm_posterior": -1}\n',
     ("columns 'theta_1' and 'theta_01' are both theta 1", 1)),
    ("Arabic-Indic digits in theta indices",
     '{"theta_\u0661": 1, "theta_\u0662": 2, "log_unnorm_posterior": -1}\n',
     ("column 'theta_\u0661': theta index is not ASCII digits", 1)),
    ("blank, whitespace-only and CRLF lines",
     J2 + "\n   \n\t\r\n" + J2.replace("\n", "\r\n"),
     ([[1.0], [1.0]], [-2.0, -2.0])),
    ("-Infinity log_prior",
     '{"theta_1": 1, "log_prior": -Infinity, "log_likelihood": -2}\n',
     ([[1.0]], [-math.inf])),
    ("negative zero density sums to positive zero",
     '{"theta_1": 1, "log_prior": -0.0, "log_likelihood": -0.0}\n',
     ([[1.0]], [0.0])),
    ("integers past 2**63",
     '{"theta_1": 9223372036854775809, "log_unnorm_posterior": '
     '-36893488147419103233}\n',
     ([[9.223372036854776e+18]], [-3.6893488147419103e+19])),
    ("strings float() reads",
     '{"theta_1": "1.5", "log_unnorm_posterior": "-inf"}\n',
     ([[1.5]], [-math.inf])),
    ("true theta on line 2",
     J2 + '{"theta_1": true, "log_unnorm_posterior": -1}\n',
     ("column 'theta_1': cannot parse True", 2)),
    ("null density", '{"theta_1": 1, "log_unnorm_posterior": null}\n',
     ("column 'log_unnorm_posterior': cannot parse None", 1)),
    ("NaN theta", J2 + '{"theta_1": NaN, "log_unnorm_posterior": -1}\n',
     ("column 'theta_1': value must be finite", 2)),
    ("Infinity density",
     J2 + '{"theta_1": 1, "log_unnorm_posterior": Infinity}\n',
     ('column \'log_unnorm_posterior\': value must be finite or "-inf"', 2)),
    ("1e400 theta", J2 + '{"theta_1": 1e400, "log_unnorm_posterior": -1}\n',
     ("column 'theta_1': value must be finite", 2)),
    ("400-digit integer",
     J2 + '{"theta_1": ' + "9" * 400 + ', "log_unnorm_posterior": -1}\n',
     ("column 'theta_1': cannot parse " + "9" * 40 + "... (400 characters)", 2)),
    ("list value", J2 + '{"theta_1": [1], "log_unnorm_posterior": -1}\n',
     ("column 'theta_1': cannot parse [1]", 2)),
    ("line that is not an object", J2 + "[1, -2]\n",
     ("each line must be a JSON object", 2)),
    ("invalid JSON on line 2", J2 + '{"theta_1": 1,}\n',
     ("invalid JSON: " + json_error('{"theta_1": 1,}'), 2)),
    ("line 2 nested past the recursion limit", J2 + "[" * 100_000 + "\n",
     ("invalid JSON: nested too deeply", 2)),
    ("missing column on line 3",
     J2 + J2 + '{"theta_1": 1, "log_prior": -1}\n',
     ("missing column 'log_unnorm_posterior'", 3)),
    # line 2 is rejected before line 3's JSON is read
    ("true theta on line 2, invalid JSON on line 3",
     J2 + '{"theta_1": true, "log_unnorm_posterior": -1}\n'
     '{"theta_1": 1,}\n',
     ("column 'theta_1': cannot parse True", 2)),
    ("missing column on line 2, a list on line 3",
     J2 + '{"theta_1": 1}\n[1, 2]\n',
     ("missing column 'log_unnorm_posterior'", 2)),
    ("no density columns", '{"theta_1": 1, "other": 2}\n',
     ("need log_prior + log_likelihood columns or log_unnorm_posterior", 1)),
    # a JSONL file's columns are its first record's, so a column error
    # names that record's line
    ("no density columns after two blank lines",
     "\n\n" + '{"theta_1": 1, "other": 2}\n',
     ("need log_prior + log_likelihood columns or log_unnorm_posterior", 3)),
    ("two keys for one theta index after two blank lines",
     "\n\n" + '{"theta_1": 1, "theta_01": 2, "log_unnorm_posterior": -1}\n',
     ("columns 'theta_1' and 'theta_01' are both theta 1", 3)),
    ("theta_2 alone after two blank lines",
     "\n\n" + '{"theta_2": 1, "log_unnorm_posterior": -1}\n',
     ("theta columns must be numbered 1..d, got [2]", 3)),
    ("only blank lines", "\n \n", ("no data rows", 1)),
    ("empty file", "", ("no data rows", 1)),
]


class TestVectorizedIngest:
    """A CSV that np.loadtxt settles must give what the row parser gives,
    and the row parser, the only reader of JSONL, must give the arrays or
    the ParseError pinned for each input."""

    @pytest.mark.parametrize("text, vectorized",
                             [case[1:] for case in INGEST_CASES],
                             ids=[case[0] for case in INGEST_CASES])
    def test_matches_row_parser(self, tmp_path, capsys, text, vectorized):
        path = write_text(tmp_path / "draws.csv", text)
        assert (_load_csv_columns(path) is not None) == vectorized
        try:
            expected = _load_table_rows(path)
        except ParseError as exc:
            self.check_error(capsys, path, str(exc), exc.line)
            return
        self.check_arrays(path, expected)

    @pytest.mark.parametrize("text, expected",
                             [case[1:] for case in JSONL_INGEST_CASES],
                             ids=[case[0] for case in JSONL_INGEST_CASES])
    def test_jsonl_pinned_result(self, tmp_path, capsys, text, expected):
        path = write_text(tmp_path / "draws.jsonl", text)
        if isinstance(expected[0], str):
            self.check_error(capsys, path, *expected)
        else:
            self.check_arrays(path, [np.array(e, dtype=float) for e in expected])

    @staticmethod
    def check_error(capsys, path, message, line):
        with pytest.raises(ParseError) as got:
            load_table(path)
        assert (str(got.value), got.value.line) == (message, line)
        code, out = run_cli(capsys, "estimate", path)
        assert code == 3
        assert json.loads(out) == {"error": "parse", "message": message,
                                   "line": line}

    @staticmethod
    def check_arrays(path, expected):
        for a, b in zip(load_table(path), expected, strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert a.flags["C_CONTIGUOUS"]

    def test_generated_table_is_vectorized_and_identical(self, tmp_path):
        path = str(tmp_path / "draws.csv")
        write_draw_csv(path, d=5, t=3000)
        fast = _load_csv_columns(path)
        assert fast is not None
        for a, b in zip(fast, _load_table_rows(path)):
            assert a.tobytes() == b.tobytes()

    # first: the text of the first theta, 10, and what it is replaced by,
    # so that only the row parser reads the file
    @pytest.mark.parametrize("suffix, t, bound, first", [
        pytest.param(".csv", 20_000, 1.4, None, id=".csv-20000-1.4"),
        pytest.param(".jsonl", 10_000, 1.6, None, id=".jsonl-10000-1.6"),
        pytest.param(".csv", 20_000, 1.6, ("\n10,", "\n1_0,"),
                     id=".csv-20000-1.6-row-parser"),
        pytest.param(".jsonl", 10_000, 1.6, (": 10.0,", ': "10",'),
                     id=".jsonl-10000-1.6-string"),
    ])
    def test_peak_memory_in_draws(self, tmp_path, suffix, t, bound, first):
        # the theta columns are compacted inside the parsed table, not
        # copied out of it, and np.fromiter fills the row parser's table
        # one value at a time, holding no block of records as Python numbers
        d = 50
        x = np.random.default_rng(0).standard_normal((t, d))
        x[0, 0] = 10.0
        names = [f"theta_{i}" for i in range(1, d + 1)] + ["log_unnorm_posterior"]
        table = np.column_stack([x, -0.5 * np.einsum("ij,ij->i", x, x)])
        text = io.StringIO()
        if suffix == ".csv":
            np.savetxt(text, table, delimiter=",", header=",".join(names),
                       comments="", fmt="%.17g")
        else:
            text.writelines(json.dumps(dict(zip(names, row))) + "\n"
                            for row in table.tolist())
        text = text.getvalue()
        if first is not None:
            text = text.replace(*first, 1)
        path = write_text(tmp_path / ("draws" + suffix), text)
        tracemalloc.start()
        try:
            draws, _ = load_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(draws, x)
        assert peak <= bound * x.nbytes

    # one record, and tables of 3000 and 7000 records, across which
    # np.fromiter grows its buffer several times before it trims it
    @pytest.mark.parametrize("t", [1, 3000, 7000])
    def test_generated_jsonl_is_vectorized_and_identical(self, tmp_path, t):
        path = str(tmp_path / "draws.jsonl")
        with open(path, "wb") as fh:
            fh.write(draw_table_bytes(jsonl=True, t=t))
        draws, lp, ll = draw_table_arrays(t)
        # left to right from 0, as load_table sums the density columns
        self.check_arrays(path, (draws, 0.0 + lp + ll))

    # by line 2048 np.fromiter has grown its buffer several times, and by
    # line 5000 more; the bad line still gives its ParseError, whether
    # its theta_1 is true, a string, null, missing, invalid JSON or an
    # integer beyond the float range
    @pytest.mark.parametrize("line, theta_1, message", [
        (2048, "true", "column 'theta_1': cannot parse True"),
        (2049, "true", "column 'theta_1': cannot parse True"),
        (5000, "true", "column 'theta_1': cannot parse True"),
        (5000, '"abc"', "column 'theta_1': cannot parse 'abc'"),
        (5000, "null", "column 'theta_1': cannot parse None"),
        (5000, None, "missing column 'theta_1'"),
        (5000, "1,,", "invalid JSON: " + json_error('{"theta_1": 1,, "theta_2": 0}')),
        (5000, "9" * 400, "column 'theta_1': cannot parse " + "9" * 40
                          + "... (400 characters)")],
        ids=["2048", "2049", "5000", "5000-string", "5000-null", "5000-missing",
             "5000-invalid-json", "5000-400-digits"])
    def test_bad_value_in_a_later_block(self, tmp_path, capsys, line, theta_1,
                                        message):
        lines = draw_table_bytes(jsonl=True, t=6000).decode().splitlines(True)
        first = "" if theta_1 is None else f'"theta_1": {theta_1}, '
        lines[line - 1] = ('{' + first + '"theta_2": 0, "log_prior": -1, '
                           '"log_likelihood": -1}\n')
        path = write_text(tmp_path / "draws.jsonl", "".join(lines))
        self.check_error(capsys, path, message, line)


class TestFlagParsing:
    def test_radius_policies(self):
        assert parse_radius_policy("sqrt_d_plus_1").kind == "sqrt_d_plus_1"
        assert parse_radius_policy("fixed:2.5").value == 2.5
        assert parse_radius_policy("chisq_median").kind == "chisq_median"
        assert parse_radius_policy("optimal").kind == "optimal"
        for spec in ("bogus", "grid:1,2,3"):
            with pytest.raises(Exception, match="unknown radius policy"):
                parse_radius_policy(spec)

    def test_supports(self):
        assert parse_support("unbounded").kind == "unbounded"
        assert parse_support("simplex").kind == "simplex"
        assert parse_support("positive:0,2").indices == (0, 2)
        box = parse_support("box:-1:1,0:2")
        assert box.lower == (-1.0, 0.0) and box.upper == (1.0, 2.0)
        with pytest.raises(Exception):
            parse_support("bogus")


class TestEstimateCommand:
    def test_report_schema_and_accuracy(self, tmp_path, capsys):
        path = str(tmp_path / "draws.csv")
        model = write_draw_csv(path, t=4000)
        code, out = run_cli(capsys, "estimate", path)
        assert code == 0
        report = json.loads(out)
        exact = model.exact_log_marginal()
        assert report["ci_lower"] <= exact <= report["ci_upper"]
        assert report["log_recip_z"] == -report["log_z"]
        assert report["radius_policy"] == "sqrt_d_plus_1"
        assert report["split"] is True
        assert len(report["input_checksum"]) == 64
        assert report["t_estimation"] == 2000

    def test_radius_flag_override(self, tmp_path, capsys):
        path = str(tmp_path / "draws.csv")
        write_draw_csv(path, t=1000)
        code, out = run_cli(capsys, "estimate", path, "--radius", "fixed:2.0")
        assert code == 0
        assert json.loads(out)["radius"] == 2.0

    def test_deterministic_output(self, tmp_path, capsys):
        path = str(tmp_path / "draws.csv")
        write_draw_csv(path, t=1000)
        argv = ("estimate", path, "--radius", "fixed:1.5", "--no-split")
        _, out1 = run_cli(capsys, *argv)
        _, out2 = run_cli(capsys, *argv)
        assert out1 == out2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("theta_1,log_unnorm_posterior\n1.0,oops\n")
        code, out = run_cli(capsys, "estimate", path)
        assert code == 3
        error = json.loads(out)
        assert error["error"] == "parse" and error["line"] == 2

    def test_degenerate_term_exit_code(self, tmp_path, capsys):
        path = str(tmp_path / "draws.csv")

        def poison(rows):
            # zero-density draw at the sample mean: inside any fitted ellipsoid
            arr = np.array([[float(r[0]), float(r[1])] for r in rows])
            center = arr.mean(axis=0)
            rows[-1] = [format_float(center[0]), format_float(center[1]),
                        "-inf", "-inf"]

        write_draw_csv(path, t=1000, mangle=poison)
        code, out = run_cli(capsys, "estimate", path, "--no-split")
        assert code == 4
        assert json.loads(out)["error"] == "numerical"

    @pytest.mark.parametrize("flag, value", [
        ("--radius", "fixed:-1"),
        ("--radius", "fixed:nan"),
        ("--radius", "fixed:inf"),
        ("--support", "box:1:0"),
        ("--support", "positive:x"),
        ("--support", "box:nan:1,0:1"),
        ("--support", "positive:"),
    ])
    def test_bad_flag_value_exit_code(self, tmp_path, capsys, flag, value):
        path = str(tmp_path / "draws.csv")
        write_draw_csv(path, t=200)
        code, out = run_cli(capsys, "correct", path, "--support", "unbounded",
                            flag, value)
        assert code == 2
        # rejected while parsing flags, before the table is read
        lines = out.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == "usage" and flag in report["message"]

    @pytest.mark.parametrize("argv", [
        ["estimate", "{path}", "--radius", "grid:1,2"],
        ["correct", "{path}", "--support", "unbounded", "--radius", "grid:"],
        ["correct", "{path}", "--support", "unbounded", "--radius", "grid:1,nan"],
        ["scv", "--policies", "grid:1,2"],
    ])
    def test_grid_spec_is_unknown(self, tmp_path, capsys, argv):
        # the empirical radius grid is library-only
        path = str(tmp_path / "draws.csv")
        write_draw_csv(path, t=200)
        code, out = run_cli(capsys, *[a.format(path=path) for a in argv])
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == "usage"
        assert "unknown radius policy" in report["message"]

    def test_usage_error_exit_code(self, capsys):
        code = main(["estimate"])  # missing input path
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["estimate"],
        ["estimate", "draws.csv", "--ci", "2x"],
        ["estimate", "draws.csv", "--bogus"],
        ["estimate", "draws.csv", "--ci=--"],
        ["scv", "--policies=--"],
        ["replicate", "bogus", "--out", "unused"],
        [],
        ["scv", "--policies", "bogus"],
        ["scv", "--policies", "fixed:abc"],
        ["scv", "--policies", "fixed:-1"],
        ["scv", "--policies", "optimal", "grid:1,2"],
        ["scv", "--dmax", "-3"],
        ["scv", "--dmax", "0"],
        ["scv", "--dmax", "1000001"],
        ["scv", "--dmax", "100000000000000000000"],
        ["replicate", "gaussian-T", "--out", "unused", "--seed", "-1"],
        ["replicate", "gaussian-T", "--out", "unused",
         "--seed", "18446744073709551616"],
        ["replicate", "gaussian-d", "--out", "unused", "--reps", "0"],
        ["replicate", "gaussian-d", "--out", "unused", "--reps", "-1"],
    ])
    def test_usage_error_is_one_json_line(self, capsys, tmp_path, monkeypatch,
                                          argv):
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(capsys, *argv)
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage"
        if argv[:1] == ["replicate"] and len(argv) > 4:
            # a rejected value names its flag, and nothing is written
            assert argv[-2] in json.loads(lines[0])["message"]
            assert not os.path.exists("unused")

    def test_help_exit_code(self, capsys):
        code, out = run_cli(capsys, "estimate", "--help")
        assert code == 0
        assert out.startswith("usage: thames estimate")

    def test_missing_file_exit_code(self, capsys):
        code, out = run_cli(capsys, "estimate", "/nonexistent/file.csv")
        assert code == 2


class TestCorrectCommand:
    @pytest.mark.parametrize("kind", ["unbounded", "positive", "box", "simplex"])
    def test_report_matches_library(self, tmp_path, capsys, kind):
        path = str(tmp_path / "draws.csv")
        model = None
        if kind == "simplex":  # a posterior whose ellipsoid sticks out of S
            model = DirMultModel(1.0, 2, dirmult_dataset([0.6, 0.3, 0.1], 10, 2, 5))
        write_draw_csv(path, t=1000, model=model)
        draws, log_post = load_table(path)
        # a box that cuts the posterior through its mean in theta_1
        m = format_float(draws[:, 0].mean())
        spec = {"unbounded": "unbounded", "positive": "positive:0,1",
                "box": f"box:{m}:1000,-1000:1000", "simplex": "simplex"}[kind]
        cfg = ConstrainedCorrectionConfig(parse_support(spec), 5000, 11)
        code, out = run_cli(capsys, "correct", path, "--support", spec,
                            "--n", "5000", "--seed", "11", "--radius", "optimal")
        assert code == 0
        res = thames(draws, log_post, ThamesOptions(
            radius_policy=parse_radius_policy("optimal"), correction=cfg))
        if kind in ("box", "simplex"):
            assert 0.0 < res.correction_ratio < 1.0
        expected = {
            "log_z": res.log_z, "log_recip_z": res.log_recip_z,
            "ci_lower": res.ci_log_z[0], "ci_upper": res.ci_log_z[1],
            "se_recip_rel": res.se_recip_rel, "radius": res.radius_used,
            "n_inside": res.n_inside, "t_estimation": res.t_estimation,
            "correction_ratio": res.correction_ratio,
            "radius_policy": "optimal", "split": True, "seed": 11,
            "input_checksum": json.loads(out)["input_checksum"],
            "correction_ci_lower": res.correction_ci[0],
            "correction_ci_upper": res.correction_ci[1],
            "n_outside_support": res.n_outside_support,
        }
        estimation = draws[len(draws) // 2:]
        assert res.n_outside_support == int(
            np.count_nonzero(~cfg.support.contains(estimation)))
        report = json.loads(out)
        assert list(report) == list(expected)
        assert report == expected

    @pytest.mark.parametrize("argv", [
        ["correct", "--support", "unbounded", "--seed", "-1"],
        ["correct", "--support", "unbounded", "--seed", str(2 ** 64)],
        ["correct", "--support", "unbounded", "--n", "0"],
        ["correct", "--support", "unbounded", "--ci", "1.5"],
        ["estimate", "--ci", "1.5"],
        ["estimate", "--ci", "0"],
        ["correct", "--support", "unbounded", "--seed", "1.5"],
        ["correct", "--support", "unbounded", "--n", "-5"],
        ["correct", "--support", "unbounded", "--ci", "nan"],
        ["correct", "--support", "positive:0,-1"],
    ])
    def test_bad_option_fails_before_input_is_read(self, tmp_path, capsys, argv):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("theta_1,log_unnorm_posterior\n1.0,oops\n")
        code, out = run_cli(capsys, argv[0], path, *argv[1:])
        assert code == 2  # not the parse error, exit 3, of the file
        lines = out.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "usage"
        assert error["message"].startswith(f"argument {argv[-2]}: ")

    def test_level_whose_z_is_infinite_fails_before_input_is_read(self, tmp_path,
                                                                  capsys):
        # the largest double below 1: 0.5 * (1 + level) rounds to 1
        missing = str(tmp_path / "missing.csv")
        code, out = run_cli(capsys, "estimate", missing, "--ci", "0.9999999999999999")
        assert code == 2
        error = json.loads(out)
        assert list(error) == ["error", "message"] and error["error"] == "usage"
        assert error["message"].startswith("argument --ci: ")

    def test_estimate_takes_no_seed(self, tmp_path, capsys):
        # estimate draws no random number, so --seed belongs to correct only
        path = str(tmp_path / "draws.csv")
        write_draw_csv(path, t=200)
        code, out = run_cli(capsys, "estimate", path, "--seed", "0")
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "usage"
        assert "--seed" in error["message"]
        code, out = run_cli(capsys, "estimate", path)
        assert code == 0 and json.loads(out)["seed"] == 0

    @pytest.mark.parametrize("spec", ["positive:2", "positive:-1", "box:0:1"])
    def test_support_of_wrong_dimension_names_the_flag(self, tmp_path, capsys,
                                                       spec):
        # positive:2 and box:0:1 are checked once the table, here of
        # dimension 2, has been read; positive:-1 while flags are parsed
        path = str(tmp_path / "draws.csv")
        write_draw_csv(path, t=200)
        code, out = run_cli(capsys, "correct", path, "--support", spec)
        assert code == 2
        error = json.loads(out)
        assert error["error"] == "usage"
        assert error["message"].startswith("argument --support: ")

    def test_unbounded_is_identity(self, tmp_path, capsys):
        path = str(tmp_path / "draws.csv")
        write_draw_csv(path, t=1000)
        _, est_out = run_cli(capsys, "estimate", path)
        code, cor_out = run_cli(capsys, "correct", path,
                                "--support", "unbounded")
        assert code == 0
        est, cor = json.loads(est_out), json.loads(cor_out)
        assert cor["correction_ratio"] == 1.0
        assert cor["log_z"] == est["log_z"]
        assert cor["correction_ci_lower"] == 1.0

    def test_zero_overlap_exit_code(self, tmp_path, capsys):
        path = str(tmp_path / "draws.csv")
        write_draw_csv(path, t=1000)
        code, out = run_cli(capsys, "correct", path,
                            "--support", "box:1000:1001,1000:1001")
        assert code == 4
        lines = out.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert list(error) == ["error", "message"]
        assert error["error"] == "numerical"


def run_captured(argv):
    """(exit code, stdout, stderr) of an in-process run of main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def flag_text(*prefixes):
    """Arbitrary text, alone or after one of the prefixes that lead a
    flag's parser past its first branch."""
    text = st.text(max_size=24)
    if not prefixes:
        return text
    return text | st.tuples(st.sampled_from(prefixes), text).map("".join)


def at_most(limit):
    """True unless text reads as an int above limit: a large --dmax or
    --n is well-formed but slow, and not what these properties probe."""
    def check(text):
        try:
            return int(text) <= limit
        except ValueError:
            return True
    return check


@pytest.fixture(scope="module")
def small_table(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("flags") / "draws.csv")
    write_draw_csv(path, t=200)
    return path


class TestMalformedFlagProperties:
    """Whatever text a flag carries, the run exits 0 or prints exactly one
    JSON error object: exit 2 ("usage", naming the flag) for a malformed
    value, exit 4 ("numerical") for a well-formed radius or support that
    the data cannot use. No traceback reaches stdout or stderr."""

    @staticmethod
    def check(argv, flag, numerical_ok=False):
        code, out, err = run_captured(argv)
        assert "Traceback" not in out + err
        if code == 0:
            return
        lines = out.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert isinstance(report, dict) and "error" in report
        if code == 4 and numerical_ok:
            assert report["error"] == "numerical"
        else:
            assert code == 2
            assert report["error"] == "usage" and flag in report["message"]

    @given(flag_text("fixed:", "fixed:1e"))
    @settings(max_examples=60, deadline=None)
    def test_radius(self, small_table, text):
        self.check(["estimate", small_table, f"--radius={text}"], "--radius",
                   numerical_ok=True)

    @given(flag_text("positive:", "box:", "box:0:", "box:-1:1,"))
    @settings(max_examples=60, deadline=None)
    def test_support(self, small_table, text):
        self.check(["correct", small_table, f"--support={text}"], "--support",
                   numerical_ok=True)

    # the doubles next to 0 and 1; arbitrary text does not reach them
    @given(flag_text("0.", "1e"))
    @example(text="5e-324")
    @example(text="0.9999999999999999")
    @example(text="1.0000000000000002")
    @settings(max_examples=40, deadline=None)
    def test_ci(self, small_table, text):
        self.check(["estimate", small_table, f"--ci={text}"], "--ci")

    @given(flag_text().filter(at_most(10_000)))
    @settings(max_examples=40, deadline=None)
    def test_n(self, small_table, text):
        self.check(["correct", small_table, "--support", "unbounded",
                    f"--n={text}"], "--n")

    @given(flag_text("1", "-"))
    @settings(max_examples=40, deadline=None)
    def test_seed(self, small_table, text):
        self.check(["correct", small_table, "--support", "unbounded",
                    f"--seed={text}"], "--seed")

    @given(flag_text().filter(at_most(20)))
    @settings(max_examples=40, deadline=None)
    def test_scv_dmax(self, text):
        self.check(["scv", "--policies", "sqrt_d_plus_1", f"--dmax={text}"],
                   "--dmax")

    @given(flag_text("fixed:", "fixed:1e"))
    @settings(max_examples=60, deadline=None)
    def test_scv_policies(self, text):
        self.check(["scv", "--dmax", "2", f"--policies={text}"], "--policies",
                   numerical_ok=True)


def draw_table_arrays(t):
    """(draws, log_prior, log_likelihood) of a d = 2 GaussianMeanModel."""
    model = GaussianMeanModel(1.0, gaussian_dataset(2, seed=5))
    draws = model.posterior_sample(t, 6)
    return draws, model.log_prior(draws), model.log_likelihood(draws)


def draw_table_bytes(jsonl, t=30):
    draws, lp, ll = draw_table_arrays(t)
    if jsonl:
        return "".join(json.dumps({"theta_1": a, "theta_2": b, "log_prior": c,
                                   "log_likelihood": e}) + "\n"
                       for (a, b), c, e in zip(draws.tolist(), lp, ll)).encode()
    return ("theta_1,theta_2,log_prior,log_likelihood\n" + "".join(
        ",".join(format_float(v) for v in (*theta, c, e)) + "\n"
        for theta, c, e in zip(draws, lp, ll))).encode()


# one edit of a table: ("flip", position, byte), ("cut", position, _) or
# ("insert", position, text)
TABLE_EDITS = st.tuples(
    st.just("flip"), st.floats(0.0, 1.0),
    st.one_of(st.just(0xFF), st.integers(0, 255))) | st.tuples(
    st.just("cut"), st.floats(0.0, 1.0), st.none()) | st.tuples(
    st.just("insert"), st.floats(0.0, 1.0),
    st.sampled_from([b",", b'"', b"\n", b"\r\n", b"\r", b"{", b"}", b":", b" ",
                     b"\xff", b"\x00"]))


def mangle(data, edits):
    for kind, where, arg in edits:
        pos = int(where * len(data))
        if kind == "flip" and pos < len(data):
            data = data[:pos] + bytes([arg]) + data[pos + 1:]
        elif kind == "cut":
            data = data[:pos]
        elif kind == "insert":
            data = data[:pos] + arg + data[pos:]
    return data


class TestMalformedTableProperties:
    """Whatever bytes a draw table holds, estimate prints exactly one JSON
    line and no traceback, and exits 0, 2 (usage: too few draws), 3
    (parse, with the line number) or 4 (numerical). A file that is not
    UTF-8 is always a parse error."""

    @staticmethod
    def check(path, data):
        with open(path, "wb") as fh:
            fh.write(data)
        code, out, err = run_captured(["estimate", path])
        assert "Traceback" not in out + err
        assert code in (0, 2, 3, 4)
        lines = out.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert isinstance(report, dict)
        if code == 3:
            assert report["error"] == "parse" and isinstance(report["line"], int)
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            assert code == 3

    @given(st.lists(TABLE_EDITS, min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_csv(self, tmp_path_factory, edits):
        path = str(tmp_path_factory.mktemp("tables") / "draws.csv")
        self.check(path, mangle(draw_table_bytes(jsonl=False), edits))

    @given(st.lists(TABLE_EDITS, min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_jsonl(self, tmp_path_factory, edits):
        path = str(tmp_path_factory.mktemp("tables") / "draws.jsonl")
        self.check(path, mangle(draw_table_bytes(jsonl=True), edits))


class TestScvCommand:
    def test_table_contents(self, capsys):
        code, out = run_cli(capsys, "scv", "--dmax", "12")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 12 * 3
        d10 = [r for r in rows if r["d"] == "10"][0]
        assert abs(float(d10["L_d"]) - 1.0) <= 0.05
        for row in rows:
            lower, upper = float(row["lower_bound"]), float(row["upper_bound"])
            scv_opt = float(row["scv_opt"])
            assert lower <= scv_opt <= upper
            assert 0.0 < float(row["hpd_mass"]) < 1.0

    def test_deterministic(self, capsys):
        _, out1 = run_cli(capsys, "scv", "--dmax", "5")
        _, out2 = run_cli(capsys, "scv", "--dmax", "5")
        assert out1 == out2

    def test_rows_match_library(self, capsys):
        specs = ["sqrt_d_plus_1", "optimal", "chisq_median", "fixed:2.5"]
        code, out = run_cli(capsys, "scv", "--dmax", "8", "--policies", *specs)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["d"], r["policy"]) for r in rows] == \
            [(str(d), spec) for d in range(1, 9) for spec in specs]
        for row in rows:
            d = int(row["d"])
            c = radius.resolve_radius(parse_radius_policy(row["policy"]), d)
            assert float(row["c"]) == c
            assert float(row["scv"]) == radius.scv_normal(d, c)
            c_d = radius.optimal_radius(d).c_d
            assert float(row["hpd_mass"]) == radius.chi2_cdf(d, c_d ** 2)

    def test_optimal_root_find_runs_once_per_dimension(self, capsys, monkeypatch):
        # every solve for c_d starts with one evaluation at sqrt(d + 1)
        calls = []
        foc = radius._foc

        def counting_foc(d, c):
            calls.append((d, c))
            return foc(d, c)

        monkeypatch.setattr(radius, "_foc", counting_foc)
        radius.optimal_radius.cache_clear()
        code, _ = run_cli(capsys, "scv", "--dmax", "5")
        assert code == 0
        starts = [d for d, c in calls if c == math.sqrt(d + 1.0)]
        assert starts == [1, 2, 3, 4, 5]

    def test_dmax_cap(self, capsys):
        # sqrt(d + 4), the top of c_d's bracket, reaches the radius cap of
        # 1000 at d = 999 996
        code, out = run_cli(capsys, "scv", "--dmax", "999997")
        assert code == 2
        assert "--dmax must be <= 999996" in json.loads(out)["message"]

    def test_error_mid_table_is_one_json_line(self, capsys):
        # the SCV at c = 40 overflows for every d; no partial table is printed
        code, out = run_cli(capsys, "scv", "--dmax", "3", "--policies", "fixed:40")
        assert code == 4
        lines = out.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "numerical"


class TestReplicateCommand:
    def test_unknown_experiment_is_usage_error(self, tmp_path, capsys):
        code = main(["replicate", "bogus", "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == 2

    def test_gaussian_t_rows_and_coverage(self, tmp_path, capsys):
        code, _ = run_cli(capsys, "replicate", "gaussian-T",
                          "--out", str(tmp_path), "--seed", "0")
        assert code == 0
        with open(tmp_path / "gaussian_T.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["T"]) for r in rows] == [5] + list(range(1005, 9006, 1000))
        covered = sum(r["covered"] == "true" for r in rows)
        assert covered >= 9

    def test_gaussian_t_records_a_failed_run(self, monkeypatch):
        # a NumericalError ends that run only: its row keeps T and the exact
        # value, NaN for the rest and "false" for coverage
        clean = experiments.run("gaussian-T", 0, 1)
        real = estimator.thames

        def empty_at_t5(draws, *args, **kwargs):
            if len(draws) == 5:
                raise EmptyTruncationSet("no draw inside the truncation ellipsoid")
            return real(draws, *args, **kwargs)

        monkeypatch.setattr(estimator, "thames", empty_at_t5)
        rows = experiments.run("gaussian-T", 0, 1)
        t, log_z, exact, error, lower, upper, covered = rows[0]
        assert (t, exact, covered) == (5, clean[1][2], "false")
        assert all(math.isnan(v) for v in (log_z, error, lower, upper))
        assert rows[1:] == clean[1:]

    def test_toy_round_trip_and_determinism(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "replicate", "toy-figure7", "--out", str(out_a))
        run_cli(capsys, "replicate", "toy-figure7", "--out", str(out_b))
        bytes_a = (out_a / "toy_running.csv").read_bytes()
        assert bytes_a == (out_b / "toy_running.csv").read_bytes()
        with open(out_a / "toy_running.csv") as fh:
            rows = list(csv.DictReader(fh))
        final = rows[-1]
        exact = float(final["exact_log_z"])
        assert abs(float(final["thames_log_z"]) - exact) < 0.2

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_rerun_is_byte_identical(self, tmp_path, capsys, experiment):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = ["replicate", experiment, "--reps", "2"]
        assert run_cli(capsys, *argv, "--out", str(out_a))[0] == 0
        assert run_cli(capsys, *argv, "--out", str(out_b))[0] == 0
        name = EXPERIMENTS[experiment][1]
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
    def test_thames_threads_is_not_read(self, tmp_path, capsys, monkeypatch,
                                        value):
        # no value of the variable fails the run or changes a byte of the CSV
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = ["replicate", "gaussian-d", "--reps", "1"]
        monkeypatch.delenv("THAMES_THREADS", raising=False)
        assert run_cli(capsys, *argv, "--out", str(out_a))[0] == 0
        monkeypatch.setenv("THAMES_THREADS", value)
        assert run_cli(capsys, *argv, "--out", str(out_b))[0] == 0
        name = EXPERIMENTS["gaussian-d"][1]
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_peak_memory_does_not_grow_with_reps(self):
        # a setting's draws are freed before the next setting is drawn; a
        # d = 50 setting held over would add at least 4 MB
        peaks = []
        for reps in (1, 3):
            tracemalloc.start()
            try:
                experiments.run("gaussian-d", 0, reps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2e6

    @pytest.mark.parametrize("name, seed, reps, message", [
        ("gaussian-d", 0, 2.5, "^replication count"),
        ("gaussian-d", 0, 0, "^replication count"),
        ("gaussian-d", 0, -1, "^replication count"),
        ("gaussian-d", 0, "3", "^replication count"),
        ("nope", 0, 1, "^unknown experiment 'nope'; expected one of dirmult, "),
        ("gaussian-T", -1, 1, "^seed must be in"),
        ("gaussian-T", 2**64, 1, "^seed must be in"),
        ("gaussian-T", 1.5, 1, "^seed 1.5 is not an integer"),
    ])
    def test_library_run_rejects_bad_arguments(self, name, seed, reps, message):
        # the CLI's --seed and --reps checks and the library's are one check
        with pytest.raises(InvalidInput, match=message):
            experiments.run(name, seed, reps)

    def test_prostate_ranking(self, tmp_path, capsys):
        code, _ = run_cli(capsys, "replicate", "prostate", "--out", str(tmp_path))
        assert code == 0
        with open(tmp_path / "prostate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["model"] for r in rows] == [f"M{k}" for k in range(2, 9)]
        best_exact = max(rows, key=lambda r: float(r["exact_log_z"]))
        best_thames = max(rows, key=lambda r: float(r["thames_log_z"]))
        assert best_exact["model"] == "M2" == best_thames["model"]


class TestStartupImports:
    def test_estimate_correct_and_replicate_do_not_load_scipy(self, tmp_path):
        path = str(tmp_path / "draws.csv")
        write_draw_csv(path, t=1000)
        report = str(tmp_path / "modules.json")
        script = textwrap.dedent(f"""
            import json, sys
            from thames.cli import main

            def loaded(*packages):
                return sorted(m for m in sys.modules for p in packages
                              if m == p or m.startswith(p + "."))

            def run(*runs):
                codes = [main(argv) for argv in runs]
                return {{"codes": codes, "scipy": loaded("scipy"),
                         "models": loaded("thames.models"),
                         "hashlib": loaded("hashlib", "_hashlib"),
                         "futures": loaded("concurrent.futures")}}

            result = {{}}
            # scv needs no checksum and no model
            result["scv"] = run(["scv", "--dmax", "3"])
            result["estimate"] = run(
                ["estimate", {path!r}],
                ["estimate", {path!r}, "--radius", "fixed:2", "--ar1"],
                ["estimate", {path!r}, "--radius", "optimal"],
                ["estimate", {path!r}, "--radius", "chisq_median"],
                # a volume ratio of one block or of seven starts no thread
                ["correct", {path!r}, "--support", "positive:0,1", "--n", "1000"],
                ["correct", {path!r}, "--support", "positive:0,1", "--n", "100000"],
            )
            result["replicate"] = run(
                ["replicate", "gaussian-T", "--out", {str(tmp_path)!r}],
                ["replicate", "toy-figure7", "--out", {str(tmp_path)!r}],
                ["replicate", "dirmult", "--reps", "1", "--out", {str(tmp_path)!r}],
            )
            with open({report!r}, "w") as fh:
                json.dump(result, fh)
        """)
        src = os.path.dirname(os.path.dirname(radius.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", script], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        with open(report) as fh:
            scv, estimate, replicate = json.load(fh).values()
        assert scv["codes"] == [0] and estimate["codes"] == [0] * 6
        assert replicate["codes"] == [0] * 3
        assert scv["scipy"] == estimate["scipy"] == replicate["scipy"] == []
        assert scv["models"] == estimate["models"] == []
        assert replicate["models"] == ["thames.models"]
        assert scv["hashlib"] == []
        assert estimate["futures"] == []

    def test_package_exports_the_core_and_leaves_models_a_submodule(self):
        # in a fresh interpreter: import thames loads the estimator and not
        # the models, each core name is its module's object, every error
        # class imports from thames, and thames.models imports both ways
        core = {
            "correction": ["ConstrainedCorrectionConfig", "SupportPredicate",
                           "estimate_volume_ratio"],
            "errors": ["DegenerateTerm", "EmptyTruncationSet", "InsufficientData",
                       "InvalidInput", "NotPositiveDefinite", "NumericalFailure",
                       "Overflow", "ParseError", "ThamesError",
                       "ZeroSupportOverlap"],
            "estimator": ["ThamesOptions", "ThamesResult", "ar1_inflation",
                          "confidence_interval", "empirical_scv",
                          "harmonic_mean_log_z", "thames", "variance_recip_iid"],
            "geometry": ["Ellipsoid", "cholesky_factor", "log_volume",
                         "mahalanobis_sq"],
            "radius": ["OptimalRadius", "RadiusPolicy", "chi_square_median_radius",
                       "log_f", "optimal_radius", "resolve_radius", "scv_bounds",
                       "scv_normal"],
            "seeds": ["spawn_seed"],
        }
        assert sum(map(len, core.values())) == 34
        script = textwrap.dedent(f"""
            import importlib, inspect, json, sys
            import thames
            result = {{"loaded": ["thames.estimator" in sys.modules,
                                  "thames.models" in sys.modules]}}

            def not_exported(module, names):
                source = importlib.import_module(f"thames.{{module}}")
                return [name for name in names
                        if getattr(thames, name, None) is not getattr(source, name)]

            result["core"] = [name for module, names in {core!r}.items()
                              for name in not_exported(module, names)]
            result["errors"] = [name for name, obj in vars(thames.errors).items()
                                if inspect.isclass(obj) and issubclass(obj, Exception)
                                and obj.__module__ == "thames.errors"]
            result["errors_not_exported"] = not_exported("errors", result["errors"])
            from thames import models
            import thames.models
            result["models"] = (models is sys.modules["thames.models"] is thames.models
                                and hasattr(models, "GaussianMeanModel"))
            print(json.dumps(result))
        """)
        src = os.path.dirname(os.path.dirname(radius.__file__))
        run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == 0, run.stderr
        result = json.loads(run.stdout)
        assert result["loaded"] == [True, False]
        assert result["core"] == []
        assert "NumericalError" in result["errors"] and len(result["errors"]) == 11
        assert result["errors_not_exported"] == []
        assert result["models"] is True

    @pytest.mark.parametrize("argv", [
        ["scv", "--dmax", "200"],
        ["estimate", "{path}", "--radius", "chisq_median"],
    ], ids=["scv", "estimate chisq_median"])
    def test_runs_without_scipy(self, tmp_path, argv):
        # with scipy unimportable the command prints the same bytes
        path = str(tmp_path / "draws.csv")
        write_draw_csv(path, t=1000)
        argv = [a.format(path=path) for a in argv]
        src = os.path.dirname(os.path.dirname(radius.__file__))
        outs = []
        for block in ('sys.modules["scipy"] = None; ', ""):
            script = (f"import sys; {block}"
                      f"from thames.cli import main; sys.exit(main({argv!r}))")
            run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                 env=dict(os.environ, PYTHONPATH=src))
            assert run.returncode == 0, run.stdout + run.stderr
            outs.append(run.stdout)
        assert outs[0] == outs[1]
