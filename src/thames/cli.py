"""Command-line front end: flag parsing and I/O around the library.

Subcommands: ``estimate`` (run the truncated harmonic mean estimator on
a table of posterior draws), ``correct`` (estimate plus constrained-
support volume-ratio adjustment), ``scv`` (tabulate the normal-posterior
squared coefficient of variation and optimal radii), and ``replicate``
(run one of the built-in conjugate-model experiments of
``thames.experiments`` and write its rows as CSV).

All density columns are NATURAL log. There is deliberately no
``--log-base`` flag: silently mixing log10 and ln is the classic failure
mode, so any base conversion must happen before the file reaches this
tool.

Exit codes: 0 success, 1 environment error (a module the command
imports when it runs, such as ``thames.models`` for ``replicate``, is
missing from a broken install), 2 usage error, 3 parse error, 4
numerical error (empty truncation set, non-positive-definite covariance,
zero support overlap, zero-density draw inside the ellipsoid). Errors
print a single JSON object to stdout.

Output is deterministic: the same input file, flags, and seed produce
byte-identical output.

Start-up cost: no module of the package imports scipy, so every
command loads only numpy and the standard library. ``scv``'s HPD mass
and the ``chisq_median`` radius come from ``radius.chi2_cdf``, a finite
sum for integer d. Each command imports only what it runs: ``thames``
resolves its public names on first use, ``estimate``, ``correct`` and
``scv`` never import ``thames.models``, and ``hashlib`` (with OpenSSL)
is imported only to checksum an input file.
"""

import argparse
import csv
import itertools
import json
import math
import os
import re
import sys
import warnings

import numpy as np

from . import experiments
from .correction import ConstrainedCorrectionConfig, SupportPredicate
from .errors import InvalidInput, NumericalError, ParseError, _check_count, _check_level
from .estimator import ThamesOptions, thames
from .radius import (
    MAX_RADIUS,
    RadiusPolicy,
    chi2_cdf,
    optimal_radius,
    resolve_radius,
    scv_bounds,
    scv_normal,
)
from .seeds import _check_seed

# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


def format_float(x):
    """17 significant digits: enough to round-trip any double exactly.
    A NaN of either sign prints as nan, the infinities as inf and -inf."""
    return format(float(x), ".17g")


def _json_value(v):
    if isinstance(v, float):
        return format_float(v) if math.isfinite(v) else json.dumps(format_float(v))
    return json.dumps(v)


def dump_report(fields, stream):
    """One flat JSON object, keys in insertion order, floats at 17 digits."""
    body = ", ".join(f"{json.dumps(k)}: {_json_value(v)}" for k, v in fields.items())
    stream.write("{" + body + "}\n")


def _write_csv(stream, header, rows):
    """The header, then one line per row: strings as they are, integers
    in decimal, every other value through format_float."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else
                         str(v) if isinstance(v, (int, np.integer)) else
                         format_float(v) for v in row])


def emit_error(kind, message, stream, **extra):
    fields = {"error": kind, "message": message}
    fields.update(extra)
    dump_report(fields, stream)


def file_checksum(path):
    import hashlib  # loads OpenSSL, 3.5 MB that scv and a bare import do not need

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Input tables
# ---------------------------------------------------------------------------

_THETA_RE = re.compile(r"^theta_(\d+)$")
# rows per block of the column compaction, so that its temporary stays
# small whatever T is
_BLOCK_ROWS = 2048


def _classify_columns(names):
    """(theta names in index order, density names) from distinct column names."""
    thetas = {}
    for name in names:
        m = _THETA_RE.match(name)
        if m:
            if not m.group(1).isascii():  # \d and int() take any Unicode digit
                raise ParseError(f"column {name!r}: theta index is not ASCII "
                                 "digits", line=1)
            i = int(m.group(1))
            if i in thetas:  # theta_1 and theta_01
                raise ParseError(f"columns {thetas[i]!r} and {name!r} are both "
                                 f"theta {i}", line=1)
            thetas[i] = name
    if not thetas:
        raise ParseError("no theta_<i> columns found", line=1)
    expected = list(range(1, len(thetas) + 1))
    if sorted(thetas) != expected:
        raise ParseError(
            f"theta columns must be numbered 1..d, got {sorted(thetas)}", line=1)
    theta_names = [thetas[i] for i in expected]
    if "log_prior" in names and "log_likelihood" in names:
        density_names = ["log_prior", "log_likelihood"]
    elif "log_unnorm_posterior" in names:
        density_names = ["log_unnorm_posterior"]
    else:
        raise ParseError(
            "need log_prior + log_likelihood columns or log_unnorm_posterior",
            line=1)
    return theta_names, density_names


def _parse_value(token, column, line_no, is_theta):
    try:
        if isinstance(token, bool):  # float(True) is 1.0
            raise TypeError
        value = float(token)
    except (TypeError, ValueError, OverflowError):
        shown = repr(token)
        if len(shown) > 40:  # so that a huge bad field gives a short error line
            shown = f"{shown[:40]}... ({len(str(token))} characters)"
        raise ParseError(f"column {column!r}: cannot parse {shown}", line=line_no)
    if math.isnan(value) or value == math.inf or (is_theta and value == -math.inf):
        kind = "finite" if is_theta else 'finite or "-inf"'
        raise ParseError(f"column {column!r}: value must be {kind}", line=line_no)
    return value


def _csv_records(reader):
    """(physical line it ends on, record) for each record of a csv.reader,
    with csv.Error raised as ParseError at the line reached."""
    while True:
        # np.loadtxt has no field size limit, so csv's process-wide one is
        # lifted to the largest C long while a record is read
        limit = csv.field_size_limit(2**31 - 1)
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None
        finally:
            csv.field_size_limit(limit)
        yield reader.line_num, row


# under errors="surrogateescape" a byte that is not UTF-8 decodes to a
# lone surrogate, U+DC80..U+DCFF
_UNDECODED = re.compile("[\udc80-\udcff]")


def _utf8_lines(fh):
    """The lines of a file opened with errors="surrogateescape", with the
    first byte that is not UTF-8 raised as ParseError at its line."""
    for line_no, line in enumerate(fh, start=1):
        bad = None if line.isascii() else _UNDECODED.search(line)
        if bad:
            byte = ord(bad.group()) - 0xDC00
            raise ParseError(f"invalid UTF-8 byte 0x{byte:02x}", line=line_no)
        yield line


def _rows_from_csv(path):
    with open(path, newline="", encoding="utf-8-sig",
              errors="surrogateescape") as fh:
        records = _csv_records(csv.reader(_utf8_lines(fh)))
        first = next(records, None)
        if first is None:
            raise ParseError("empty file", line=1)
        names = [h.strip() for h in first[1]]
        for line_no, row in records:
            if not row:
                continue
            if len(row) != len(names):
                raise ParseError(
                    f"expected {len(names)} fields, got {len(row)}", line=line_no)
            yield line_no, dict(zip(names, (tok.strip() for tok in row)))


def _rows_from_jsonl(path):
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, line in enumerate(_utf8_lines(fh), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer too long
                msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                raise ParseError(f"invalid JSON: {msg}", line=line_no)
            except RecursionError:
                raise ParseError("invalid JSON: nested too deeply",
                                 line=line_no) from None
            if not isinstance(record, dict):
                raise ParseError("each line must be a JSON object", line=line_no)
            yield line_no, record


def _load_table_rows(path):
    """Parse a draw table one record at a time (every JSONL file, and a
    CSV that np.loadtxt does not settle): the first record picks the
    columns, and np.fromiter converts each record's thetas and density
    sum into one (T, d + 1) table, holding no record as Python numbers."""
    rows = _rows_from_jsonl(path) if path.endswith(".jsonl") else _rows_from_csv(path)
    first = next(rows, None)
    if first is None:
        raise ParseError("no data rows", line=1)
    thetas, densities = _classify_columns(list(first[1]))
    table = np.fromiter(_values(itertools.chain([first], rows), thetas, densities),
                        dtype=float)
    d = len(thetas)
    table.shape = (-1, d + 1)  # in place, so the table owns its buffer
    return _checked_columns(table, range(d), [d])


def _values(rows, thetas, densities):
    """Each record's thetas, then the sum of its densities, left to right
    from 0.0 as _checked_columns sums. A value that is not a finite float
    goes through _parse_value; a density sum of +inf is a parse error."""
    names = thetas + densities
    for line_no, record in rows:
        for name in names:
            if name not in record:
                raise ParseError(f"missing column {name!r}", line=line_no)
        for name in thetas:
            value = record[name]
            if type(value) is not float or not -math.inf < value < math.inf:
                value = _parse_value(value, name, line_no, True)
            yield value
        log_post = 0.0
        for name in densities:
            value = record[name]
            if type(value) is not float or not -math.inf < value < math.inf:
                value = _parse_value(value, name, line_no, False)
            log_post += value
        if log_post == math.inf:
            raise ParseError("the log densities sum to +inf", line=line_no)
        yield log_post


def _load_csv_columns(path):
    """One np.loadtxt pass over a CSV body, or None to defer to the row parser.

    loadtxt converts with PyOS_string_to_double, the parser behind
    float(), and quotes fields as csv's default dialect does. usecols is
    left unset so that loadtxt rejects a row whose field count differs
    from the first row's; with usecols it would drop extra fields
    silently. Unused columns go through a converter that ignores them.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(csv.reader(fh), None)
        except (csv.Error, UnicodeDecodeError):
            return None
        if header is None:
            return None
        names = [h.strip() for h in header]
        try:
            theta_names, density_names = _classify_columns(list(dict.fromkeys(names)))
        except ParseError:
            return None
        # the last of duplicated names wins, as in _rows_from_csv's dict(zip(...))
        column = {name: i for i, name in enumerate(names)}
        theta_idx = [column[n] for n in theta_names]
        density_idx = [column[n] for n in density_names]
        used = set(theta_idx + density_idx)
        skipped = {i: lambda token: 0.0 for i in range(len(names)) if i not in used}
        try:
            with warnings.catch_warnings():
                # an empty body warns "input contained no data"
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                   dtype=float, ndmin=2, converters=skipped)
        except ValueError:  # UnicodeDecodeError included
            return None
    if table.shape[0] == 0 or table.shape[1] != len(names):
        return None
    return _checked_columns(table, theta_idx, density_idx)


def _checked_columns(table, theta_idx, density_idx):
    """(draws, log_post) from the theta and density columns of a parsed
    table, or None for a theta that is not finite or a density sum that
    is NaN or +inf, which the row parser (whose table passes) reports.

    The table must own its buffer, which becomes the draws: no second
    copy of them is made. The densities are summed from views of their
    columns. The theta columns are then moved, _BLOCK_ROWS rows at a
    time, to the front of the buffer: a block is copied out before it is
    written back, and the rows it is written to end before the next
    block's first row. Last, the buffer shrinks in place to the draws,
    so that the other columns are not held while the estimator runs.
    """
    # left to right from 0, as sum() does: 0.0 + -0.0 is 0.0. A NaN or
    # +inf density, or two whose sum overflows, leaves a NaN or +inf sum
    log_post = np.zeros(len(table))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in density_idx:
            log_post += table[:, i]
    if not (log_post < np.inf).all():
        return None
    t, d = len(table), len(theta_idx)
    draws = table.reshape(-1)[:t * d].reshape(t, d)
    buf = np.empty((min(t, _BLOCK_ROWS), d))
    for start in range(0, t, _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS]
        # into out=, the default mode="raise" buffers a second block
        theta = block.take(theta_idx, axis=1, out=buf[:len(block)], mode="clip")
        if not np.isfinite(theta).all():
            return None
        draws[start:start + len(block)] = theta
    # the views above are not used again, so the buffer may move
    table.resize((t, d), refcheck=False)
    return table, log_post


def load_table(path):
    """Parse a draw table into (draws: T x d, log_post: T).

    CSV with a header row by default; JSONL when the extension is
    .jsonl. Rows with a chain column are concatenated in file order.
    Separate log_prior/log_likelihood columns are summed. A UTF-8
    byte-order mark at the start of the file, as Excel and PowerShell
    write, is skipped.

    There is one parser per format. A CSV is parsed in one np.loadtxt
    pass, and a JSONL file by the row parser. A CSV that loadtxt cannot
    settle (a bad value, a ragged row, a token float() accepts and
    loadtxt does not, such as 1_0) goes to the row parser too, which
    returns the same arrays or raises the ParseError with its line
    number.
    """
    if not path.endswith(".jsonl"):
        tables = _load_csv_columns(path)
        if tables is not None:
            return tables
    return _load_table_rows(path)


# ---------------------------------------------------------------------------
# Flag parsing
# ---------------------------------------------------------------------------


def parse_radius_policy(spec):
    try:
        if spec == "sqrt_d_plus_1":
            return RadiusPolicy.sqrt_d_plus_1()
        if spec == "chisq_median":
            return RadiusPolicy.chisq_median()
        if spec == "optimal":
            return RadiusPolicy.optimal()
        if spec.startswith("fixed:"):
            return RadiusPolicy.fixed(float(spec[len("fixed:"):]))
    except (InvalidInput, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"radius policy {spec!r}: {exc}")
    raise argparse.ArgumentTypeError(
        f"unknown radius policy {spec!r}; expected sqrt_d_plus_1, fixed:<c>, "
        "chisq_median, or optimal")


def parse_support(spec):
    try:
        if spec == "unbounded":
            return SupportPredicate.unbounded()
        if spec == "simplex":
            return SupportPredicate.simplex()
        if spec.startswith("positive:"):
            idx = [int(tok) for tok in spec[len("positive:"):].split(",") if tok]
            return SupportPredicate.positive_orthant(idx)
        if spec.startswith("box:"):
            lower, upper = [], []
            for pair in spec[len("box:"):].split(","):
                lo, _, up = pair.partition(":")
                lower.append(float(lo))
                upper.append(float(up))
            return SupportPredicate.box(lower, upper)
    except (InvalidInput, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"support {spec!r}: {exc}")
    raise argparse.ArgumentTypeError(
        f"unknown support {spec!r}; expected unbounded, positive:i,j,..., "
        "box:lo:hi,lo:hi,..., or simplex")


def _checked(convert, check, *args):
    """An argparse type that converts a flag value, then runs the library's
    check on it and args, so a rejected value is reported under the flag's
    name."""
    def parse(text):
        value = convert(text)
        try:
            check(value, *args)
        except InvalidInput as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return value
    parse.__name__ = convert.__name__  # as in "invalid float value: 'x'"
    return parse


# ---------------------------------------------------------------------------
# estimate / correct
# ---------------------------------------------------------------------------


def _options_from_args(args):
    return ThamesOptions(
        radius_policy=args.radius,
        split=not args.no_split,
        ci_level=args.ci,
        serial_correction="ar1" if getattr(args, "ar1", False) else "none",
        correction=ConstrainedCorrectionConfig(args.support, args.n, args.seed)
        if "support" in args else None,
    )


def _base_report(result, args, checksum):
    return {
        "log_z": result.log_z,
        "log_recip_z": result.log_recip_z,
        "ci_lower": result.ci_log_z[0],
        "ci_upper": result.ci_log_z[1],
        "se_recip_rel": result.se_recip_rel,
        "radius": result.radius_used,
        "n_inside": result.n_inside,
        "t_estimation": result.t_estimation,
        "correction_ratio": result.correction_ratio,
        "radius_policy": args.radius.kind,
        "split": not args.no_split,
        "seed": args.seed,
        "input_checksum": checksum,
    }


def cmd_estimate(args, stdout):
    opts = _options_from_args(args)  # bad flag values fail before any input is read
    draws, log_post = load_table(args.input)
    if opts.correction is not None:
        try:  # a support's dimension can be checked only against the table
            opts.correction.support.contains(draws[:1])
        except InvalidInput as exc:
            raise InvalidInput(f"argument --support: {exc}") from None
    result = thames(draws, log_post, opts)
    report = _base_report(result, args, file_checksum(args.input))
    if result.correction_ci is not None:
        report["correction_ci_lower"], report["correction_ci_upper"] = \
            result.correction_ci
        report["n_outside_support"] = result.n_outside_support
    dump_report(report, stdout)
    return 0


# ---------------------------------------------------------------------------
# scv
# ---------------------------------------------------------------------------

SCV_POLICIES = ("sqrt_d_plus_1", "optimal", "chisq_median")


def parse_scv_policy(spec):
    """(spec, policy) for an scv --policies entry; the spec is printed as typed."""
    return spec, parse_radius_policy(spec)


def cmd_scv(args, stdout):
    if args.dmax < 1:
        raise InvalidInput(f"--dmax must be >= 1, got {args.dmax}")
    # c_d lies in [sqrt(d), sqrt(d + 4)]; above this that bracket passes
    # the radius-theory cap
    if args.dmax > MAX_RADIUS ** 2 - 4:
        raise InvalidInput(f"--dmax must be <= {MAX_RADIUS ** 2 - 4:.0f}, so that "
                           f"sqrt(d + 4) is within the radius-theory cap, "
                           f"got {args.dmax}")
    # the whole table is built first, so an error prints only its JSON line
    rows = []
    for d in range(1, args.dmax + 1):
        opt = optimal_radius(d)
        lower, upper = scv_bounds(d)
        hpd = chi2_cdf(d, opt.c_d ** 2)
        for spec, policy in args.policies:
            c = resolve_radius(policy, d)
            rows.append((d, spec, c, scv_normal(d, c), opt.c_d, opt.l_d,
                         opt.scv_at_opt, lower, upper, hpd))
    _write_csv(stdout, ["d", "policy", "c", "scv", "c_d", "L_d", "scv_opt",
                        "lower_bound", "upper_bound", "hpd_mass"], rows)
    return 0


# ---------------------------------------------------------------------------
# replicate
# ---------------------------------------------------------------------------


def cmd_replicate(args, stdout):
    _, name, header = experiments.EXPERIMENTS[args.experiment]
    os.makedirs(args.out, exist_ok=True)
    rows = experiments.run(args.experiment, args.seed, args.reps)
    with open(os.path.join(args.out, name), "w", newline="") as fh:
        _write_csv(fh, header, rows)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _JsonErrorParser(argparse.ArgumentParser):
    """An ArgumentParser, subparsers included, that reports a usage error
    as the one JSON error object on stdout instead of usage text."""

    def error(self, message):
        emit_error("usage", message, sys.stdout)
        self.exit(2)

    def _get_values(self, action, arg_strings):
        # before Python 3.13 argparse drops a "--" value, so "--ci=--"
        # would reach the command as an empty list
        if action.option_strings and arg_strings == ["--"]:
            self.error(f"argument {'/'.join(action.option_strings)}: "
                       "expected one argument")
        return super()._get_values(action, arg_strings)


def build_parser():
    parser = _JsonErrorParser(
        prog="thames",
        description="Truncated harmonic mean estimation of marginal "
                    "likelihoods from posterior draws. Density columns are "
                    "NATURAL log; convert before ingesting.")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags that estimate and correct share
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("input")
    table.add_argument("--radius", type=parse_radius_policy,
                       default=RadiusPolicy.sqrt_d_plus_1(),
                       help="sqrt_d_plus_1 | fixed:<c> | chisq_median | optimal")
    table.add_argument("--no-split", action="store_true")
    table.add_argument("--ci", type=_checked(float, _check_level), default=0.95)

    p_est = sub.add_parser("estimate", parents=[table],
                           help="estimate log Z from a draw table")
    p_est.add_argument("--ar1", action="store_true",
                       help="inflate the variance by an AR(1) factor")
    p_est.set_defaults(func=cmd_estimate, seed=0)  # estimate draws no sample

    p_cor = sub.add_parser("correct", parents=[table],
                           help="estimate, then adjust for constrained support")
    p_cor.add_argument("--support", type=parse_support, required=True,
                       help="unbounded | positive:i,j,... | "
                            "box:lo:hi,lo:hi,... | simplex; indices count "
                            "from 0, so theta_1..theta_10 are "
                            "positive:0,...,9")
    p_cor.add_argument("--n", type=_checked(int, _check_count, "sample"), default=100)
    p_cor.add_argument("--seed", type=_checked(int, _check_seed), default=0,
                       help="volume-ratio sample seed, in [0, 2**64)")
    p_cor.set_defaults(func=cmd_estimate)

    p_scv = sub.add_parser("scv",
                           help="tabulate normal-posterior SCV and optimal radii")
    p_scv.add_argument("--dmax", type=int, default=200)
    p_scv.add_argument("--policies", nargs="+", type=parse_scv_policy,
                       default=[parse_scv_policy(p) for p in SCV_POLICIES],
                       help="sqrt_d_plus_1 | fixed:<c> | chisq_median | optimal")
    p_scv.set_defaults(func=cmd_scv)

    p_rep = sub.add_parser("replicate", help="run a built-in experiment")
    p_rep.add_argument("experiment", choices=sorted(experiments.EXPERIMENTS))
    p_rep.add_argument("--out", required=True)
    p_rep.add_argument("--seed", type=_checked(int, _check_seed), default=0,
                       help="experiment seed, in [0, 2**64)")
    p_rep.add_argument("--reps", type=_checked(int, _check_count, "replication"),
                       default=50,
                       help="replications per setting; gaussian-d and dirmult only")
    p_rep.set_defaults(func=cmd_replicate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    stdout = sys.stdout
    try:
        return args.func(args, stdout)
    except ParseError as exc:
        emit_error("parse", str(exc), stdout, line=exc.line)
        return 3
    except NumericalError as exc:
        emit_error("numerical", str(exc), stdout)
        return 4
    except (InvalidInput, OSError, ValueError) as exc:
        emit_error("usage", str(exc), stdout)
        return 2
    except ImportError as exc:  # a broken install, such as a module left out
        emit_error("environment", str(exc), stdout, module=exc.name)
        return 1


if __name__ == "__main__":
    sys.exit(main())
