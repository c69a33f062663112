"""The benchmark's workloads: their inputs, operations and output checks.

A workload is a list of operations run in order, one at a time, as one
round. A CliOp runs `python -m thames.cli <args>`; a CallOp calls the
library on arrays held in memory. Each op names the metric its time is
reported under; ops that share a metric are summed within a round.

Every check compares against the independent oracles in oracles.py or
against properties the method must have, never against a stored copy
of earlier output. Each check returns a list of problems (empty = ok).
"""

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracles
from thames import correction, estimator, models, radius
from thames.seeds import spawn_seed

Z95 = 1.959963984540054  # two-sided 95% normal quantile used by the program


@dataclass
class CliOp:
    name: str
    metric: str
    args: list
    check: object  # (stdout, output file text or None) -> problems
    out_file: str = None
    cells: int = 0  # table cells parsed, for cells-per-second
    array_bytes: int = 0  # bytes of the float64 draw matrix in the table


@dataclass
class CallOp:
    name: str
    metric: str
    fn: object  # () -> ThamesResult
    check: object  # report dict -> problems
    repeat: int = 1


@dataclass
class Workload:
    name: str
    unit: str  # unit of the per-operation detail metrics: "s" or "ms"
    ops: list = field(default_factory=list)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def result_report(res):
    """The fields of a ThamesResult that a CLI report would print."""
    return {
        "log_z": res.log_z, "log_recip_z": res.log_recip_z,
        "ci_lower": res.ci_log_z[0], "ci_upper": res.ci_log_z[1],
        "se_recip_rel": res.se_recip_rel, "radius": res.radius_used,
        "n_inside": res.n_inside, "t_estimation": res.t_estimation,
        "correction_ratio": res.correction_ratio,
    }


def _one_report(stdout):
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one report line, got {len(lines)}")
    report = json.loads(lines[0])
    if "error" in report:
        raise ValueError(f"program reported an error: {report}")
    return report


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

POSITIVE_IDX = list(range(10))
N_VOLUME = 1_000_000  # uniform samples behind every volume-ratio estimate


def cli(seed, work):
    """Every CLI subcommand as a subprocess: the ingest operations, then
    scv and the replicate experiments."""
    return Workload("cli", "s", _ingest_ops(seed, work) + _replicate_ops(seed, work))


# ---------------------------------------------------------------------------
# cli: ingest
# ---------------------------------------------------------------------------


def _ingest_ops(seed, work):
    """estimate and correct on generated draw files."""
    ops = []
    specs = [
        ("estimate_csv_d10", inputs.gaussian(seed, 1, 10, 50_000), "gauss_d10.csv"),
        ("estimate_csv_d100", inputs.gaussian(seed, 3, 100, 10_000), "gauss_d100.csv"),
        ("estimate_jsonl", inputs.gaussian(seed, 5, 10, 10_000), "gauss_d10.jsonl"),
    ]
    for name, prob, fname in specs:
        path = work / fname
        writer = inputs.write_jsonl if fname.endswith(".jsonl") else inputs.write_csv
        cells = writer(path, prob)
        ops.append(CliOp(name, name + "_s", ["estimate", str(path)],
                         _estimate_check(prob, path, name), cells=cells,
                         array_bytes=prob.draws.nbytes))

    trunc = inputs.truncated_gaussian(seed, 7, 10, 50_000)
    path = work / "trunc_d10.csv"
    cells = inputs.write_csv(path, trunc)
    support = "positive:" + ",".join(map(str, POSITIVE_IDX))
    args = ["correct", str(path), "--support", support, "--n", str(N_VOLUME),
            "--seed", str(spawn_seed(seed, 9))]
    ops.append(CliOp("correct_csv", "correct_csv_s", args,
                     _correct_check(trunc, path, spawn_seed(seed, 10)),
                     cells=cells, array_bytes=trunc.draws.nbytes))
    return ops


def _estimate_check(prob, path, label):
    sha = _sha256(path)
    oracle = oracles.EstimateOracle(prob.draws, prob.log_post)
    d = prob.draws.shape[1]

    def check(stdout, _):
        rep = _one_report(stdout)
        problems = []
        if rep["input_checksum"] != sha:
            problems.append(f"{label}: input_checksum {rep['input_checksum']} != {sha}")
        if not _close(rep["radius"], math.sqrt(d + 1.0), 1e-15):
            problems.append(f"{label}: radius {rep['radius']!r}")
        oracles.check_estimate(rep, oracle, prob.log_z, problems, label)
        return problems

    return check


def _correct_check(prob, path, own_seed):
    sha = _sha256(path)
    oracle = oracles.EstimateOracle(prob.draws, prob.log_post)

    def check(stdout, _):
        rep = _one_report(stdout)
        problems = []
        if rep["input_checksum"] != sha:
            problems.append(f"correct: input_checksum {rep['input_checksum']} != {sha}")
        r = rep["correction_ratio"]
        lo, hi = rep["correction_ci_lower"], rep["correction_ci_upper"]
        if not 0.0 < lo <= r <= hi <= 1.0:
            problems.append(f"correct: ratio {r!r} outside its CI [{lo!r}, {hi!r}]")
            return problems
        # the 95% CI spans about 2 SE each side, so 3x its log half-width
        # is 6 SE of log R
        ci_tol = 3.0 * max(math.log(r / lo), math.log(hi / r))
        oracles.check_estimate(rep, oracle, prob.log_z, problems, "correct",
                               log_r=math.log(r), extra_tol=ci_tol)
        problems += _own_ratio_check("correct", oracle, rep, own_seed)
        return problems

    return check


def _own_ratio_check(label, oracle, rep, own_seed, own_n=200_000):
    """The reported volume ratio against the benchmark's own Monte Carlo
    estimate over the same ellipsoid and orthant."""
    r = rep["correction_ratio"]
    own = oracle.volume_ratio(rep["radius"], POSITIVE_IDX, own_n, own_seed)
    tol = oracles.N_SE * math.sqrt(r * (1.0 - r) * (1.0 / N_VOLUME + 1.0 / own_n))
    if abs(r - own) > tol:
        return [f"{label}: ratio {r!r} vs own Monte Carlo {own!r}"]
    return []


# ---------------------------------------------------------------------------
# inprocess-estimator
# ---------------------------------------------------------------------------


def inprocess_estimator(seed, work):
    """Library calls on arrays held in memory; nothing is parsed.

    The largest arrays are made first, while little else is resident, so
    that input generation does not set the process's peak RSS.
    """
    wl = Workload("inprocess-estimator", "ms")
    ar1 = inputs.gaussian_ar1(seed, 13, 100, 100_000, rho=0.5)
    p100 = inputs.gaussian(seed, 13, 100, 100_000)
    p10 = inputs.gaussian(seed, 11, 10, 100_000)
    trunc = inputs.truncated_gaussian(seed, 17, 10, 100_000)

    lp10, lp100, lp_ar1, lp_tr = (p.log_post for p in (p10, p100, ar1, trunc))
    o10 = oracles.EstimateOracle(p10.draws, lp10)
    o100 = oracles.EstimateOracle(p100.draws, lp100)
    o_ar1 = oracles.EstimateOracle(ar1.draws, lp_ar1)
    o_tr = oracles.EstimateOracle(trunc.draws, lp_tr)

    opts = estimator.ThamesOptions
    ar1_opts = opts(serial_correction="ar1")
    grid = tuple(float(c) for c in math.sqrt(101.0) * np.linspace(0.9, 1.1, 20))
    grid_opts = opts(radius_policy=radius.RadiusPolicy.empirical_grid(grid))
    vol_opts = opts(correction=correction.ConstrainedCorrectionConfig(
        correction.SupportPredicate.positive_orthant(POSITIVE_IDX),
        n_samples=N_VOLUME, seed=spawn_seed(seed, 19)))

    # estimator.thames is looked up at call time, so traced runs see the wrapper
    wl.ops = [
        CallOp("thames_d10", "thames_d10_ms",
               lambda: estimator.thames(p10.draws, lp10),
               _default_check(o10, p10.log_z, 10, "thames_d10"), repeat=10),
        CallOp("thames_d100", "thames_d100_ms",
               lambda: estimator.thames(p100.draws, lp100),
               _default_check(o100, p100.log_z, 100, "thames_d100"), repeat=2),
        CallOp("thames_ar1_d100", "thames_ar1_d100_ms",
               lambda: estimator.thames(ar1.draws, lp_ar1, ar1_opts),
               _ar1_check(o_ar1, ar1.log_z), repeat=2),
        CallOp("grid_tune_d100", "grid_tune_d100_ms",
               lambda: estimator.thames(p100.draws, lp100, grid_opts),
               _grid_check(o100, p100.log_z, grid)),
        CallOp("volume_ratio", "volume_ratio_ms",
               lambda: estimator.thames(trunc.draws, lp_tr, vol_opts),
               _volume_check(o_tr, trunc.log_z, spawn_seed(seed, 20)),
               repeat=2),
    ]
    return wl


def _default_check(oracle, exact, d, label):
    def check(rep):
        problems = []
        if not _close(rep["radius"], math.sqrt(d + 1.0), 1e-15):
            problems.append(f"{label}: radius {rep['radius']!r}")
        oracles.check_estimate(rep, oracle, exact, problems, label)
        return problems
    return check


def _ar1_check(oracle, exact):
    def check(rep):
        problems = []
        oracles.check_estimate(rep, oracle, exact, problems, "thames_ar1")
        se_iid = oracle.evaluate(rep["radius"])[3]
        if not rep["se_recip_rel"] >= se_iid * (1.0 - 1e-9):
            problems.append(f"thames_ar1: AR(1) SE {rep['se_recip_rel']!r} below "
                            f"the iid SE {se_iid!r}")
        return problems
    return check


def _grid_check(oracle, exact, grid):
    def check(rep):
        problems = []
        c = rep["radius"]
        if c not in grid:
            return [f"grid_tune: radius {c!r} is not a grid value"]
        oracles.check_estimate(rep, oracle, exact, problems, "grid_tune")
        best = min(oracle.evaluate(g)[3] for g in grid)
        if oracle.evaluate(c)[3] > best * (1.0 + 1e-9):
            problems.append(f"grid_tune: radius {c!r} does not minimize the SE")
        return problems
    return check


def _volume_check(oracle, exact, own_seed):
    def check(rep):
        problems = []
        r = rep["correction_ratio"]
        if r is None or not 0.0 < r <= 1.0:
            return [f"volume_ratio: ratio {r!r}"]
        se_log_r = math.sqrt((1.0 - r) / (N_VOLUME * r))
        oracles.check_estimate(rep, oracle, exact, problems, "volume_ratio",
                               log_r=math.log(r), extra_tol=oracles.N_SE * se_log_r)
        problems += _own_ratio_check("volume_ratio", oracle, rep, own_seed)
        return problems
    return check


# ---------------------------------------------------------------------------
# cli: scv and replicate
# ---------------------------------------------------------------------------

REPS = 3  # --reps for gaussian-d and dirmult; the other experiments ignore it


def _replicate_ops(seed, work):
    """scv and every replicate experiment, as in
    scripts/run_all_experiments.sh but at small --reps."""
    s = spawn_seed(seed, 21)
    ops = [CliOp("scv", "scv_table_s", ["scv", "--dmax", "200"], _scv_check)]
    experiments = [
        ("gaussian-T", "gaussian_T.csv", "replicate_gaussian_s", _gaussian_t_check),
        ("gaussian-d", "gaussian_d.csv", "replicate_gaussian_s", _gaussian_d_check),
        ("dirmult", "dirmult.csv", "replicate_dirmult_s", _dirmult_check),
        ("prostate", "prostate.csv", "replicate_gaussian_s", _prostate_check),
        ("toy-figure7", "toy_running.csv", "replicate_gaussian_s", _toy_check),
    ]
    for exp, fname, metric, checker in experiments:
        out = work / exp
        args = ["replicate", exp, "--out", str(out), "--seed", str(s),
                "--reps", str(REPS)]
        ops.append(CliOp(exp, metric, args, _csv_check(checker, s, exp),
                         out_file=str(out / fname)))
    return ops


def _csv_check(checker, s, label):
    def check(_, text):
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows:
            return [f"{label}: empty output"]
        return [f"{label}: {p}" for p in checker(rows, s)]
    return check


def _scv_check(stdout, _):
    rows = list(csv.DictReader(io.StringIO(stdout)))
    policies = ("sqrt_d_plus_1", "optimal", "chisq_median")
    if [(int(r["d"]), r["policy"]) for r in rows] != \
            [(d, p) for d in range(1, 201) for p in policies]:
        return ["scv: rows are not d = 1..200 x the three default policies"]
    problems = []
    for i in range(0, len(rows), 3):
        by = {r["policy"]: {k: float(v) for k, v in r.items() if k != "policy"}
              for r in rows[i:i + 3]}
        first = by["optimal"]
        d, c_d = int(first["d"]), first["c_d"]
        bad = []
        if abs(oracles.stationarity_residual(d, c_d)) > 1e-7:
            bad.append("c_d is not stationary")
        if not _close(first["L_d"], c_d * c_d - d, 1e-12):
            bad.append("L_d != c_d^2 - d")
        if not _close(first["scv_opt"], oracles.scv(d, c_d), 1e-7):
            bad.append("scv_opt differs from quadrature")
        lower, upper = oracles.sandwich(d)
        if not (_close(first["lower_bound"], lower, 1e-12)
                and _close(first["upper_bound"], upper, 1e-12)):
            bad.append("sandwich bounds differ")
        if not lower <= first["scv_opt"] <= by["sqrt_d_plus_1"]["scv"] <= upper:
            bad.append("sandwich bounds violated")
        if abs(first["hpd_mass"] - oracles.hpd_mass(d, c_d)) > 1e-10:
            bad.append("hpd_mass differs from gammainc")
        if not _close(by["sqrt_d_plus_1"]["c"], math.sqrt(d + 1.0), 1e-15):
            bad.append("sqrt_d_plus_1 radius")
        if abs(oracles.hpd_mass(d, by["chisq_median"]["c"]) - 0.5) > 1e-9:
            bad.append("chisq_median radius is not the chi-square median")
        for pol, r in by.items():
            if not _close(r["scv"], oracles.scv(d, r["c"]), 1e-7):
                bad.append(f"{pol} scv differs from quadrature")
            if r["scv"] < first["scv_opt"] * (1.0 - 1e-9):
                bad.append(f"{pol} scv below the optimum")
        problems += [f"scv d={d}: {b}" for b in bad]
    return problems


def _within(est, exact, se):
    return abs(est - exact) <= oracles.N_SE * se


def _se_from_ci(log_z, ci_lower):
    """Invert the program's CI: ci_lower = log_z - log1p(z95 * se)."""
    return math.expm1(log_z - ci_lower) / Z95


def _gaussian_t_check(rows, s):
    exact = oracles.gaussian_mean_log_z(
        models.gaussian_dataset(d=1, n=20, mu=2.0, seed=spawn_seed(s, 0)))
    problems = []
    for r in rows:
        t, log_z = int(r["T"]), float(r["log_z"])
        if not _close(float(r["exact_log_z"]), exact, 1e-10):
            problems.append(f"T={t}: exact_log_z {r['exact_log_z']} != {exact!r}")
        if t < 1000:  # a 3-draw estimation half gives no usable SE
            continue
        lo, hi = float(r["ci_lower"]), float(r["ci_upper"])
        if not _within(log_z, exact, _se_from_ci(log_z, lo)):
            problems.append(f"T={t}: log_z {log_z!r} vs exact {exact!r}")
        if (r["covered"] == "true") != (lo <= float(r["exact_log_z"]) <= hi):
            problems.append(f"T={t}: covered flag disagrees with the CI")
    return problems


def _gaussian_d_check(rows, s):
    exact, index, problems = {}, 0, []
    for d in (1, 5, 10, 25, 50):
        for rep in range(REPS):
            data = models.gaussian_dataset(d, seed=spawn_seed(s, 2 * index))
            exact[d, rep] = oracles.gaussian_mean_log_z(data)
            index += 1
    if len(rows) != 3 * len(exact):
        return [f"{len(rows)} rows, expected {3 * len(exact)}"]
    for r in rows:
        d, rep, log_z = int(r["d"]), int(r["rep"]), float(r["log_z"])
        ex = exact[d, rep]
        if not _close(float(r["exact_log_z"]), ex, 1e-10):
            problems.append(f"d={d} rep={rep}: exact_log_z {r['exact_log_z']}")
        # no-split carries the fit-on-the-same-draws bias the experiment
        # shows, so only split and oracle are held to the sampling error
        t_est = {"split": 5000, "oracle": 10000}.get(r["variant"])
        if t_est and not _within(log_z, ex, math.sqrt(
                oracles.scv(d, math.sqrt(d + 1.0)) / t_est)):
            problems.append(f"{r['variant']} d={d} rep={rep}: log_z {log_z!r} "
                            f"vs exact {ex!r}")
    return problems


def _dirmult_check(rows, s):
    a0, n, l = 1.0, 400, 150
    exact, index = {}, 0
    for regime in ("fixed", "stochastic"):
        for d in (1, 20, 50):
            k = d + 1
            mu = np.full(k, 1.0 / k) if regime == "fixed" else \
                models.dirmult_mu(k, a0, spawn_seed(s, 100_000 + d))
            for rep in range(REPS):
                data = models.dirmult_dataset(mu, n, l, spawn_seed(s, 3 * index + 1))
                exact[regime, d, rep] = oracles.dirmult_log_z(data, a0)
                index += 1
    if len(rows) != len(exact):
        return [f"{len(rows)} rows, expected {len(exact)}"]
    problems = []
    for r in rows:
        key = (r["regime"], int(r["d"]), int(r["rep"]))
        ex = exact[key]
        if not _close(float(r["exact_log_z"]), ex, 1e-9):
            problems.append(f"{key}: exact_log_z {r['exact_log_z']} != {ex!r}")
        ratio = math.exp(float(r["correction_shift"]))
        se = float(r["se_recip_rel"]) + math.sqrt((1.0 - ratio) / (1000 * ratio))
        if not _within(float(r["log_z_corrected"]), ex, se):
            problems.append(f"{key}: log_z_corrected {r['log_z_corrected']} "
                            f"vs exact {ex!r}")
    return problems


def _prostate_check(rows, s):
    table = np.loadtxt(Path(models.__file__).parent / "data" / "prostate.csv",
                       delimiter=",", skiprows=1)
    X, y = table[:, :8], table[:, 8]
    problems, exact, est = [], {}, {}
    for r in rows:
        k = int(r["k"])
        exact[k] = oracles.linreg_log_z(X[:, :k], y, sigma2=1.0, alpha=0.5)
        est[k] = float(r["thames_log_z"])
        if not _close(float(r["exact_log_z"]), exact[k], 1e-10):
            problems.append(f"M{k}: exact_log_z {r['exact_log_z']} != {exact[k]!r}")
        if not _within(est[k], exact[k], _se_from_ci(est[k], float(r["ci_lower"]))):
            problems.append(f"M{k}: log_z {est[k]!r} vs exact {exact[k]!r}")
    if sorted(exact) != list(range(2, 9)):
        problems.append("models are not M2..M8")
    elif max(exact, key=exact.get) != 2 or max(est, key=est.get) != 2:
        problems.append("exact and estimated evidences do not both peak at M2")
    return problems


def _toy_check(rows, s):
    d = 2
    exact = oracles.gaussian_mean_log_z(np.zeros((20, d)))
    scv = oracles.scv(d, math.sqrt(d + 1.0))
    problems = []
    for r in rows:
        t = int(r["T"])
        if not _close(float(r["exact_log_z"]), exact, 1e-12):
            problems.append(f"T={t}: exact_log_z {r['exact_log_z']}")
        if not math.isfinite(float(r["harmonic_log_z"])):
            problems.append(f"T={t}: harmonic mean is not finite")
        if t >= 500 and not _within(float(r["thames_log_z"]), exact,
                                    math.sqrt(scv / t)):
            problems.append(f"T={t}: thames_log_z {r['thames_log_z']} vs {exact!r}")
    return problems


WORKLOADS = {
    "cli": cli,
    "inprocess-estimator": inprocess_estimator,
}
