#!/usr/bin/env python3
"""thames benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload cli --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is taken from
./src, not from any installed copy. Each run is a closed loop: one
client runs the workload's operations one at a time, in whole rounds,
until --seconds have passed. With --trace 0 it prints the end-to-end
metrics, with times scaled to a nominal machine speed (calibrate.py);
with --trace 1 it runs a warm-up, an untraced and a traced round in
process and prints the per-layer metrics. Human-readable detail lines
come first; the last line of stdout is the JSON result.
"""

import os

# One BLAS thread, set before numpy loads, here and in every child.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
N_PROBES = 5


class OpFailed(Exception):
    pass


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    env.pop("THAMES_THREADS", None)  # the program's default worker count
    return env


def run_child(argv, stdout_path, **env):
    """Run argv to completion; return (wall seconds, exit code)."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.run(argv, stdout=out, stderr=subprocess.DEVNULL,
                              env=dict(child_env(), **env), cwd=ROOT)
        elapsed = time.perf_counter() - t0
    return elapsed, proc.returncode


def run_cli(args, work):
    """Run the CLI in a child; return (seconds, peak RSS in KiB, exit code, stdout).

    The peak is the child's own VmHWM, written by child.py at exit.
    """
    hwm = work / "hwm.txt"
    hwm.unlink(missing_ok=True)
    secs, code = run_child([sys.executable, str(BENCH / "child.py"), *args],
                           work / "stdout.txt", BENCH_HWM_FILE=str(hwm))
    rss_kb = int(hwm.read_text()) if hwm.exists() else 0
    return secs, rss_kb, code, (work / "stdout.txt").read_text()


def probe_setup(work, cal=None):
    """Medians over fresh interpreters of (import thames.cli + first
    thames() call) and of the import alone; the first is scaled to
    nominal speed when a calibrator is given."""
    imports, totals = [], []
    out = work / "probe.json"
    for _ in range(N_PROBES):
        k0 = cal.measure() if cal else None
        _, code = run_child([sys.executable, str(BENCH / "probe.py")], out)
        if code != 0:
            raise OpFailed(f"start-up probe exited with {code}")
        rec = json.loads(out.read_text())
        imports.append(rec["import_s"])
        total = rec["import_s"] + rec["warmup_s"]
        totals.append(total * cal.speed(k0, cal.measure()) if cal else total)
    return statistics.median(totals), statistics.median(imports)


class Client:
    """Runs operations, counts attempts and failures, checks every output."""

    def __init__(self, work, calibrator=None):
        self.work = work
        self.calibrator = calibrator  # timed around each op when set
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}
        self.peak_rss_kb = 0

    def execute(self, op, in_process):
        """Run op once; return (seconds, seconds at nominal speed), or None
        if it failed. The second figure uses the calibration kernel timed
        just before and just after the op, or equals the first without a
        calibrator."""
        from workloads import CallOp, result_report

        k0 = self.calibrator.measure() if self.calibrator else None
        self.attempted += 1
        try:
            if isinstance(op, CallOp):
                t0 = time.perf_counter()
                res = op.fn()
                secs = time.perf_counter() - t0
                output = result_report(res)
            else:
                secs, output = self._cli(op, in_process)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"FAILED {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        scaled = secs if k0 is None else \
            secs * self.calibrator.speed(k0, self.calibrator.measure())
        if op.name not in self.first:
            self.first[op.name] = output
            try:
                problems = op.check(output) if isinstance(op, CallOp) \
                    else op.check(*output)
            except (KeyError, TypeError, ValueError) as exc:
                problems = [f"{op.name}: unreadable output: {exc!r}"]
            self.problems += problems
        elif output != self.first[op.name]:
            self.problems.append(f"{op.name}: output differs between runs "
                                 "of the same input")
        return secs, scaled

    def _cli(self, op, in_process):
        if in_process:
            import thames.cli

            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = thames.cli.main(list(op.args))
            secs = time.perf_counter() - t0
            stdout = buf.getvalue()
        else:
            secs, rss, code, stdout = run_cli(op.args, self.work)
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
        if code != 0:
            raise OpFailed(f"exit code {code}: {stdout.strip()[:300]}")
        text = Path(op.out_file).read_text() if op.out_file else None
        return secs, (stdout, text)


def run_round(client, ops, in_process=False):
    """One pass over the ops; returns {metric: [(seconds, scaled seconds)...]}."""
    from workloads import CallOp

    times = {}
    for op in ops:
        for _ in range(op.repeat if isinstance(op, CallOp) else 1):
            secs = client.execute(op, in_process)
            if secs is None:
                continue
            samples = times.setdefault(op.metric, [])
            if samples and not isinstance(op, CallOp):
                # CLI ops sharing a metric add up within a round
                samples[0] = tuple(a + b for a, b in zip(samples[0], secs))
            else:
                samples.append(secs)
    return times


def end_to_end(wl, client, seconds, work):
    import calibrate

    client.calibrator = cal = calibrate.Calibrator()
    for _ in range(3):  # warm-up
        cal.measure()
    setup_s, _ = probe_setup(work, cal)
    print("# benchmark process peak RSS before the first operation: "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB")
    samples, rounds = {}, 0
    start = time.perf_counter()
    while True:
        for metric, vals in run_round(client, wl.ops).items():
            samples.setdefault(metric, []).extend(vals)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    if not client.peak_rss_kb:  # no child ran: the operations ran in this process
        client.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = {m: statistics.median(s for s, _ in v) for m, v in samples.items()}
    med = {m: statistics.median(s for _, s in v) for m, v in samples.items()}
    per_round = {m: len(v) / rounds for m, v in samples.items()}
    scale = 1e3 if wl.unit == "ms" else 1.0
    print(f"# {wl.name}: {rounds} rounds, {client.attempted} operations; "
          f"calibration kernel median {statistics.median(cal.samples) * 1e3:.2f} ms "
          f"(nominal {calibrate.NOMINAL_S * 1e3:.0f} ms)")
    for m in samples:
        print(f"#   {m} = {med[m] * scale:.6g} {wl.unit} (raw {raw[m] * scale:.6g}, "
              f"median of {len(samples[m])})")
    # round_s is one round at every operation's median time: it uses all
    # samples, where a median of whole-round times would rest on a handful
    geomean_ms = math.exp(statistics.fmean(math.log(v * 1e3) for v in med.values()))
    return {
        "setup_s": (setup_s, "s"),
        "round_s": (sum(med[m] * per_round[m] for m in med), "s"),
        "op_geomean_ms": (geomean_ms, "ms"),
        "peak_rss_mb": (client.peak_rss_kb / 1024.0, "MB"),
    }


def per_layer(wl, client, work):
    """Untraced then traced round in process; per-layer figures from spans."""
    import spans
    from workloads import CliOp

    _, import_s = probe_setup(work)
    run_round(client, wl.ops, in_process=True)  # warm-up: first-call costs
    t0 = time.perf_counter()
    run_round(client, wl.ops, in_process=True)
    untraced = time.perf_counter() - t0

    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for op in wl.ops:
            tracer.op = op.name
            run_round(client, [op], in_process=True)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    summ = tracer.summary()

    def total(name):
        return summ[name]["total_s"] if name in summ else 0.0

    def calls(name):
        return summ[name]["calls"] if name in summ else 0

    def method_total(suffix):
        return sum((r["total_s"] for n, r in summ.items()
                    if n.startswith("models.") and n.endswith("." + suffix)), 0.0)

    n_thames = calls("estimator.thames")
    cli_ops = [op for op in wl.ops if isinstance(op, CliOp) and op.cells]
    load_s = sum(tracer.total_s("cli.load_table", op.name) for op in cli_ops)
    cells = sum(op.cells for op in cli_ops)

    rss_ratio = 0.0
    d100 = [op for op in cli_ops if op.name == "estimate_csv_d100"]
    if d100:
        _, rss_kb, code, _ = run_cli(d100[0].args, work)
        client.attempted += 1
        if code != 0:
            client.failed += 1
        rss_ratio = rss_kb * 1024.0 / d100[0].array_bytes

    m = {
        "cli.import_s": (import_s, "s"),
        "cli.load_table_csv_d10_s": (tracer.total_s("cli.load_table", "estimate_csv_d10"), "s"),
        "cli.load_table_csv_d100_s": (tracer.total_s("cli.load_table", "estimate_csv_d100"), "s"),
        "cli.load_table_jsonl_s": (tracer.total_s("cli.load_table", "estimate_jsonl"), "s"),
        "cli.load_table_cells_per_s": (cells / load_s if load_s else 0.0, "1/s"),
        "cli.file_checksum_s": (total("cli.file_checksum"), "s"),
        "cli.dump_report_s": (total("cli.dump_report"), "s"),
        "cli.rss_over_array": (rss_ratio, "ratio"),
        "geometry.as_draw_matrix_s": (total("geometry.as_draw_matrix"), "s"),
        "geometry.as_draw_matrix.calls":
            (calls("geometry.as_draw_matrix") / n_thames if n_thames else 0.0, "count"),
        "geometry.Ellipsoid.fit_s": (total("geometry.Ellipsoid.fit"), "s"),
        "geometry.cholesky_factor_s": (total("geometry.cholesky_factor"), "s"),
        "geometry.mahalanobis_sq_s": (total("geometry.mahalanobis_sq"), "s"),
        "geometry.mahalanobis_sq.calls":
            (calls("geometry.mahalanobis_sq") / n_thames if n_thames else 0.0, "count"),
        "estimator.thames.self_s": (summ["estimator.thames"]["self_s"] if n_thames else 0.0, "s"),
        "estimator.variance_recip_iid_s": (total("estimator.variance_recip_iid"), "s"),
        "estimator.ar1_inflation_s": (total("estimator.ar1_inflation"), "s"),
        "estimator.tune_radius_grid_s": (total("estimator.tune_radius_grid"), "s"),
        "radius.optimal_radius_s": (total("radius.optimal_radius"), "s"),
        "radius.chi_square_median_radius_s": (total("radius.chi_square_median_radius"), "s"),
        "radius.scv_normal_s": (total("radius.scv_normal"), "s"),
        "radius.log_f.calls": (calls("radius.log_f"), "count"),
        "correction.sample_uniform_ellipsoid_s": (total("correction.sample_uniform_ellipsoid"), "s"),
        "correction.SupportPredicate.contains_s": (total("correction.SupportPredicate.contains"), "s"),
        "correction.estimate_volume_ratio_s": (total("correction.estimate_volume_ratio"), "s"),
        "models.posterior_sample_s": (method_total("posterior_sample"), "s"),
        "models.log_post_s": (method_total("log_post"), "s"),
        "models.exact_log_marginal_s": (method_total("exact_log_marginal"), "s"),
        "trace.untraced_round_s": (untraced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    print(f"# {wl.name}: traced round {traced:.3f} s, untraced {untraced:.3f} s, "
          f"{len(tracer.spans)} spans")
    for name, rec in sorted(summ.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"#   {name}: {rec['calls']} calls, {rec['total_s']:.6f} s total, "
              f"{rec['self_s']:.6f} s self")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "thames" / "cli.py").is_file():
        print(f"no thames sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        client = Client(work)
        if args.trace:
            metrics = per_layer(wl, client, work)
        else:
            metrics = end_to_end(wl, client, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it

    for problem in client.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not client.problems,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
