"""Benchmark of the klconst command line on three fixed workloads.

    python3 perfbench/run.py --workload design-grid --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One operation is one CLI invocation (klconst.cli.main) in a fresh Python
process, started from this single process one at a time (a closed
loop with one client).  A round runs every operation of the workload once;
rounds repeat while another one fits in --seconds, and the end-to-end
metrics are medians over rounds.  Outputs of the first round are checked
against computations made apart from the program (checks.py), and every
later round must write byte-identical files.

--trace 1 alternates untraced and traced rounds.  In a traced round the
child (child.py) wraps the package's layer boundaries and returns spans and
counts; the per-layer metrics are medians over traced rounds, and
trace.overhead_s is the traced minus the untraced round wall time.  The
spans are written to .perfbench/trace-<workload>-seed<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md for what each workload and
metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from codebooks import make_codebooks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# BLAS threads of every operation's process; at most nproc, and one keeps
# the K x K products of these workloads free of thread hand-offs.
BLAS_THREADS = 1
OP_TIMEOUT_S = 150.0

K, L_S = 2, 6
DESIGN_GRID = [-15.0 + 0.25 * i for i in range(221)]
# l_s = 6, K = 2 at -19.5 dB fails in energy_only_levels (unit power
# violated, exit 2); kept as a failing operation with seed-free inputs.
DESIGN_FAULT_SNR = -19.5
SER_SNRS = [-2.0, 0.0]
SER_SCHEMES = ["multilevel", "unitary", "pilot-qam"]
SER_M, SER_TRIALS = 256, 16384
KL_SNRS = [0.0, 6.0]
KL_M, KL_PAIRS, KL_SAMPLES = 4, 8, 62_500
# kl-check operations per kl-m4 round, each with its own pairs, so that a
# run sets up many times.
KL_OPS = 4

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# name -> (unit, function of the aggregate of one traced round)
PER_LAYER = {
    "process.self_s": ("s", lambda a: a.self_s("process")),
    "cli.self_s": ("s", lambda a: a.self_s("cli.main")),
    "unitary.optimize_unitary.calls": ("count", lambda a: a.calls("unitary.optimize_unitary")),
    "unitary.optimize_unitary.s": ("s", lambda a: a.total_s("unitary.optimize_unitary")),
    "unitary.climb_steps": ("count", lambda a: a.counts.get("climb_steps", 0)),
    "unitary.codebooks_discarded": ("count", lambda a: a.discarded),
    "unitary.load_unitary.s": ("s", lambda a: a.total_s("unitary.load_unitary")),
    "multilevel.allocate_bits.calls": ("count", lambda a: a.calls("multilevel.allocate_bits")),
    "multilevel.allocate_bits.self_s": ("s", lambda a: a.self_s("multilevel.allocate_bits")),
    "multilevel.solve_bisection.calls": ("count", lambda a: a.calls("multilevel.solve_bisection")),
    "multilevel.solve_bisection.s": ("s", lambda a: a.total_s("multilevel.solve_bisection")),
    "multilevel.solve_bisection.repeats": ("count", lambda a: a.counts.get("bisection_repeats", 0)),
    "multilevel.bisection_iterations": ("count", lambda a: a.counts.get("bisection_iterations", 0)),
    "multilevel.energy_only_levels.s": ("s", lambda a: a.total_s("multilevel.energy_only_levels")),
    "multilevel.build_level_set.s": ("s", lambda a: a.total_s("multilevel.build_level_set")),
    "detection.detect_two_stage.self_s": ("s", lambda a: a.self_s("detection.detect_two_stage")),
    "detection.detect_two_stage.calls": ("count", lambda a: a.calls("detection.detect_two_stage")),
    "detection.blocks": ("count", lambda a: a.counts.get("blocks", 0)),
    "detection.gram.s": ("s", lambda a: a.total_s("detection.gram")),
    "linksim.estimate_ser.self_s": ("s", lambda a: a.self_s("linksim.estimate_ser")),
    "linksim.pilot_qam_run.s": ("s", lambda a: a.total_s("linksim.pilot_qam_run")),
    "linksim.kl_mc_estimate.s": ("s", lambda a: a.total_s("linksim.kl_mc_estimate")),
    "linksim.trials": ("count", lambda a: a.counts.get("trials", 0)),
    "linksim.kl_samples": ("count", lambda a: a.counts.get("kl_samples", 0)),
    "core.save_constellation.calls": ("count", lambda a: a.calls("core.save_constellation")),
    "core.save_constellation.s": ("s", lambda a: a.total_s("core.save_constellation")),
    "core.bytes_written": ("bytes", lambda a: a.counts.get("bytes_written", 0)),
}
TRACE_OVERHEAD = "trace.overhead_s"


def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One CLI invocation: mode, config keys, and the check of its output."""

    label: str
    mode: str
    config: dict
    check: object  # (output csv path, child record) -> list of problems
    # A known fault makes this operation exit 2; it may also succeed.
    expect_fail: bool = False


def _list(values):
    return ", ".join(f"{v:g}" for v in values)


def design_op(label, snrs, seed, books, trend, expect_fail=False):
    config = {"K": K, "l_s": L_S, "snr_db_list": _list(snrs), "seed": seed}
    config.update({f"unitary_library_{l_v}": p for l_v, p in books.items()})
    return Op(
        label, "design", config,
        check=lambda out, rec: checks.check_design(out, K, L_S, snrs, books, trend),
        expect_fail=expect_fail,
    )


def kl_op(i, seed):
    op_seed = (seed + i * KL_PAIRS) % 2**64
    config = {
        "K": K, "M": KL_M, "snr_db_list": _list(KL_SNRS), "trials": KL_SAMPLES,
        "pairs": KL_PAIRS, "seed": op_seed,
    }
    return Op(
        f"check{i}", "kl-check", config,
        check=lambda out, rec: checks.check_kl(
            out, K, KL_M, KL_SNRS, KL_PAIRS, KL_SAMPLES, op_seed),
    )


def workload_ops(name, seed, books):
    if name == "design-grid":
        return [
            design_op("grid", DESIGN_GRID, seed, books, trend=True),
            design_op(f"point{DESIGN_FAULT_SNR:g}", [DESIGN_FAULT_SNR], 0, books, trend=False,
                      expect_fail=True),
        ]
    if name == "ser-m256":
        config = {
            "K": K, "M": SER_M, "l_s": L_S, "snr_db_list": _list(SER_SNRS),
            "trials": SER_TRIALS, "seed": seed, "schemes": ", ".join(SER_SCHEMES),
        }
        return [Op(
            "sweep", "ser-sweep", config,
            check=lambda out, rec: checks.check_ser(
                out, K, SER_M, L_S, SER_SNRS, SER_SCHEMES, SER_TRIALS, seed,
                rec["ser_calls"], ordered=True),
        )]
    if name == "kl-m4":
        return [kl_op(i, seed) for i in range(KL_OPS)]
    raise ValueError(name)


WORKLOADS = ("design-grid", "ser-m256", "kl-m4")


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    op: Op
    outdir: Path
    exit_code: int
    t_start: float
    t_end: float
    rss_mb: float
    record: dict
    stderr: str

    @property
    def ok(self):
        return self.exit_code == 0

    @property
    def output(self):
        return str(self.outdir / "out.csv")

    @property
    def setup_s(self):
        first = self.record.get("first_work") or self.t_end
        return first - self.t_start

    def output_digest(self):
        h = hashlib.sha256()
        for p in sorted(self.outdir.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(self.outdir)).encode() + b"\0" + p.read_bytes())
        return h.hexdigest()


def run_op(op, opdir, traced, env):
    outdir = opdir / "out"
    outdir.mkdir(parents=True)
    cfg = opdir / "op.cfg"
    lines = [f"mode = {op.mode}", f"output_path = {outdir / 'out.csv'}"]
    lines += [f"{k} = {v}" for k, v in op.config.items()]
    cfg.write_text("\n".join(lines) + "\n")
    record_path = opdir / "record.json"
    argv = [sys.executable, str(BENCH / "child.py"), str(record_path), "1" if traced else "0",
            op.mode, "--config", str(cfg)]
    # Flush what earlier operations wrote, so that the kernel's writeback of
    # their files does not land in this operation's time.  Untimed: a round's
    # wall time is the sum of its operations' own times.
    os.sync()
    with open(opdir / "stderr.txt", "w+") as err:
        t_start = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=opdir, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        _, status, _ = os.wait4(proc.pid, 0)
        t_end = time.monotonic()
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    return OpResult(op, outdir, proc.returncode, t_start, t_end,
                    record.get("peak_rss_kb", 0) / 1024.0, record, stderr)


@dataclass
class Round:
    traced: bool
    results: list

    @property
    def wall_s(self):
        return sum(r.t_end - r.t_start for r in self.results)

    @property
    def setup_s(self):
        return sum(r.setup_s for r in self.results)


@dataclass
class LayerAggregate:
    """Spans and counts of one traced round, summed over its operations."""

    total: dict = field(default_factory=dict)
    own: dict = field(default_factory=dict)
    n: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    discarded: int = 0

    def add_op(self, res):
        """Adds one operation's spans; returns the spans that do not nest."""
        # The process span, timed here, is the root of the operation's spans.
        spans = [["process", res.t_start, res.t_end, -1]]
        spans += [[n, s, e, p + 1] for n, s, e, p in res.record.get("spans", [])]
        child_time = [0.0] * len(spans)
        stray = []
        for name, start, end, parent in spans[1:]:
            child_time[parent] += end - start
            _, p_start, p_end, _ = spans[parent]
            if not p_start <= start <= end <= p_end:
                stray.append(f"{res.op.label}: span {name} [{start}, {end}] lies outside "
                             f"its parent {spans[parent][0]} [{p_start}, {p_end}]")
        for i, (name, start, end, _) in enumerate(spans):
            self.total[name] = self.total.get(name, 0.0) + (end - start)
            self.own[name] = self.own.get(name, 0.0) + (end - start) - child_time[i]
            self.n[name] = self.n.get(name, 0) + 1
        for k, v in res.record.get("counts", {}).items():
            self.counts[k] = self.counts.get(k, 0) + v
        self.discarded += res.record.get("codebooks_discarded", 0)
        return stray

    def calls(self, name):
        return self.n.get(name, 0)

    def total_s(self, name):
        return self.total.get(name, 0.0)

    def self_s(self, name):
        return self.own.get(name, 0.0)


def run_round(ops, rounddir, traced, env):
    results = [run_op(op, rounddir / f"{i}-{op.label}", traced, env) for i, op in enumerate(ops)]
    return Round(traced, results)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def run_workload(name, seed, seconds, traced, env):
    rundir = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        # untimed; make_codebooks checks each codebook it packs
        books = make_codebooks(rundir / "codebooks", env) if name == "design-grid" else {}
        ops = workload_ops(name, seed, books)
        rounds = []
        first = None
        digests = None
        problems = []
        began = time.monotonic()

        def another_fits():
            # start a round only if, at the mean round length so far, it ends in time
            elapsed = time.monotonic() - began
            return elapsed + elapsed / len(rounds) <= seconds

        while not rounds or another_fits() or (traced and len(rounds) < 2):
            is_traced = traced and len(rounds) % 2 == 1
            rnd = run_round(ops, rundir / f"round{len(rounds)}", is_traced, env)
            got = [(r.exit_code, r.output_digest()) for r in rnd.results]
            if first is None:
                first, digests = rnd, got
            else:
                if got != digests:
                    problems.append(f"round {len(rounds)} wrote other files than round 0")
                shutil.rmtree(rundir / f"round{len(rounds)}")
            rounds.append(rnd)
        for res in first.results:
            if res.ok:
                try:
                    found = res.op.check(res.output, res.record)
                except Exception as exc:  # a malformed output fails the check
                    found = [f"output could not be read: {exc!r}"]
            elif res.exit_code == 2 and res.op.expect_fail:
                found = []
            else:
                last = res.stderr.strip().splitlines()[-1:] or [""]
                found = [f"exited {res.exit_code}: {last[0]}"]
            problems += [f"{res.op.label}: {p}" for p in found]
        return summarize(name, seed, rounds, traced, problems)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(name, seed, rounds, traced, problems):
    plain = [r for r in rounds if not r.traced]
    attempted = sum(len(r.results) for r in rounds)
    failed = sum(not res.ok for r in rounds for res in r.results)
    lines = [f"workload {name}  seed {seed}  rounds {len(rounds)}  "
             + "  ".join(f"{k} {v}" for k, v in environment().items())]
    if traced:
        metrics = per_layer_metrics(name, seed, rounds, problems)
    else:
        values = {
            "wall_s": _median([r.wall_s for r in plain]),
            "setup_s": _median([r.setup_s for r in plain]),
            "peak_rss_mb": max(res.rss_mb for r in plain for res in r.results),
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    for k, m in metrics.items():
        lines.append(f"  {k:38s} {m['value']:.6g} {m['unit']}")
    lines.append(f"  attempted {attempted}  failed {failed}")
    seen = set()
    for res in (res for r in rounds for res in r.results if not res.ok):
        if res.op.label not in seen:
            seen.add(res.op.label)
            last = res.stderr.strip().splitlines()[-1:] or [""]
            lines.append(f"  failed op {res.op.label} (exit {res.exit_code}): {last[0]}")
    lines += [f"  CHECK FAILED {p}" for p in problems] or ["  checks passed"]
    print("\n".join(lines), flush=True)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer_metrics(name, seed, rounds, problems):
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    aggs = []
    for rnd in traced:
        agg = LayerAggregate()
        for res in rnd.results:
            problems += agg.add_op(res)
        aggs.append(agg)
    metrics = {}
    for metric, (unit, fn) in PER_LAYER.items():
        values = [fn(a) for a in aggs]
        if unit != "s" and len(set(values)) > 1:
            problems.append(f"{metric} differs between traced rounds: {values}")
        metrics[metric] = {"value": _median(values), "unit": unit}
    overhead = _median([r.wall_s for r in traced]) - _median([r.wall_s for r in plain])
    metrics[TRACE_OVERHEAD] = {"value": overhead, "unit": "s"}
    trace_file = WORK / f"trace-{name}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "environment": environment(),
        "metrics": metrics,
        "traced_rounds": [
            [{"op": res.op.label, "exit_code": res.exit_code, "t_start": res.t_start,
              "t_end": res.t_end, "spans": res.record.get("spans", []),
              "counts": res.record.get("counts", {})} for res in rnd.results]
            for rnd in traced
        ],
    }))
    print(f"per-layer trace written to {trace_file}")
    return metrics


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit an unsigned 64-bit integer")
    if not (SRC / "klconst" / "cli.py").is_file():
        print(f"run.py: no klconst sources under {SRC}", file=sys.stderr)
        return 2
    env = program_env()
    # untimed: compiles the package's bytecode and warms the file cache
    warm = subprocess.run([sys.executable, "-c", "import klconst.cli"], env=env,
                          capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        print(f"run.py: klconst does not import:\n{warm.stderr}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), env) for n in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        for n, res in results.items():
            print(f"{n}: {json.dumps(res)}")
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
