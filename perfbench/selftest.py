"""Fast self-tests of the benchmark.

    python3 perfbench/selftest.py

Runs the klconst CLI on small configs through the benchmark's own child
process, shows that every checker accepts the genuine outputs, and that each
rejects a corrupted copy: a perturbed amplitude, a wrong min_kl, an l_alpha
that is not the table's argmax, swapped SER rows, a wrong Wilson bound, a
wrong closed-form KL and a non-unit codebook vector.  It also checks the
Bartlett sampler against E[G] = M C and that BENCHMARK.json names exactly the
metrics and workloads run.py reports.  Exits 0 when every test passes.
"""

import json
import math
import shutil
import sys
import traceback

import numpy as np

import checks
import run

K = 2
# Two small direction codebooks in C^2: an orthonormal pair, and four
# deliberately crowded lines (min_sq_dist 0.16), so that a design with
# l_s = 2 puts one bit into levels at low SNR and none at 40 dB.
BOOKS = {
    1: np.eye(2, dtype=complex),
    2: np.array([[math.cos(0.3), math.sin(0.3) * 1j**k] for k in range(4)]),
}


def write_book(path, V):
    lines = [f"{V.shape[1]} {V.shape[0]}"]
    lines += [" ".join(f"{x:.17g}" for z in v for x in (z.real, z.imag)) for v in V]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def edit_csv_cell(path, row, column, fn):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1 + row].split(",")
    cells[header.index(column)] = fn(cells[header.index(column)])
    lines[1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class SelfTest:
    def __init__(self, workdir):
        self.workdir = workdir
        self.env = run.program_env()
        self.failures = []

    def cli(self, label, mode, config):
        res = run.run_op(run.Op(label, mode, config, None), self.workdir / label, False, self.env)
        if not res.ok:
            raise RuntimeError(f"{label}: klconst exited {res.exit_code}: {res.stderr}")
        return res

    def copy(self, res, name):
        dst = self.workdir / name
        shutil.copytree(res.outdir, dst)
        return dst

    def expect(self, name, problems, accept):
        if bool(problems) == accept:
            self.failures.append(f"{name}: expected {'no problems' if accept else 'a problem'}, "
                                 f"got {problems}")
        print(f"{'ok  ' if bool(problems) != accept else 'FAIL'} {name}")

    def test_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        expected_layers = [(k, u) for k, (u, _) in run.PER_LAYER.items()] + [(run.TRACE_OVERHEAD, "s")]
        self.expect("BENCHMARK.json end_to_end matches run.py",
                    [] if e2e == run.END_TO_END else [e2e], True)
        self.expect("BENCHMARK.json per_layer matches run.py",
                    [] if layers == expected_layers else [layers], True)
        self.expect("BENCHMARK.json workloads match run.py",
                    [] if tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS else ["x"], True)

    def test_codebooks(self):
        books = {l_v: write_book(self.workdir / f"u{l_v}.txt", V) for l_v, V in BOOKS.items()}
        for l_v, path in books.items():
            self.expect(f"codebook {l_v} accepted", checks.check_codebook(path, K, l_v), True)
        bad = BOOKS[2].copy()
        bad[1] *= 1.001
        path = write_book(self.workdir / "bad.txt", bad)
        self.expect("codebook with a non-unit vector rejected", checks.check_codebook(path, K, 2), False)
        self.expect("codebook of the wrong size rejected", checks.check_codebook(books[1], K, 2), False)
        return books

    def test_design(self, books):
        snrs = [-15.0, 0.0, 40.0]
        config = {"K": K, "l_s": 2, "snr_db_list": "-15, 0, 40", "seed": 0}
        config.update({f"unitary_library_{l_v}": p for l_v, p in books.items()})
        res = self.cli("design", "design", config)

        def check(outdir):
            return checks.check_design(str(outdir / "out.csv"), K, 2, snrs, books, True)

        self.expect("design accepted", check(res.outdir), True)
        rows = checks.read_csv(res.output)
        leveled = next(i for i, r in enumerate(rows) if int(r["l_alpha"]) >= 1)

        d = self.copy(res, "design-amplitude")
        const = d / f"out_point{leveled:02d}_constellation.txt"
        lines = const.read_text().splitlines()
        lines[1] = repr(float(lines[1]) * (1 + 1e-6))
        const.write_text("\n".join(lines) + "\n")
        self.expect("perturbed amplitude rejected", check(d), False)

        d = self.copy(res, "design-minkl")
        l_alpha = int(rows[leveled]["l_alpha"])
        bump = lambda s: f"{float(s) * 1.001:.12g}"
        edit_csv_cell(d / "out.csv", leveled, "min_kl", bump)
        edit_csv_cell(d / f"out_point{leveled:02d}_table.csv", l_alpha, "min_kl", bump)
        self.expect("wrong min_kl rejected", check(d), False)

        d = self.copy(res, "design-argmax")
        other = 0 if l_alpha else 1
        top = float(rows[leveled]["min_kl"]) * 2
        edit_csv_cell(d / f"out_point{leveled:02d}_table.csv", other, "min_kl", lambda s: f"{top:.12g}")
        self.expect("l_alpha that is not the table argmax rejected", check(d), False)

    def test_ser(self):
        # 16-QAM makes the pilot baseline clearly worse, so a swap shows
        config = {"K": K, "M": 8, "l_s": 4, "snr_db_list": "6", "trials": 4096, "seed": 3,
                  "schemes": "multilevel, unitary, pilot-qam"}
        res = self.cli("ser", "ser-sweep", config)

        def check(outdir):
            return checks.check_ser(str(outdir / "out.csv"), K, 8, 4, [6.0], run.SER_SCHEMES,
                                    4096, 3, res.record["ser_calls"], ordered=False)

        self.expect("SER sweep accepted", check(res.outdir), True)
        d = self.copy(res, "ser-swapped")
        lines = (d / "out.csv").read_text().splitlines()
        tail = lambda ln: ln.split(",", 6)[6]
        head = lambda ln: ",".join(ln.split(",")[:6])
        lines[1], lines[3] = head(lines[1]) + "," + tail(lines[3]), head(lines[3]) + "," + tail(lines[1])
        (d / "out.csv").write_text("\n".join(lines) + "\n")
        self.expect("swapped SER rows rejected", check(d), False)
        d = self.copy(res, "ser-wilson")
        edit_csv_cell(d / "out.csv", 0, "ci_high", lambda s: f"{float(s) + 1e-4:.12g}")
        self.expect("wrong Wilson bound rejected", check(d), False)

    def test_kl(self):
        config = {"K": K, "M": 4, "snr_db_list": "0", "trials": 20000, "pairs": 3, "seed": 5}
        res = self.cli("kl", "kl-check", config)

        def check(outdir):
            return checks.check_kl(str(outdir / "out.csv"), K, 4, [0.0], 3, 20000, 5)

        self.expect("KL check accepted", check(res.outdir), True)
        d = self.copy(res, "kl-closed")
        edit_csv_cell(d / "out.csv", 1, "kl_closed", lambda s: f"{float(s) * 1.0001:.12g}")
        self.expect("wrong closed-form KL rejected", check(d), False)

    def test_bartlett(self):
        rng = np.random.default_rng(7)
        s = np.array([0.6, 0.8j])
        C = checks.covariances(s[None, :], 0.5)[0]
        L = np.linalg.cholesky(C)
        G = checks.draw_gram(np.broadcast_to(L, (20000, K, K)).copy(), 16, rng)
        err = np.max(np.abs(G.mean(axis=0) / 16 - C))
        self.expect("Bartlett draws have E[G] = M C", [err] if err > 0.02 else [], True)


def main():
    workdir = run.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t = SelfTest(workdir)
    try:
        t.test_benchmark_json()
        books = t.test_codebooks()
        t.test_design(books)
        t.test_ser()
        t.test_kl()
        t.test_bartlett()
    except Exception:
        t.failures.append(traceback.format_exc())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for f in t.failures:
        print(f"FAILED {f}")
    print("self-tests passed" if not t.failures else f"{len(t.failures)} self-tests failed")
    return 1 if t.failures else 0


if __name__ == "__main__":
    sys.exit(main())
