"""Make the direction codebooks of the design-grid workload anew.

    python3 perfbench/codebooks.py OUTDIR

Each codebook u<l_v>.txt (K = 2, l_v = 1..6, so 2..64 directions) is packed
by `klconst pack-unitary` at the fixed seed SEEDS[l_v] with the packer's
default restarts and iterations, and is then checked: 2^l_v unit vectors
whose minimum squared chordal distance is positive and no greater than the
Welch limit.  The benchmark makes them this way instead of keeping copies,
so that they always come from the program under test.
"""

import subprocess
import sys
from pathlib import Path

from checks import check_codebook

K = 2
SIZES = range(1, 7)
SEEDS = {l_v: 1000 + l_v for l_v in SIZES}


def make_codebooks(outdir, env):
    """Pack every size into outdir; returns {l_v: path} or raises RuntimeError."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for l_v in SIZES:
        path = outdir / f"u{l_v}.txt"
        config = outdir / f"u{l_v}.cfg"
        config.write_text(
            f"mode = pack-unitary\nK = {K}\nl_s = {l_v}\nseed = {SEEDS[l_v]}\n"
            f"output_path = {path}\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "klconst.cli", "pack-unitary", "--config", str(config)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"pack-unitary l_v={l_v} exited {proc.returncode}: {proc.stderr.strip()}")
        problems = check_codebook(path, K, l_v)
        if problems:
            raise RuntimeError("; ".join(problems))
        paths[l_v] = str(path)
    return paths


if __name__ == "__main__":
    from run import program_env

    if len(sys.argv) != 2:
        sys.exit(__doc__)
    for l_v, p in make_codebooks(sys.argv[1], program_env()).items():
        print(f"l_v={l_v}: {p}")
