"""Run one klconst CLI invocation in this process, with timing hooks.

    python3 child.py RECORD TRACE CLI-ARGUMENTS...

The hooks replace module-level names of the klconst package with wrappers
defined here, so no file of the package changes.  Every invocation records
when its first per-SNR work call began (the end of set-up) and the
constellations handed to ``estimate_ser``; with TRACE = 1 it also records a
span (name, start, end, parent) for every call across a layer boundary and
counts taken from the calls' arguments and results.  Spans stay in memory
and are written, with the exit code, as JSON to RECORD when the invocation
ends.  The process exits with the CLI's exit code.

Times come from time.monotonic(), which on Linux is one clock for all
processes, so the parent can subtract its own spawn time from them.
"""

import importlib
import inspect
import json
import os
import sys
import time
import traceback
from collections import Counter

# A call into any of these ends set-up: they are the modes' per-SNR work.
WORK_ENTRIES = ("allocate_bits", "estimate_ser", "pilot_qam_run", "kl_mc_estimate")

# Layer boundaries that a traced invocation wraps, as (module, function).
TRACED = (
    ("unitary", "optimize_unitary"),
    ("unitary", "load_unitary"),
    ("multilevel", "allocate_bits"),
    ("multilevel", "solve_bisection"),
    ("multilevel", "energy_only_levels"),
    ("multilevel", "build_level_set"),
    ("detection", "detect_two_stage"),
    ("detection", "gram"),
    ("linksim", "estimate_ser"),
    ("linksim", "pilot_qam_run"),
    ("linksim", "kl_mc_estimate"),
    ("core", "save_constellation"),
)


class Recorder:
    """Spans, counts and set-up marker of one invocation, kept in memory."""

    def __init__(self, traced):
        self.traced = traced
        self.first_work = None
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.packed_sizes = set()
        self.loaded_sizes = set()
        self.ser_calls = []

    def span(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.monotonic(), None, parent])
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[index][2] = time.monotonic()

    def wrap(self, module, name, fn):
        signature = inspect.signature(fn)
        span_name = f"{module}.{name}"
        is_entry = name in WORK_ENTRIES
        is_ser = name == "estimate_ser"

        def wrapper(*args, **kwargs):
            if is_entry and self.first_work is None:
                self.first_work = time.monotonic()
            if not (self.traced or is_ser):
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments
            if is_ser:
                self._note_ser_call(bound)
            if not self.traced:
                return fn(*args, **kwargs)
            solves = self.counts["solve_bisection"]
            try:
                result = self.span(span_name, fn, *args, **kwargs)
            finally:
                if name == "allocate_bits":
                    # bisections beyond one per table row with 1 <= l_alpha < l_s
                    extra = self.counts["solve_bisection"] - solves - (bound["l_s"] - 1)
                    self.counts["bisection_repeats"] += max(extra, 0)
            self._count(name, bound, result)
            return result

        return wrapper

    def _note_ser_call(self, bound):
        # The reference Monte-Carlo needs the exact points each SER row used.
        S = bound["c"].point_vectors()
        self.ser_calls.append(
            {
                "points_re": S.real.tolist(),
                "points_im": S.imag.tolist(),
                "sigma2": bound["params"].sigma2,
                "M": bound["params"].M,
                "trials": bound["trials"],
            }
        )

    def _count(self, name, bound, result):
        c = self.counts
        if name == "optimize_unitary":
            cfg = bound["cfg"]
            if cfg.cardinality > 1:
                c["climb_steps"] += cfg.restarts * cfg.iterations
            self.packed_sizes.add(cfg.cardinality)
        elif name == "load_unitary":
            self.loaded_sizes.add(result.size)
        elif name == "solve_bisection":
            c["solve_bisection"] += 1
            c["bisection_iterations"] += result.iterations
        elif name == "detect_two_stage":
            shape = getattr(bound["Y"], "shape", ())
            blocks = 1
            for n in shape[:-2]:
                blocks *= n
            c["blocks"] += blocks
        elif name in ("estimate_ser", "pilot_qam_run"):
            c["trials"] += bound["trials"]
        elif name == "kl_mc_estimate":
            c["kl_samples"] += bound["samples"]
        elif name == "save_constellation":
            c["bytes_written"] += os.path.getsize(bound["path"])

    def install(self):
        """Swap every klconst module attribute bound to a hooked function."""
        targets = TRACED if self.traced else tuple(
            (m, f) for m, f in TRACED if f in WORK_ENTRIES
        )
        replace = {}
        for module, name in targets:
            fn = getattr(importlib.import_module(f"klconst.{module}"), name)
            replace[id(fn)] = (fn, self.wrap(module, name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "klconst" and not modname.startswith("klconst."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def record(self, exit_code, error=None):
        return {
            "exit_code": exit_code,
            "error": error,
            "first_work": self.first_work,
            "peak_rss_kb": peak_rss_kb(),
            "spans": self.spans,
            "counts": dict(self.counts),
            "codebooks_discarded": len(self.packed_sizes & self.loaded_sizes),
            "ser_calls": self.ser_calls,
        }


def peak_rss_kb():
    # VmHWM covers this program image only.  ru_maxrss from wait4 would not
    # do: Linux carries the spawning parent's peak into it across exec.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv):
    record_path, traced, cli_args = argv[0], argv[1] == "1", argv[2:]
    import klconst.cli

    rec = Recorder(traced)
    rec.install()
    error = None
    try:
        if traced:
            code = rec.span("cli.main", klconst.cli.main, cli_args)
        else:
            code = klconst.cli.main(cli_args)
    except Exception:  # reported through the record and the exit code
        error = traceback.format_exc()
        sys.stderr.write(error)
        code = 1
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(rec.record(code, error), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
