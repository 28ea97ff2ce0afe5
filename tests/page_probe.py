"""Code pages one memchan command maps in, per library, from /proc/self/smaps.

    python tests/page_probe.py COMMAND [ARGS...]
    python tests/page_probe.py

With a command, it runs memchan's CLI on it once, in this process, after the
4x4 eigvalsh that the benchmark worker calibrates with, and prints one JSON
line: the argv, the exit code, and per library the summed Rss: (KB) of the
mappings whose path names it, before and after the command, or null when
none does.  Stdout of the command itself is discarded.  Nothing unloads, so
each command needs a fresh process.  Without arguments it runs every command
of COMMANDS so, one process each.

The libraries are numpy's OpenBLAS, numpy's _multiarray_umath extension (its
ufunc loops and casts) and libm.  A first call into a routine pages in its
code, which a process's peak RSS counts.  How much depends on how numpy was
built and linked, so only tests/test_cli.py's OpenBLAS budget gates on it.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

# every CLI command, as a small argv: the page budget's cases
COMMANDS = {
    "verify": ("verify",),
    "sweep-ad": ("sweep", "ad", "0:1:3", "0:1.5:3", "0:0.785398:2"),
    "sweep-dp": ("sweep", "dp", "0:1:3", "0:1:3", "0:0.785398:2"),
    "sweep-dephasing": ("sweep", "dephasing", "0:1:3", "0:1:3", "0:0.785398:2"),
    "threshold-ad": ("threshold", "ad", "0.6", "1e-12"),
    "threshold-dp": ("threshold", "dp", "0.3", "1e-12"),
    "inequality": ("inequality", "65"),
}
# library -> a substring of its mapped file's name
LIBRARIES = {"openblas": "openblas", "_multiarray_umath": "_multiarray_umath", "libm": "libm."}


def rss_kb() -> dict:
    """Summed Rss: (KB) per library of LIBRARIES; None for one with no mapping."""
    totals = dict.fromkeys(LIBRARIES)
    library = None
    with open("/proc/self/smaps") as fh:
        for line in fh:
            fields = line.split(maxsplit=5)
            if not fields[0].endswith(":"):  # header: range perms offset dev inode [path]
                name = os.path.basename(fields[5].strip()) if len(fields) > 5 else ""
                library = next((k for k, part in LIBRARIES.items() if part in name), None)
                if library is not None and totals[library] is None:
                    totals[library] = 0
            elif library is not None and fields[0] == "Rss:":
                totals[library] += int(fields[1])
    return totals


def probe(argv: list) -> dict:
    """Run cli.main(argv) after the calibration eigvalsh; Rss per library around it."""
    import numpy as np

    from memchan import cli

    a = np.arange(16.0).reshape(4, 4)
    np.linalg.eigvalsh(a + a.T)
    before = rss_kb()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    after = rss_kb()
    return {
        "argv": argv,
        "code": code,
        "kb": {name: None if before[name] is None else [before[name], after[name]]
               for name in LIBRARIES},
    }


def main() -> None:
    if sys.argv[1:]:
        print(json.dumps(probe(sys.argv[1:])))
        return
    for argv in COMMANDS.values():
        proc = subprocess.run([sys.executable, __file__, *argv], capture_output=True,
                              text=True, check=True)
        report = json.loads(proc.stdout)
        growth = {name: None if kb is None else kb[1] - kb[0] for name, kb in report["kb"].items()}
        print(" ".join(argv), "->", "exit", report["code"], "growth KB", json.dumps(growth))


if __name__ == "__main__":
    main()
