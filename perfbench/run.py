#!/usr/bin/env python3
"""Build the host-cost benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ipc-pingpong, large-file-rand, wget, dist-cluster-16 or all.
The executable is built with dune into _build/, and its standard output
is passed through unchanged: human-readable tables, then one JSON line.
Span dumps and the GC event ring go to .perfbench/. HISTAR_* and
OCAMLRUNPARAM settings are removed from the environment so that every
run measures the same configuration.

glibc is told to keep freed memory (GLIBC_TUNABLES below). By default
it returns the large blocks the OCaml runtime mallocs for big strings
(the net stack's send queue, the store's object images) to the kernel
and faults them back in on the next allocation. In a virtual machine
those faults took 30% of wget's time and their cost followed the load
of other tenants, which made the host-time figures unsteady.
"""

import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170
KEEP_FREED_MEMORY = "glibc.malloc.mmap_threshold=1073741824:glibc.malloc.trim_threshold=4294967296"


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (
        os.path.isfile(os.path.join(root, "dune-project"))
        and os.path.isdir(os.path.join(root, "lib"))
    ):
        print(
            "perfbench: no library sources (dune-project, lib/) next to "
            "perfbench/; nothing to build or measure",
            file=sys.stderr,
        )
        return 2
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("HISTAR_") and k != "OCAMLRUNPARAM"
    }
    build = subprocess.run(
        ["dune", "build", "--root", root, "-j", "2", "./perfbench/perfbench.exe"],
        cwd=root,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = out_dir
    env["GLIBC_TUNABLES"] = KEEP_FREED_MEMORY
    exe = os.path.join(root, "_build", "default", "perfbench", "perfbench.exe")
    # Passes run in forked children; a session lets a timeout stop them too.
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=root, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
