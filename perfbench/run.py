#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload serve-paper --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --self-test

It builds the daemon (bin/confcall_cli.exe) and the benchmark
(perfbench/main.exe, perfbench/smoke.exe) from source with dune, then runs
the benchmark with the same arguments. The last line of its standard
output is the result object. The benchmark and the daemon it starts run in
their own process group, which is killed if they outlive the time limit.
"""

import os
import signal
import subprocess
import sys

TARGETS = ["./bin/confcall_cli.exe", "./perfbench/main.exe", "./perfbench/smoke.exe"]
DAEMON = "_build/default/bin/confcall_cli.exe"
TIME_LIMIT_S = 170


def build():
    # No shared dune cache: everything the build writes stays in _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    result = subprocess.run(
        ["dune", "build", "--root", ".", *TARGETS],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        sys.exit("perfbench: build failed")


def run(argv):
    proc = subprocess.Popen(argv, start_new_session=True)
    try:
        return proc.wait(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: no result within {TIME_LIMIT_S} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    if not os.path.isfile("dune-project"):
        sys.exit("perfbench: run from the repository root (no dune-project here)")
    build()
    if sys.argv[1:] == ["--self-test"]:
        argv = ["_build/default/perfbench/smoke.exe"]
    else:
        argv = ["_build/default/perfbench/main.exe", *sys.argv[1:], "--daemon", DAEMON]
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
