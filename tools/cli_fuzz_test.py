#!/usr/bin/env python3
"""Fuzz every mmgen flag with hostile values.

    cli_fuzz_test.py MMGEN [--no-as-limit]

The flags come from the usage text `mmgen` prints when run with no
arguments, so a new flag is fuzzed without editing this file. Each flag
runs under the cheapest command that reads it, once per value in VALUES
(a switch takes no value and runs once). A run must exit 0, or exit 1
after a line that starts with `error: `. Exit 70 (`internal error:`), a
signal, a sanitizer report, `error: out of memory` and a run past
WALL_SECONDS fail the test.

Each child runs under a wall limit and, unless --no-as-limit is given,
an address-space limit set on the child only. Sanitizer builds pass
--no-as-limit: ASan reserves terabytes of address space. Children run
with MMGEN_JOBS=2 in a scratch directory, which also holds their
profile cache when MMGEN_CACHE_DIR is unset.
"""

import os
import re
import resource
import subprocess
import sys
import tempfile
import time

# None stands for a missing value: the flag is the last argument.
VALUES = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e308", "", "abc",
          None]
WALL_SECONDS = 10.0
AS_LIMIT_BYTES = 2 << 30
WORKERS = 3

# Each command's cheapest run, cheapest command first. A flag whose
# controlling knob is off is an error before its value reaches the
# library's checks, so each base run turns every such knob on: graph
# launch for the replay fraction, and for `serve` two replicas, every
# fault process, stragglers, checkpoints, breakers and a degrade
# threshold on Stable Diffusion, which also reach the probe, hedge and
# degraded-pipeline paths.
BASE_RUNS = [
    ("list", ["list"]),
    ("profile", ["profile", "Muse", "--graph-launch"]),
    ("analyze", ["analyze", "--model", "Muse", "--memory"]),
    ("hotspots", ["hotspots", "Muse"]),
    ("serve", ["serve", "StableDiffusion", "--rate", "2", "--horizon", "60",
               "--replicas", "2", "--degrade-threshold", "1",
               "--mtbf", "1e6", "--preempt-mtbf", "1e6",
               "--domain-mtbf", "1e6", "--straggler-frac", "0.25",
               "--straggler-slowdown", "2", "--ckpt-interval", "10",
               "--breaker-threshold", "3", "--graph-launch"]),
    ("lint", ["lint", "--model", "Muse"]),
    ("suite", ["suite"]),
    ("taxonomy", ["taxonomy"]),
    ("stats", ["stats"]),
]


def flag_rows(mmgen):
    """(flag, takes a value, commands that read it) per usage row."""
    usage = subprocess.run([mmgen], capture_output=True, text=True).stderr
    commands, rows, readers = [], [], None
    for line in usage.splitlines():
        header = re.match(r"options of (.*):$", line)
        row = re.match(r"  (--[a-z-]+)( \S+)?", line)
        if header:
            readers = (commands if header.group(1) == "every command"
                       else header.group(1).split(", "))
        elif row and readers is not None:
            rows.append((row.group(1), row.group(2) is not None, readers))
        elif readers is None and re.match(r"  [a-z]+", line):
            commands.append(line.split()[0])
    if not rows:
        sys.exit("no flag rows in the usage text of " + mmgen)
    return rows


def fuzz_runs(rows):
    """The argument lists to run: each flag under its cheapest command."""
    runs = []
    for flag, takes_value, readers in rows:
        base = next((args for cmd, args in BASE_RUNS if cmd in readers),
                    None)
        if base is None:
            sys.exit("no base run for a command that reads " + flag)
        values = VALUES if takes_value else [None]
        runs += [base + [flag] + ([] if v is None else [v]) for v in values]
    return runs


def verdict(code, stderr):
    """Why a finished run fails the test, or None if it passes."""
    if "runtime error:" in stderr or "Sanitizer" in stderr:
        return "sanitizer report"
    if "error: out of memory" in stderr:
        return "out of memory"
    if code == 0 or (code == 1 and re.search(r"^error: ", stderr, re.M)):
        return None
    return "exit %d" % code


def run_all(mmgen, runs, as_limit, cwd, env):
    """Run every argument list, WORKERS at a time; return failures."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS,
                           (AS_LIMIT_BYTES, AS_LIMIT_BYTES))

    pending, running, failures = list(runs), [], []
    while pending or running:
        while pending and len(running) < WORKERS:
            args = pending.pop(0)
            err = tempfile.TemporaryFile(dir=cwd)
            proc = subprocess.Popen([mmgen] + args, cwd=cwd, env=env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    preexec_fn=limit if as_limit else None)
            running.append((proc, args, err, time.monotonic()))
        time.sleep(0.01)
        still = []
        for proc, args, err, start in running:
            timed_out = time.monotonic() - start >= WALL_SECONDS
            if proc.poll() is None and not timed_out:
                still.append((proc, args, err, start))
                continue
            problem = None
            if proc.poll() is None:
                proc.kill()
                proc.wait()
                problem = "still running after %g s" % WALL_SECONDS
            err.seek(0)
            stderr = err.read().decode(errors="replace")
            err.close()
            problem = problem or verdict(proc.returncode, stderr)
            if problem:
                last = (stderr.strip().splitlines() or [""])[-1]
                command = "mmgen " + " ".join(map(repr, args))
                failures.append("%s: %s :: %s" % (problem, command, last))
        running = still
    return failures


def main():
    args = sys.argv[1:]
    if not args:
        sys.exit(__doc__)
    mmgen = os.path.abspath(args[0])
    as_limit = "--no-as-limit" not in args[1:]
    runs = fuzz_runs(flag_rows(mmgen))
    with tempfile.TemporaryDirectory() as cwd:
        env = dict(os.environ, MMGEN_JOBS="2")
        env.setdefault("MMGEN_CACHE_DIR", os.path.join(cwd, "profile-cache"))
        start = time.monotonic()
        failures = run_all(mmgen, runs, as_limit, cwd, env)
    for failure in failures:
        print(failure)
    print("%d of %d runs failed (%.1f s)"
          % (len(failures), len(runs), time.monotonic() - start))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
