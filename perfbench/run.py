#!/usr/bin/env python3
"""Build the perfbench harness from source and run one benchmark run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-quick --seed 1 --seconds 30 --trace 0

Every file the build and the run write stays under .bench_build/ in the
checkout: the Go build cache, temporary files, the binary and the span
files of traced runs. The harness's own flags are passed through
unchanged (Go's flag package accepts the two-dash spelling). The last
line of standard output is the result object; the exit code is the
harness's, or 1 when the build fails.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def go_binary():
    found = shutil.which("go")
    if found:
        return found
    goroot = os.environ.get("GOROOT")
    if goroot and os.path.exists(os.path.join(goroot, "bin", "go")):
        return os.path.join(goroot, "bin", "go")
    return None


def confined_env(root):
    """The environment with every Go cache and config path inside root."""
    build = os.path.join(root, BUILD_DIR)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    for key in ("GOCACHE", "GOPATH", "GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    return env


def run_group(cmd, env, timeout, stdout=None):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1


def main(argv):
    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "go.mod")):
        print("perfbench: run from the root of a checkout (no go.mod here)", file=sys.stderr)
        return 2
    go = go_binary()
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2
    env = confined_env(root)
    binary = os.path.join(root, BUILD_DIR, "perfbench")
    build = [go, "build", "-o", binary, "./perfbench"]
    # The build's output goes to stderr so stdout carries only results.
    if run_group(build, env, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return run_group([binary] + argv, env, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
