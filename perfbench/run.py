#!/usr/bin/env python3
"""Build and run autorte's benchmark (perfbench) from the repository root.

    python3 perfbench/run.py --workload drive --seed 1 --seconds 10 --trace 0

Builds the perfbench Go module (perfbench/go.mod, which imports the
autorte module from the parent directory) into .bench_build/ with every
Go cache kept under .bench_build/, then runs it with the given arguments.
The last line of standard output is the JSON result. Exits non-zero
without a result when the autorte sources are not next to perfbench/.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def go_env(go):
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    tmp = os.path.join(BUILD, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "PPROF_TMPDIR": tmp,
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        # Offline, reproducible module resolution: the benchmark module
        # only needs the autorte module it replaces with the parent dir.
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "PERFBENCH_GO": go,
    })
    return env


def main():
    for need in (os.path.join(BENCH, "go.mod"), os.path.join(ROOT, "go.mod"),
                 os.path.join(ROOT, "internal")):
        if not os.path.exists(need):
            fail("%s not found: run from the root of an autorte checkout" % need)
    go = shutil.which("go")
    if go is None and os.path.exists("/usr/local/go/bin/go"):
        go = "/usr/local/go/bin/go"  # the standard install location
    if go is None:
        fail("the go toolchain is not on PATH")
    env = go_env(go)
    binary = os.path.join(BUILD, "bin", "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=BENCH, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
