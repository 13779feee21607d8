#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

Run from the repository root:

  python3 benchmark/run.py --workload ring-epoch --seed 1 --seconds 25 --trace 0

The build goes to .bench_build/ (configured once, then incremental); its
output goes to stderr so the last stdout line stays the benchmark's JSON
result.  Traced runs (--trace 1) write their spans under
.bench_build/spans/.  See benchmark/README.md.
"""
import fcntl
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "ledger_bench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("benchmark: library sources (src/) not found; "
                 "run from the root of a full checkout")
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time when runs start together.
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "ledger_bench", "-j", jobs])
        for step in steps:
            try:
                subprocess.run(step, check=True, stdout=sys.stderr)
            except (OSError, subprocess.CalledProcessError) as err:
                sys.exit(f"benchmark: build failed: {err}")


def git_sha():
    # Stop git at the checkout root: a checkout that is not a repository
    # must not report the sha of an enclosing one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def src_digest():
    """SHA-256 over the library sources: identifies the code measured even
    where there is no git history."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    build()
    argv = [str(BINARY), *sys.argv[1:], "--spans-dir",
            str(BUILD / "spans"), "--git-sha", git_sha(),
            "--src-digest", src_digest()]
    sys.stdout.flush()
    os.execv(argv[0], argv)


if __name__ == "__main__":
    main()
