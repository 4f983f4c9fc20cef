#!/usr/bin/env python3
"""Builds and runs the icsad benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <fleet_replay|paced_trickle|hostile_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a Cargo package of its own, depending on the crates
under `crates/` by path) in release mode, offline, into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the given arguments plus a
`--commit` stamp: the git commit when the checkout is a git repository,
otherwise a digest of the sources. The benchmark's last line of standard
output is its JSON result; its exit code is passed through.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def commit_stamp():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            if "target" not in os.path.relpath(d, path).split(os.sep)
            for f in fs
            if f.endswith((".rs", ".toml", ".lock", ".py"))
        )
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "engine", "Cargo.toml")):
        fail("no icsad sources next to perfbench/: run from a full source checkout")
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed (cargo exit {build.returncode})")
    binary = os.path.join(target, "release", "perfbench")
    args = [binary, *sys.argv[1:], "--commit", commit_stamp()]
    sys.stdout.flush()
    sys.exit(subprocess.run(args, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
