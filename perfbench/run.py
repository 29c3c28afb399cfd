#!/usr/bin/env python3
"""Build and run the monityre benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) against the checkout's
crates, prints one `# machine:` line (nproc, rustc, source revision,
seed), then runs the benchmark binary; its last stdout line is the JSON
result. Build output goes to stderr. The exit code is the binary's, or
non-zero when the build fails. Outputs land under the cargo target
directory (`CARGO_TARGET_DIR`, else `perfbench/target`).
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 175


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")


def source_revision(root):
    """The git revision when the checkout is a repository; otherwise a
    digest of the sources the benchmark builds from."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(
            ["rustc", "-V"], capture_output=True, text=True, timeout=30
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def seed_of(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seed":
            return value
    return None


def main(argv):
    root = os.getcwd()
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            MANIFEST,
        ],
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(target_dir(), "release", "monityre-perfbench")
    out_dir = os.path.join(target_dir(), "perfbench-out")
    machine = {
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "rustc": rustc_version(),
        "rev": source_revision(root),
        "seed": seed_of(argv),
    }
    print("# machine: " + json.dumps(machine, sort_keys=True), flush=True)
    run = subprocess.run(
        [binary, *argv, "--out", out_dir], timeout=RUN_TIMEOUT_S
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
