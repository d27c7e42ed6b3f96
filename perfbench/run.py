#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds perfbench/ (the sdcgmres library from src/ plus the sdcbench program,
Release, CMake) into the build directory, then runs one workload:

    python3 perfbench/run.py --workload fig3-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run it from the repository root.  The build directory is
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); every file the
benchmark writes stays under that directory's parent.  The last line of
standard output is the result object; build logs go to standard error.
--smoke runs every workload at a tiny size plus the corrupted-output cases
the checks must reject, and checks that BENCHMARK.json names exactly the
metrics sdcbench prints and only workloads it knows.  large-solve runs by
hand but is not listed in BENCHMARK.json (see perfbench/README.md).
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

WORKLOADS = ("fig3-sweep", "sweep-ca", "large-solve", "serve-open")
HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
RUN_TIMEOUT_S = 170


def build_root():
    return (pathlib.Path.cwd() / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(bdir):
    """Configure (once) and build; raise CalledProcessError on failure."""
    if not (bdir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(bdir), "-j", "4"],
                   stdout=sys.stderr, check=True)
    return bdir / "sdcbench"


def source_revision():
    """The git commit when available; otherwise a digest of the sources."""
    try:
        if (REPO / ".git").exists():
            out = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for path in sorted((REPO / sub).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(REPO)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def child_env():
    env = dict(os.environ)
    env.setdefault("OMP_NUM_THREADS", str(min(4, os.cpu_count() or 1)))
    return env


def check_metric_names(exe):
    """BENCHMARK.json must list exactly the metrics sdcbench prints, and
    only workloads it knows."""
    listed = json.loads(subprocess.run([str(exe), "--list-metrics"],
                                       capture_output=True, text=True,
                                       check=True).stdout)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    ok = True
    for key in ("end_to_end", "per_layer"):
        want = {(m["name"], m["unit"]) for m in spec[key]}
        have = {(m["name"], m["unit"]) for m in listed[key]}
        if want != have:
            print(f"smoke: BENCHMARK.json {key} differs from sdcbench: "
                  f"missing {sorted(have - want)}, extra {sorted(want - have)}")
            ok = False
    names = {w["name"] for w in spec["workloads"]}
    if not names <= set(WORKLOADS):
        print(f"smoke: BENCHMARK.json names unknown workloads {sorted(names - set(WORKLOADS))}")
        ok = False
    print("smoke: BENCHMARK.json names", "ok" if ok else "FAILED")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = build_root()
    try:
        exe = build(root / "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    workdir = root / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.smoke:
            proc = subprocess.run([str(exe), "--smoke", "--workdir", str(workdir)],
                                  env=child_env(), timeout=RUN_TIMEOUT_S)
            return 0 if proc.returncode == 0 and check_metric_names(exe) else 1
        cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir), "--commit", source_revision()]
        proc = subprocess.run(cmd, env=child_env(), timeout=RUN_TIMEOUT_S)
        trace = workdir / "trace.json"
        if trace.exists():
            traces = root / "traces"
            traces.mkdir(exist_ok=True)
            shutil.move(str(trace), str(traces / f"{args.workload}-seed{args.seed}.json"))
        return proc.returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: sdcbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
