#!/usr/bin/env python3
"""Runs one benchmark workload of whoiscrf and prints its metrics.

    python3 perfbench/run.py --workload census|churn --seed N \
        --seconds T --trace 0|1 [--scale F]

Builds the harness from the checkout's sources (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR (default .bench_build), generates the workload's
inputs from the seed into .bench_cache/ (cached by workload, seed and size,
so generation never lands in a timed region), runs the workload and checks
every output. The last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is 0 when every check passed, 1 when a check failed (the
result line is still printed), 2 on a set-up error (no result line).
--scale shrinks the corpora; the benchmark's own tests use it.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Records per corpus. census also feeds the traced run's serve probe, so it
# is 4x the result-cache capacity (4,096 entries).
SIZES = {"census": 16384, "churn": 16000}
TRAIN_SIZE = 100
KEEP_CORPORA = 12  # generated corpora kept in the cache, newest first
RUN_LIMIT_S = 175  # a run must finish within 180 s once built


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_root):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no whoiscrf sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = build_root / "perfbench"
    jobs = str(len(os.sched_getaffinity(0)))
    if not (build_dir / "CMakeCache.txt").is_file():
        log(f"configuring {build_dir}")
        configure = subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    compiled = subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench_harness",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0:
        fail("build failed")
    return build_dir / "perfbench_harness"


def generator_version():
    """Changes whenever a source the inputs are made from changes.

    The records come from src/datagen and the truth from the field
    extractor under src/, so every file under src/ counts, with the
    harness's generator. Two commits sharing one checkout then never
    share inputs unless both sides generate them alike.
    """
    digest = hashlib.sha256()
    files = [BENCH_DIR / "harness" / name
             for name in ("gen.cc", "common.cc", "common.h")]
    files += sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def ensure_generated(harness, cache, name, args):
    """Generates into cache/name once; returns the directory."""
    target = cache / name
    if (target / "truth.txt").is_file():
        os.utime(target)
        return target
    tmp = cache / f".tmp-{name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    gen = subprocess.run([str(harness)] + args + ["--out", str(tmp)],
                         stdout=sys.stderr, stderr=sys.stderr)
    if gen.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        fail(f"input generation failed for {name}")
    shutil.rmtree(target, ignore_errors=True)
    tmp.rename(target)
    return target


def prune(cache, keep):
    corpora = sorted((p for p in cache.iterdir()
                      if p.is_dir() and p.name.startswith("corpus-")),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for old in corpora[keep:]:
        shutil.rmtree(old, ignore_errors=True)


def declared_metrics(trace):
    """`name=unit,...` of the mode's metrics, from BENCHMARK.json."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"no {spec_path}")
    spec = json.loads(spec_path.read_text())
    key = "per_layer" if trace else "end_to_end"
    return ",".join(f"{m['name']}={m['unit']}" for m in spec[key])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    if args.seconds <= 0 or not 0 < args.scale <= 1:
        fail("--seconds must be > 0 and --scale in (0, 1]")

    metrics = declared_metrics(args.trace == "1")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    harness = build(build_root)
    start = time.monotonic()

    cache = ROOT / ".bench_cache"
    cache.mkdir(exist_ok=True)
    version = generator_version()
    size = max(200, int(SIZES[args.workload] * args.scale))
    train = ensure_generated(harness, cache, f"train-n{TRAIN_SIZE}-{version}",
                             ["gen-train", "--size", str(TRAIN_SIZE)])
    data = ensure_generated(
        harness, cache,
        f"corpus-{args.workload}-s{args.seed}-n{size}-{version}",
        ["gen", "--workload", args.workload, "--seed", str(args.seed),
         "--size", str(size)])
    prune(cache, KEEP_CORPORA)

    work = cache / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        run = subprocess.run(
            [str(harness), "run", "--workload", args.workload,
             "--seed", str(args.seed), "--data", str(data),
             "--train", str(train), "--work", str(work),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--metrics", metrics],
            stdout=subprocess.PIPE, text=True,
            timeout=max(10.0, RUN_LIMIT_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        fail("the workload did not finish in time")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail(f"harness exited with {run.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
