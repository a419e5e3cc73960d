#!/usr/bin/env python3
"""Runs one perfbench workload from the root of a frontier checkout.

    python3 perfbench/run.py --workload crawl|serve|replicate \
        --seed N --seconds S --trace 0|1

Steps: build the driver and the library from source (CMake, Release, into
$CARGO_TARGET_DIR or .bench_build), write the seed's inputs once
(`perfbench prep`), print the machine descriptor, run the workload, and
print its result object as the last line of standard output. Exits 0 only
when the run finished and every output check passed.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("crawl", "serve", "replicate")
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def child_env(bdir):
    """Keeps temporary files (the compiler's too) inside the build dir."""
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(bdir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"{ROOT} is not a frontier checkout (no CMakeLists.txt and src/)")
    cmake_dir = bdir / "cmake"
    bdir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"]
                     + generator)
    steps.append(["cmake", "--build", str(cmake_dir), "-j", str(nproc())])
    log_path = bdir / "build.log"
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=child_env(bdir)).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed (see {log_path})", 1)
    return (cmake_dir / "perfbench",
            cmake_dir / "frontier" / "tools" / "frontier_serve")


def prepare(driver, bdir, seed):
    """Inputs live in inputs/seed-N; other seeds' inputs are dropped."""
    root = bdir / "inputs"
    final = root / f"seed-{seed}"
    if (final / "ready").exists():
        return final
    if root.exists():
        shutil.rmtree(root)
    staging = root / "staging"
    staging.mkdir(parents=True)
    subprocess.run([str(driver), "prep", "--seed", str(seed), "--out",
                    str(staging)], check=True, timeout=RUN_TIMEOUT_S,
                   env=child_env(bdir))
    staging.rename(final)
    (final / "ready").write_text("")
    return final


def cache_sizes():
    sizes = {}
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"l{level}"] = size
    return sizes


def source_digest():
    """sha256 over the files the benchmark builds from."""
    h = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools", "perfbench"):
        paths += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in paths:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def machine(bdir):
    model = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    try:
        for line in open(bdir / "cmake" / "CMakeCache.txt"):
            key, _, value = line.strip().partition("=")
            cache[key.split(":")[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    return {"nproc": nproc(), "cpu_model": model, **cache_sizes(),
            "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "git_commit": commit or None, "source_sha256": source_digest()}


def run(driver, serve_bin, inputs, bdir, args):
    cmd = [str(driver), args.workload, "--inputs", str(inputs),
           "--run-dir", str(bdir / "run" / args.workload),
           "--serve-bin", str(serve_bin), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(nproc())]
    # Own process group: a timeout kills the driver and its daemon alike.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, env=child_env(bdir))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 1)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print(out, file=sys.stderr)
        die(f"{args.workload} printed no result (exit {proc.returncode})", 1)
    return lines[:-1], result, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    driver, serve_bin = build(bdir)
    inputs = prepare(driver, bdir, args.seed)
    desc = machine(bdir)
    # Write back what the build and the input files left dirty first, so
    # that writeback does not run under the measured program; its
    # checkpoint fsyncs could otherwise wait for it.
    os.sync()
    notes, result, code = run(driver, serve_bin, inputs, bdir, args)

    results = bdir / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "machine": desc,
         "result": result}, indent=1) + "\n")

    print("machine: " + json.dumps(desc, sort_keys=True))
    for line in notes:
        print(line)
    for key, metric in result["metrics"].items():
        print(f"  {key:<42} {metric['value']:>18.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
