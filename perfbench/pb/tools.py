"""Build and subprocess plumbing: compile the harness and the server
from the checkout's sources and call the harness modes."""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
# Scratch directory for compilers (the build and the JIT tier), so that
# nothing is written outside the checkout.
TMP = os.path.join(BUILD_ROOT, "tmp")
SERVER = os.path.join(BUILD, "amos_served")


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def build():
    """Configure (once) and build the harness and amos_served."""
    for needed in ("src/CMakeLists.txt", "examples/amos_served.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError("no AMOS sources: %s is missing" % needed)
    os.makedirs(TMP, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850, env=_env()).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                raise BenchError("build failed: " + " ".join(cmd))


def fingerprint():
    """Machine and build facts recorded with every run."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[:1] \
        if os.path.exists(compiler) else []
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "compiler": version[0] if version else compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown")}


def _env(extra=None):
    env = dict(os.environ)
    env["TMPDIR"] = TMP
    env.update(extra or {})
    return env


def harness(mode, flags, env=None, timeout=170):
    """Run one harness mode; returns its parsed JSON stdout."""
    cmd = [HARNESS, mode]
    for key, value in flags.items():
        cmd += ["--" + key] + ([] if value is True else [str(value)])
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout, env=_env(env))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError("harness %s exited %d" % (mode, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def serve_load(run_dir, name, lines, server_args, mode, duration,
               setups, window=4, rate=0.0, calib_every=0.0):
    """Drive amos_served with ``lines``; returns (summary, rows) where
    rows[i] = (due_s, sent_s, recv_s or None, response dict or None)."""
    req_path = write_lines(os.path.join(run_dir, name + ".ndjson"), lines)
    out_path = os.path.join(run_dir, name + ".tsv")
    summary = harness("serve-load", {
        "server-argv": json.dumps([SERVER] + server_args),
        "requests": req_path, "out": out_path, "mode": mode,
        "window": window, "rate": rate, "duration": duration,
        "setups": setups, "calib-every": calib_every,
        "stderr": os.path.join(run_dir, name + ".server.err")})
    rows = []
    with open(out_path) as f:
        for line in f:
            _, due, sent, recv, resp = line.rstrip("\n").split("\t", 4)
            recv = float(recv)
            rows.append((float(due), float(sent),
                         recv if recv >= 0 else None,
                         json.loads(resp) if resp else None))
    return summary, rows
