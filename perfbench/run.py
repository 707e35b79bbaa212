#!/usr/bin/env python3
"""Repository benchmark: build rla_perfbench from this checkout and run it.

    python3 perfbench/run.py --workload <square-standard|square-fast|served-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark and the library it links (CMake, Release) under $CARGO_TARGET_DIR,
or .bench_build when that is unset; later runs only re-check the build. The
benchmark's standard output passes through unchanged: its last line is the
JSON result. The traced run (--trace 1) also writes its spans and ledger
under .bench_out/. See perfbench/README.md.
"""

import fcntl
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def _run_logged(cmd, log, env):
    log.write(f"$ {' '.join(cmd)}\n")
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                          timeout=BUILD_TIMEOUT_S).returncode


def build():
    """Configure (once) and build rla_perfbench; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no rla source tree at {ROOT}: nothing to build", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    tmp = bdir / "tmp"  # compiler temporaries stay inside the checkout too
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    configure = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(bdir), "--target", "rla_perfbench", "-j", jobs]
    with open(bdir.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        with open(bdir.parent / "perfbench-build.log", "w") as log:
            ok = False
            for attempt in range(2):
                if attempt == 1:  # a stale or foreign cache: start over once
                    shutil.rmtree(bdir, ignore_errors=True)
                    tmp.mkdir(parents=True, exist_ok=True)
                if not (bdir / "CMakeCache.txt").exists() and _run_logged(configure, log, env):
                    continue
                if _run_logged(compile_, log, env) == 0:
                    ok = True
                    break
        if not ok:
            tail = (bdir.parent / "perfbench-build.log").read_text(errors="replace")[-4000:]
            print(tail, file=sys.stderr)
            fail("build failed", 3)
    return bdir / "rla_perfbench"


def main(argv):
    if not argv or any(a in ("-h", "--help") for a in argv):
        print(__doc__)
        return 0 if argv else 2
    binary = build()
    cmd = [str(binary), *argv]
    if "--self-test" not in argv:
        cmd += ["--out", str(ROOT / ".bench_out")]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped", 4)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
