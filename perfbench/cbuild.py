"""Builds the benchmark's hand-written C yardsticks without repro.

A yardstick must not move when repro's build changes, or a change to
repro would cancel out of the ratios that are meant to show it.  So the
compiler is looked up on ``PATH`` here, not through ``repro.buildd``,
and the flags are a literal list, copied once from the C backend's
defaults (``repro.buildd.service.DEFAULT_CFLAGS``) and frozen.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess

CC = shutil.which("gcc") or shutil.which("cc")
CFLAGS = ("-O3", "-march=native", "-fPIC", "-shared", "-fno-strict-aliasing",
          "-fno-semantic-interposition", "-fwrapv", "-ffp-contract=off",
          "-w")


def compile_so(c_path: str, so_path: str) -> None:
    """Run the yardstick compiler on ``c_path``, writing ``so_path``."""
    if CC is None:
        raise RuntimeError("perfbench: no gcc or cc on PATH for the C "
                           "yardsticks")
    subprocess.run([CC, *CFLAGS, c_path, "-o", so_path, "-lm"], check=True,
                   capture_output=True)


_builds = 0


def build(source: str, name: str, workdir: str) -> ctypes.CDLL:
    """Compile ``source`` into a new ``<workdir>/yardsticks/<name>-N.so``
    (a loaded library is never overwritten) and load it; the caller sets
    each function's argtypes and restype."""
    global _builds
    _builds += 1
    d = os.path.join(workdir, "yardsticks")
    os.makedirs(d, exist_ok=True)
    base = os.path.join(d, f"{name}-{_builds}")
    with open(base + ".c", "w") as fh:
        fh.write(source)
    compile_so(base + ".c", base + ".so")
    return ctypes.CDLL(base + ".so")


def identity() -> dict:
    """The yardstick compiler, its version line and the flags."""
    version = ""
    if CC is not None:
        proc = subprocess.run([CC, "--version"], capture_output=True,
                              text=True)
        version = proc.stdout.splitlines()[0] if proc.stdout else ""
    return {"path": CC, "version": version, "cflags": list(CFLAGS)}
