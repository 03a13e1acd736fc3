"""Loader for the compiled op cycle (``_opcycle.c``).

The C source sits next to this module and is compiled on first import
with the running interpreter's own ``sysconfig`` compiler and flags,
plus ``-ffp-contract=off``: without it a compiler may fuse a multiply
and an add into one instruction that rounds once instead of twice, and
completion times would stop matching the pure-Python path bit for bit.
The shared object goes into a per-user cache directory keyed by the
source hash and the interpreter's extension suffix, so every checkout
and every worker process of one interpreter shares one build.  It is
written under a temporary name and moved into place with an atomic
rename, because engine and fleet workers may import concurrently.

Any failure — no compiler, a compile error, a load error — leaves
:data:`opcycle` as ``None`` and warns once; the simulator then runs
its pure-Python op path, which is also the byte-identity reference the
test suite compares the compiled one against.  Nothing selects between
the two paths: the compiled one runs whenever it loaded.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path
from types import ModuleType
from typing import List, Optional

SOURCE = Path(__file__).with_name("_opcycle.c")
MODULE_NAME = "_opcycle"


def _cache_dir() -> Path:
    """Per-user build cache: ``$XDG_CACHE_HOME`` or ``~/.cache``, or a
    per-user directory under the system temp dir when that is not
    writable."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    path = Path(base) / "repro" / "opcycle"
    try:
        path.mkdir(parents=True, exist_ok=True)
        if os.access(path, os.W_OK | os.X_OK):
            return path
    except OSError:
        pass
    user = os.getuid() if hasattr(os, "getuid") else "user"
    return Path(tempfile.gettempdir()) / f"repro-opcycle-{user}"


def _compiler() -> List[str]:
    """Compile-and-link command prefix from the interpreter's build."""
    get = sysconfig.get_config_var
    cc = shlex.split(get("CC") or "cc")
    ldshared = shlex.split(get("LDSHARED") or "")
    # LDSHARED starts with the compiler command; keep only its flags
    link_flags = ldshared[1:] if ldshared else ["-shared"]
    return (cc
            + shlex.split(get("CFLAGS") or "")
            + shlex.split(get("CCSHARED") or "")
            + ["-ffp-contract=off",
               "-I", sysconfig.get_paths()["include"]]
            + link_flags)


def _target(source: bytes) -> Path:
    digest = hashlib.sha256(source).hexdigest()[:16]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return _cache_dir() / f"{MODULE_NAME}-{digest}{suffix}"


def _build(target: Path) -> None:
    """Compile ``SOURCE`` into ``target`` via a temporary file in the
    same directory and an atomic rename."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.name + ".",
                               suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            _compiler() + [str(SOURCE), "-o", tmp],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"compiler exited with status {proc.returncode}: "
                f"{proc.stdout.strip()[-2000:]}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load() -> Optional[ModuleType]:
    """Build (if needed) and import the compiled op cycle.

    Returns the extension module, or None after one ``RuntimeWarning``
    when it cannot be built or loaded.
    """
    try:
        target = _target(SOURCE.read_bytes())
        if not target.exists():
            _build(target)
        spec = importlib.util.spec_from_file_location(
            f"repro.sim.{MODULE_NAME}", target)
        if spec is None or spec.loader is None:
            raise ImportError(f"cannot load {target}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except Exception as exc:  # any failure keeps the Python path
        warnings.warn(
            f"compiled op cycle unavailable ({type(exc).__name__}: "
            f"{exc}); running the pure-Python op path",
            RuntimeWarning, stacklevel=2)
        return None


#: The compiled op cycle, or None when the pure-Python path runs.
#: ``Simulator.run`` and ``StorageController._pump`` dispatch on it.
opcycle: Optional[ModuleType] = load()


def active_core() -> str:
    """Which op path runs: ``"compiled"`` or ``"python"``."""
    return "python" if opcycle is None else "compiled"


__all__ = ["active_core", "load", "opcycle"]
