"""Build and load the compiled kernels of ``kernels/native.c``.

:func:`load` resolves the kernel backend once per process.  On first use
it compiles the C source with the system ``cc`` (``-O2 -fPIC -shared
-ffp-contract=off``; never ``-ffast-math`` or ``-march``, which would
break the bitwise contract with the Python kernels), loads the library
through :mod:`ctypes` and installs it behind the block API of
:mod:`repro.kernels.batch`.  The first call in a fresh cache pays the
compile (about 0.25 s on a 2-core x86-64 container with gcc 12);
later processes load the cached library.

The library is cached in ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``), a directory private to the user (mode 0700).  Its
file name is a hash of the source, the flags and ``cc --version``, so a
changed source or compiler builds a new library instead of loading a
stale one.  The compiler writes to a temporary name that is published
with :func:`os.replace`, so concurrent workers never load a half-written
file.

When there is no compiler or the compile fails, :func:`load` warns once
and the block API keeps mapping the per-design Python kernels over the
rows: the same results, only slower.  The ``kernel_backend_native``
gauge reads 1 when the compiled kernels run and 0 when they do not.

This module stays outside the kernels package: building and loading do
I/O, and the kernels call none of it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import threading
import warnings
from pathlib import Path
from typing import Optional

from .kernels import batch
from .obs import set_gauge

#: The C source, shipped as package data next to the Python kernels.
SOURCE = Path(__file__).resolve().parent / "kernels" / "native.c"

COMPILER = "cc"

FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Seconds a compiler call may take before the backend gives up on it.
_COMPILE_TIMEOUT_S = 120

_lock = threading.Lock()
_resolved = False
_library: Optional[ctypes.CDLL] = None

_P = ctypes.c_void_p
_N = ctypes.c_int64
_PROTOTYPES = {
    "battery_rows": (None, [_N, _N] + [_P] * 12),
    "schedule_rows": (None, [_N, _N] + [_P] * 9),
    "combined_rows": (ctypes.c_int, [_N, _N] + [_P] * 11 + [_N] + [_P] * 5),
}


class _Unavailable(Exception):
    """Why the compiled kernels cannot be used in this process."""


def cache_dir() -> Path:
    """Directory of the compiled libraries."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


def _private_dir(path: Path) -> None:
    """Create ``path`` as a 0700 directory owned by this user."""
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    status = path.stat()
    if status.st_uid != os.getuid():
        raise _Unavailable(f"cache directory {path} belongs to another user")
    if status.st_mode & 0o077:
        os.chmod(path, 0o700)


def _run(argv) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(
            argv, capture_output=True, text=True, timeout=_COMPILE_TIMEOUT_S
        )
    except (OSError, subprocess.SubprocessError) as exc:
        raise _Unavailable(f"{argv[0]} could not run: {exc}") from exc


def _compile(compiler: str, target: Path) -> None:
    """Compile the source into ``target``, published atomically."""
    partial = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        done = _run([compiler, *FLAGS, "-o", str(partial), str(SOURCE)])
        if done.returncode != 0:
            detail = (done.stderr or done.stdout).strip().splitlines()[-3:]
            raise _Unavailable(
                f"{COMPILER} exited with {done.returncode}: " + " | ".join(detail)
            )
        os.replace(partial, target)
    finally:
        if partial.exists():
            partial.unlink()


def _build() -> ctypes.CDLL:
    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise _Unavailable(f"no C compiler ({COMPILER}) on PATH")
    version = _run([compiler, "--version"]).stdout
    key = hashlib.sha256()
    key.update(SOURCE.read_bytes())
    key.update("\0".join(FLAGS).encode())
    key.update(version.encode())
    directory = cache_dir()
    _private_dir(directory)
    target = directory / f"kernels-{key.hexdigest()[:24]}.so"
    if not target.exists():
        _compile(compiler, target)
    library = ctypes.CDLL(str(target))
    for name, (restype, argtypes) in _PROTOTYPES.items():
        function = getattr(library, name)
        function.restype = restype
        function.argtypes = argtypes
    return library


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernels, built and installed on first call.

    Returns ``None`` (after one warning per process) when they cannot be
    built or loaded; the block API then runs the Python kernels.
    """
    global _resolved, _library
    if not _resolved:
        with _lock:
            if not _resolved:
                try:
                    _library = _build()
                except (_Unavailable, OSError, AttributeError) as exc:
                    _library = None
                    warnings.warn(
                        f"native kernels unavailable ({exc}); "
                        "running the Python kernels",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                batch.use_native(_library)
                _resolved = True
    set_gauge("kernel_backend_native", 0.0 if _library is None else 1.0)
    return _library
