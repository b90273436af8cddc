"""Per-geometry compiled solver kernels.

A matrix-free, grid-level PCG loop is dominated by Python-level overhead:
``apply_laplacian`` allocates ~10 full-grid temporaries per call and
recomputes the neighbour-degree field every time, the MIC(0) wavefront sweeps
issue ~2·(H+W) tiny NumPy calls per preconditioner application, and every CG
iteration pays repeated ``r[fluid]`` boolean fancy-indexing allocations.

:class:`GeometryKernels` compiles, once per solid mask, everything that
depends only on the geometry:

* the flat fluid-cell ordering (row-major, identical to ``field[fluid]``),
  with ``gather``/``scatter`` maps between grid fields and flat vectors;
* the cached neighbour-degree field (shared with ``apply_laplacian``);
* a fluid-only CSR Laplacian whose matvec is bit-for-bit identical to
  ``apply_laplacian`` (same per-row accumulation order: down, up, right,
  left, diagonal);
* lazily, the MIC(0) factor as sparse unit-diagonal triangular matrices
  (:class:`MICTriangularFactor`) whose two sweeps run in one call of a
  small C kernel (``mic0.c``) instead of one Python call per anti-diagonal.

Bit-for-bit equivalence with the grid-level loop is a design requirement,
not an accident: CSR matvec accumulates each row's products in storage order
starting from 0.0, and the triangular sweeps subtract each row's
contributions sequentially in ascending column order — both exactly mirror
the grid-level recurrences, so :class:`~repro.fluid.PCGSolver` produces the
same iterates, residual history and pressure as that loop, which the test
suite keeps as its oracle.

The C kernel is compiled on the first MIC(0) apply of a process (never at
import) with ``cc -O2 -ffp-contract=off -fPIC -shared`` into
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), under a name keyed
by the SHA-256 of its source, flags and machine architecture, so a machine
compiles it once and later processes only load it.  The directory and the
library must belong to the user and be writable by no one else, or they are
not loaded.  Without a working ``cc``, or with such a cache, it logs one
warning and the sweeps run in SciPy's SuperLU triangular solves, which
subtract in the same order and return the same bits.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from repro.metrics import get_metrics

from .laplacian import stencil_arrays

try:  # pragma: no cover - exercised via the fallback test
    from scipy.sparse.linalg._dsolve import _superlu
except ImportError:  # pragma: no cover
    _superlu = None

__all__ = ["GeometryKernels", "MICTriangularFactor"]

_log = logging.getLogger(__name__)

MIC0_SOURCE = Path(__file__).with_name("mic0.c")
#: no contraction into fused multiply-adds: every product rounds before its
#: subtraction, as in SuperLU, which keeps the sweep bitwise equal to it
MIC0_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

#: the loaded ``mic0_apply``; None before the first MIC(0) apply of the
#: process, False once loading failed (the SuperLU path then runs)
_mic0 = None


def _check_private(path: Path) -> None:
    """Raise OSError unless this user owns ``path`` and no one else may write it.

    A library another user could write (or plant) would run as native code
    in this process, so such a cache entry is refused, and the refusal
    routes to the SuperLU path like any other load failure.
    """
    st = path.stat()
    if st.st_uid != os.getuid() or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise OSError(
            f"{path} is not private (owner uid {st.st_uid}, mode {stat.S_IMODE(st.st_mode):o})"
        )


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(base) / "repro"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)  # the mode applies only if new
    _check_private(path)
    return path


def _compile_mic0(lib: Path) -> None:
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler (cc) on PATH")
    # a private temp file renamed into place: a concurrent process loads
    # either no file or a whole one
    fd, tmp = tempfile.mkstemp(prefix=f".{lib.name}.", dir=lib.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *MIC0_CFLAGS, "-o", tmp, str(MIC0_SOURCE)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode:
            raise OSError(f"cc exited {proc.returncode}: {proc.stderr.strip()}")
        os.chmod(tmp, 0o700)  # the linker's mode follows the umask
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_mic0():
    """Load ``mic0_apply``, compiling ``mic0.c`` first unless it is cached."""
    with get_metrics().span("kernels/mic0") as span:
        # a cache shared by machines of two architectures keeps one library each
        key = hashlib.sha256(
            MIC0_SOURCE.read_bytes() + " ".join(MIC0_CFLAGS).encode() + platform.machine().encode()
        )
        lib = _cache_dir() / f"mic0-{key.hexdigest()[:16]}.so"
        compiled = not lib.exists()
        if compiled:
            _compile_mic0(lib)
        _check_private(lib)
        fn = ctypes.CDLL(str(lib)).mic0_apply
        if span is not None:
            span.attrs["compiled"] = compiled
    fn.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 9
    fn.restype = None
    return fn


def _native_mic0():
    """The compiled sweep, loading it on first use; None when unavailable.

    Unlocked on purpose: two threads racing here both load the same cached
    library (or both compile it, each into its own temp file), and no lock
    can be left held in a child forked meanwhile.
    """
    global _mic0
    if _mic0 is None:
        try:
            _mic0 = _load_mic0()
        except (OSError, AttributeError, subprocess.SubprocessError) as exc:
            # no compiler, a failed compile or load, or a missing symbol:
            # the SuperLU path computes the same bits
            _log.warning("MIC(0) C sweep unavailable, using SuperLU: %s", exc)
            _mic0 = False
    return _mic0 or None


def _intc(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.intc)


class GeometryKernels:
    """Geometry-compiled artefacts for flat fluid-cell solver loops.

    Attributes
    ----------
    n:
        Number of fluid cells (flat vector length).
    ys, xs:
        Row-major fluid-cell coordinates; ``gather``/``scatter`` use them, so
        flat ordering matches boolean extraction ``field[~solid]`` exactly.
    fluid_index:
        (ny, nx) int map from cell to flat index; -1 on solids.
    degree:
        Grid-shaped non-solid-neighbour count (0 on solids) — the geometry
        term ``apply_laplacian`` otherwise recomputes every call.
    laplacian:
        (n, n) CSR matrix of the 5-point Poisson operator over fluid cells.
    """

    def __init__(self, solid: np.ndarray):
        with get_metrics().span("kernels/build") as sp:
            self._build(solid)
            if sp is not None:
                sp.attrs["cells"] = self.n

    def _build(self, solid: np.ndarray) -> None:
        self.solid = np.ascontiguousarray(solid, dtype=bool)
        self.shape = self.solid.shape
        fluid = ~self.solid
        self.degree, self.aplusx, self.aplusy = stencil_arrays(self.solid)
        ys, xs = np.nonzero(fluid)
        self.ys, self.xs = ys, xs
        self.n = int(ys.size)
        ny, nx = self.shape
        self.fluid_index = np.full((ny, nx), -1, dtype=np.int64)
        self.fluid_index[ys, xs] = np.arange(self.n)

        # padded index map: out-of-domain neighbours resolve to -1 like solids
        fi = np.full((ny + 2, nx + 2), -1, dtype=np.int64)
        fi[1:-1, 1:-1] = self.fluid_index
        down = fi[ys + 2, xs + 1]  # (y+1, x)
        up = fi[ys, xs + 1]  # (y-1, x)
        right = fi[ys + 1, xs + 2]  # (y, x+1)
        left = fi[ys + 1, xs]  # (y, x-1)
        diag = np.arange(self.n, dtype=np.int64)

        # Per-row entry order mirrors apply_laplacian's accumulation order
        # (down, up, right, left, then the diagonal term); CSR matvec sums in
        # storage order, which makes A @ v bitwise equal to the dense path.
        cols = np.stack([down, up, right, left, diag], axis=1)
        vals = np.empty((self.n, 5), dtype=np.float64)
        vals[:, :4] = -1.0
        vals[:, 4] = self.degree[ys, xs]
        keep = cols >= 0
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        self.laplacian = sp.csr_matrix(
            (vals[keep], cols[keep], indptr), shape=(self.n, self.n)
        )

        self._mic_factor: MICTriangularFactor | None = None
        self._mic_factor_src: object | None = None

    def gather(self, field: np.ndarray) -> np.ndarray:
        """Grid field -> flat fluid vector (row-major, == ``field[fluid]``)."""
        return field[self.ys, self.xs]

    def scatter(self, vec: np.ndarray, dtype=np.float64) -> np.ndarray:
        """Flat fluid vector -> dense grid with zeros on solids."""
        out = np.zeros(self.shape, dtype=dtype)
        out[self.ys, self.xs] = vec
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``A @ v`` on flat fluid vectors (bitwise == ``apply_laplacian``)."""
        return self.laplacian @ v

    def mic_factor(self, mic) -> "MICTriangularFactor":
        """Sparse triangular factor of a :class:`MIC0Preconditioner`, memoised.

        One factor per preconditioner instance: the kernels object is already
        per-geometry, and so is the cached preconditioner, so this is a
        single-slot memo that rebuilds only if a different ``mic`` arrives
        (e.g. different tuning constants).
        """
        if self._mic_factor is None or self._mic_factor_src is not mic:
            self._mic_factor = MICTriangularFactor(self, mic)
            self._mic_factor_src = mic
        return self._mic_factor


class MICTriangularFactor:
    """MIC(0) preconditioner as sparse unit-diagonal triangular solves.

    Rewrites ``z = M^{-1} r`` as

        ``L t = r``  (unit lower),  ``q = t * precon``,
        ``U s = q``  (unit upper),  ``z = s * precon``,

    using the coefficient grids precomputed by
    :class:`~repro.fluid.pcg.MIC0Preconditioner` (``_cl``/``_cb`` scale the
    left/below couplings of the forward sweep, ``_cr``/``_ca`` the
    right/above couplings of the backward sweep).  ``lower`` and ``upper``
    hold the strict triangles as CSR, each row's entries in ascending
    column order — below then left, right then above — which is exactly
    the order the grid-level wavefront recurrence subtracts them in, so the
    sweeps are bit-for-bit equal to :meth:`MIC0Preconditioner.apply`.

    :meth:`apply` runs all four steps in one call of the C kernel
    ``mic0_apply``; each call writes only its own output vector, so one
    factor may be applied from several threads at once.  Where the kernel
    cannot be built, the sweeps call SuperLU's ``gstrs`` directly with
    unit-diagonal CSC operands (the public
    :func:`~scipy.sparse.linalg.spsolve_triangular` wrapper pays a copy +
    ``setdiag`` + empty-matrix construction per call), or that wrapper when
    the private SuperLU module is unavailable; all three paths return
    identical bits.
    """

    def __init__(self, kern: GeometryKernels, mic):
        ys, xs, n = kern.ys, kern.xs, kern.n
        self.n = n
        self.precon_flat = mic.precon[ys, xs]

        ny, nx = kern.shape
        fi = np.full((ny + 2, nx + 2), -1, dtype=np.int64)
        fi[1:-1, 1:-1] = kern.fluid_index
        below = fi[ys, xs + 1]  # (y-1, x)
        left = fi[ys + 1, xs]  # (y, x-1)
        right = fi[ys + 1, xs + 2]  # (y, x+1)
        above = fi[ys + 2, xs + 1]  # (y+1, x)

        # forward-sweep coefficients live on the *neighbour* cell
        cb = mic._cb[ys - 1, xs] if n else np.zeros(0)
        cl = mic._cl[ys, xs - 1] if n else np.zeros(0)
        self.lower = self._assemble(n, [(below, cb), (left, cl)])
        # backward-sweep coefficients live on the cell itself
        cr = mic._cr[ys, xs] if n else np.zeros(0)
        ca = mic._ca[ys, xs] if n else np.zeros(0)
        self.upper = self._assemble(n, [(right, cr), (above, ca)])

        # the kernel's operands in the dtypes mic0.c declares, kept alive
        # here: their addresses are passed on every call
        lo, up = self.lower, self.upper
        self._native = [
            np.ascontiguousarray(a, dtype=dt)
            for a, dt in (
                (lo.indptr, np.int64), (lo.indices, np.int64), (lo.data, np.float64),
                (up.indptr, np.int64), (up.indices, np.int64), (up.data, np.float64),
                (self.precon_flat, np.float64),
            )
        ]
        self._native_ptrs = tuple(a.ctypes.data for a in self._native)
        self._superlu_ops = None

    @staticmethod
    def _assemble(n: int, slots) -> sp.csr_matrix:
        """CSR with per-row entries in the given slot order (missing = -1)."""
        cols = np.stack([c for c, _ in slots], axis=1) if n else np.zeros((0, len(slots)), dtype=np.int64)
        vals = np.stack([v for _, v in slots], axis=1) if n else np.zeros((0, len(slots)))
        keep = cols >= 0
        indptr = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum(keep.sum(axis=1), out=indptr[1:])
        return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(n, n))

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Apply the preconditioner to a flat fluid vector."""
        if self.n == 0:
            return np.zeros_like(r)
        mic0 = _native_mic0()
        if mic0 is None:
            return self._apply_superlu(r)
        r = np.ascontiguousarray(r, dtype=np.float64)
        if r.shape != (self.n,):
            raise ValueError(f"expected a flat vector of {self.n} cells, got shape {r.shape}")
        z = np.empty(self.n)
        mic0(self.n, *self._native_ptrs, r.ctypes.data, z.ctypes.data)
        return z

    # -- SuperLU path, where the C kernel is unavailable ------------------
    def _superlu_operands(self):
        """Unit-diagonal factors and their prebuilt ``gstrs`` operands."""
        if self._superlu_ops is None:
            eye = sp.identity(self.n, format="csr")
            # canonical sums: the diagonal lands after a lower row's entries
            # and before an upper row's, keeping ascending column order
            lower = (self.lower + eye).tocsr()
            upper = (self.upper + eye).tocsr()
            # lower as canonical CSC; upper's CSR buffers reinterpreted as
            # the CSC of its transpose (solved with trans="T") — the exact
            # plumbing of the scipy wrapper.
            lower_csc = sp.csc_matrix(lower)
            empty = sp.csc_matrix((self.n, self.n), dtype=np.float64)
            self._superlu_ops = (
                lower,
                upper,
                (lower_csc.nnz, lower_csc.data, _intc(lower_csc.indices), _intc(lower_csc.indptr)),
                (upper.nnz, upper.data, _intc(upper.indices), _intc(upper.indptr)),
                (0, empty.data, _intc(empty.indices), _intc(empty.indptr)),
            )
        return self._superlu_ops

    def _apply_superlu(self, r: np.ndarray) -> np.ndarray:
        lower, upper, l_args, u_args, e_args = self._superlu_operands()
        if _superlu is None:
            t = spsolve_triangular(lower, r, lower=True, unit_diagonal=True)
            q = t * self.precon_flat
            s = spsolve_triangular(upper, q, lower=False, unit_diagonal=True)
            return s * self.precon_flat
        t, info = _superlu.gstrs("N", self.n, *l_args, self.n, *e_args, r.copy())
        if info:  # pragma: no cover - factor is unit-diagonal by construction
            raise RuntimeError("MIC(0) lower solve failed")
        q = t * self.precon_flat
        s, info = _superlu.gstrs("T", self.n, *u_args, self.n, *e_args, q)
        if info:  # pragma: no cover
            raise RuntimeError("MIC(0) upper solve failed")
        return s * self.precon_flat
