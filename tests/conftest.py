"""Shared helpers: random set instances of every variant through a common
point, concrete shifted/scaled counterparts for the projector identities, and
a child interpreter on another BLAS kernel."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aamr import (AffineSubspace, Ball, Box, Diagonal, Halfspace, Hyperplane,
                  LinearSubspace, ProductSet, Translate, combettes_beta)

VARIANTS = ("ball", "box", "halfspace", "hyperplane", "subspace", "affine",
            "translate")


def make_variant(kind, rng, n, point):
    """A random set of the given kind that contains ``point``."""
    p = np.asarray(point, dtype=float)
    if kind == "ball":
        center = p + 0.4 * rng.standard_normal(n)
        radius = float(np.linalg.norm(center - p)) + rng.uniform(0.3, 1.5)
        return Ball(center, radius)
    if kind == "box":
        return Box(p - rng.uniform(0.3, 1.5, n), p + rng.uniform(0.3, 1.5, n))
    if kind == "halfspace":
        a = rng.standard_normal(n)
        return Halfspace(a, float(a @ p) + rng.uniform(0.2, 1.0))
    if kind == "hyperplane":
        a = rng.standard_normal(n)
        return Hyperplane(a, float(a @ p))
    if kind == "subspace":
        cols = [rng.standard_normal(n) for _ in range(max(1, n // 2))]
        if np.linalg.norm(p) > 0:
            cols.insert(0, p)
        return LinearSubspace(np.stack(cols, axis=1))
    if kind == "affine":
        d = max(1, n // 2)
        return AffineSubspace(p, rng.standard_normal((n, d)))
    if kind == "translate":
        shift = rng.standard_normal(n)
        inner = make_variant("ball", rng, n, p + shift)
        return Translate(inner, shift)
    raise ValueError(kind)


def shifted_set(s, y):
    """The concrete set ``y + s`` built variant by variant."""
    y = np.asarray(y, dtype=float)
    if isinstance(s, Ball):
        return Ball(s.center + y, s.radius)
    if isinstance(s, Box):
        return Box(s.lower + y, s.upper + y)
    if isinstance(s, Halfspace):
        return Halfspace(s.normal, s.offset + float(s.normal @ y))
    if isinstance(s, Hyperplane):
        return Hyperplane(s.normal, s.offset + float(s.normal @ y))
    if isinstance(s, LinearSubspace):
        return AffineSubspace(y, s.basis)
    if isinstance(s, AffineSubspace):
        return AffineSubspace(s.offset + y, s.direction.basis)
    if isinstance(s, Translate):
        return Translate(s.inner, s.shift - y)
    raise TypeError(type(s))


def scaled_set(s, lam):
    """The concrete set ``lam * s`` (lam != 0) built variant by variant."""
    if isinstance(s, Ball):
        return Ball(lam * s.center, abs(lam) * s.radius)
    if isinstance(s, Box):
        lo, hi = lam * s.lower, lam * s.upper
        return Box(np.minimum(lo, hi), np.maximum(lo, hi))
    if isinstance(s, Halfspace):
        if lam > 0:
            return Halfspace(s.normal, lam * s.offset)
        return Halfspace(-s.normal, -lam * s.offset)
    if isinstance(s, Hyperplane):
        return Hyperplane(s.normal, lam * s.offset)
    if isinstance(s, LinearSubspace):
        return LinearSubspace(s.basis)
    if isinstance(s, AffineSubspace):
        return AffineSubspace(lam * s.offset, s.direction.basis)
    if isinstance(s, Translate):
        return Translate(scaled_set(s.inner, lam), lam * s.shift)
    raise TypeError(type(s))


def cm_recast(sets, q, gamma=0.25, lam=1.8):
    """Reference form of ``cm_recurrence``'s update for a constant ``lam``:
    the modified reflector of strength beta = 1/(1 + gamma) acting on the
    scaled-and-shifted product set (1/beta)C - ((1-beta)/beta) q.  Returns
    the map ``z -> z_next``; its trajectory must coincide with the direct
    form's."""
    sets = list(sets)
    n, r = sets[0].dim, len(sets)
    beta = combettes_beta(gamma)
    q_lift = np.tile(np.asarray(q, dtype=float), r)
    shift = ((1.0 - beta) / beta) * q_lift
    product, diag = ProductSet(sets), Diagonal(r, n)
    a = lam / 2.0

    def step(z):
        # P over (1/beta)C - shift, via the dilation and translation rules
        u = 2.0 * beta * (product.project(beta * (z + shift)) / beta - shift) - z
        return ((1.0 - a) * z + a * (2.0 * diag.project(u) - u)
                + 2.0 * a * (1.0 - beta) * q_lift)

    return step


ROOT = Path(__file__).resolve().parent.parent
# OPENBLAS_CORETYPE values, each with the core name numpy's OpenBLAS then
# reports (it runs Prescott on its Katmai kernel)
BLAS_KERNELS = {"Haswell": "Haswell", "Prescott": "Katmai"}
_OTHER_KERNEL = 77  # the child's exit code when it runs another kernel


def run_on_blas_kernel(coretype, code, timeout=300):
    """Run the Python source ``code`` in a child interpreter whose numpy
    OpenBLAS is forced onto ``coretype`` (a ``BLAS_KERNELS`` key) by
    ``OPENBLAS_CORETYPE``, set in the child's environment only, with
    ``src/`` and ``tests/`` on its path; returns the completed process, its
    output as text.  Skips, saying why, where numpy's BLAS exports no
    ``scipy_openblas_get_corename64_`` or the child reports another core
    (an ARM CPU, a system OpenBLAS)."""
    expected = BLAS_KERNELS[coretype]
    prelude = f"""import ctypes, sys
from aamr import geometry
corename = getattr(geometry._numpy_blas(), "scipy_openblas_get_corename64_", None)
if corename is None:
    print("numpy's BLAS exports no scipy_openblas_get_corename64_")
    sys.exit({_OTHER_KERNEL})
corename.restype = ctypes.c_char_p
if corename().decode() != {expected!r}:
    print("OPENBLAS_CORETYPE={coretype} runs the " + corename().decode()
          + " kernel, not {expected}")
    sys.exit({_OTHER_KERNEL})
"""
    path = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", prelude + code], env=env,
                         capture_output=True, text=True, timeout=timeout)
    if run.returncode == _OTHER_KERNEL:
        pytest.skip(run.stdout.strip())
    return run
