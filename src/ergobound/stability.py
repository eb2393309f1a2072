"""Schur stability verdicts.

The Schur-form oracle handles arbitrary matrices; for companion matrices of
low order the closed-form region classification (diamond/wing for p = 2)
and the classical sufficient coefficient tests are available as cheap,
root-free checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, schur_triangularize

__all__ = [
    "StabilityVerdict",
    "is_schur_stable",
    "ar2_region",
    "sufficient_tests",
]

# Arccos arguments are clamped into [-1, 1] by this much to absorb rounding
# at region edges.
CLAMP_TOL = 1e-12


def _check_boundary_tol(boundary_tol: float) -> None:
    """A boundary tolerance must be nonnegative and finite (a NaN would make every verdict
    unstable)."""
    if not 0.0 <= boundary_tol < math.inf:
        raise ValueError(f"boundary_tol must be nonnegative and finite, got {boundary_tol}")


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a stability check.

    ``boundary`` flags spectral radii within ``boundary_tol`` of one, where
    the bound formulas diverge and the verdict is not trustworthy.
    """

    stable: bool
    spectral_radius: float
    margin: float
    boundary: bool = False


def is_schur_stable(Q, boundary_tol: float = 1e-9) -> StabilityVerdict:
    """Verdict: stable iff ``rho(Q) < 1 - boundary_tol``, ``rho`` read from the Schur form's
    diagonal, as ``validate_model`` and the star norm read it."""
    return _verdict(schur_triangularize(as_matrix(Q, name="Q")).spectral_radius, boundary_tol)


def _verdict(rho: float, boundary_tol: float) -> StabilityVerdict:
    """The verdict for the spectral radius ``rho``."""
    _check_boundary_tol(boundary_tol)
    return StabilityVerdict(
        stable=bool(rho < 1.0 - boundary_tol),
        spectral_radius=float(rho),
        margin=float(1.0 - rho),
        boundary=bool(abs(rho - 1.0) <= boundary_tol),
    )


def _ar2_radius(phi1: float, phi2: float) -> float:
    disc = complex(phi1 * phi1 + 4.0 * phi2)
    root = np.sqrt(disc)
    return max(abs((phi1 + root) / 2.0), abs((phi1 - root) / 2.0))


def ar2_region(phi1: float, phi2: float, boundary_tol: float = 1e-9) -> str:
    """Classify AR(2) coefficients into the closed-form stability regions.

    Returns ``"diamond"`` when ``|phi1| + |phi2| < 1``, ``"wing"`` when the
    four-part arccos criterion holds, ``"unstable"`` otherwise, and
    ``"boundary"`` when the root modulus is within ``boundary_tol`` of one.
    The two stable regions are disjoint by construction and together cover
    the stability triangle up to its measure-zero edges.
    """
    _check_boundary_tol(boundary_tol)
    a1, a2 = abs(phi1), abs(phi2)
    if abs(_ar2_radius(phi1, phi2) - 1.0) <= boundary_tol:
        return "boundary"
    if a1 + a2 < 1.0:
        return "diamond"
    if a1 > 0.0 and a2 > 0.0 and phi1 * phi1 * phi2 < 0.0 and a1 - 1.0 < a2 < 1.0:
        arg1 = min(1.0 + CLAMP_TOL, max(-1.0 - CLAMP_TOL, (1.0 + phi1**2 - phi2**2) / (2.0 * a1)))
        arg2 = min(1.0 + CLAMP_TOL, max(-1.0 - CLAMP_TOL, (1.0 - phi1**2 + phi2**2) / (2.0 * a2)))
        angle_sum = 2.0 * math.acos(min(1.0, max(-1.0, arg1))) + math.acos(
            min(1.0, max(-1.0, arg2))
        )
        if angle_sum < math.pi:
            return "wing"
    return "unstable"


def sufficient_tests(phi) -> set[str]:
    """Coefficient-only sufficient conditions for Schur stability.

    Raised flags (each implies stability of the companion matrix):

    - ``enestrom_kakeya``: ``-1 < phi_1 < phi_2 < ... < phi_p < 0``
    - ``cohn``: ``sum |phi_j| < 1``
    - ``p3_sufficient``: p = 3 and
      ``|phi1 + phi2 phi3| + |phi2 + phi1 phi3| < 1 - phi3**2``
    - ``p4_sufficient``: p = 4, ``phi2 = 0`` and
      ``|phi1 + phi3 phi4| + |phi3 + phi1 phi4| < 1 - phi4**2``
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    flags: set[str] = set()
    if phi.size == 0:
        return flags
    if phi[0] > -1.0 and phi[-1] < 0.0 and np.all(np.diff(phi) > 0.0):
        flags.add("enestrom_kakeya")
    if np.abs(phi).sum() < 1.0:
        flags.add("cohn")
    if phi.size == 3:
        p1, p2, p3 = phi
        if abs(p1 + p2 * p3) + abs(p2 + p1 * p3) < 1.0 - p3 * p3:
            flags.add("p3_sufficient")
    if phi.size == 4 and phi[1] == 0.0:
        p1, _, p3, p4 = phi
        if abs(p1 + p3 * p4) + abs(p3 + p1 * p4) < 1.0 - p4 * p4:
            flags.add("p4_sufficient")
    return flags
