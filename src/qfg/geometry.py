"""Kahler machinery on the state manifold: metric and symplectic pairings.

For tangent generators K, K' at a density rho the compatible pair is

    g     = (1/2) Tr[rho {K, K'}]        (Fubini-Study type metric)
    omega = -(i/2) Tr[rho [K, K']]       (KKS symplectic form)

and on pure states with K built from orthogonal displacement vectors chi,
chi' this equals (Re<chi|chi'>, Im<chi|chi'>).

Coordinate versions on the sphere use the orientation convention
dz ^ dz* evaluated on the ordered pair (v, v') as (v v'* - v* v') / 2i,
which makes omega negative on (v, v') = (1, i). All proportionality
constants quoted in docstrings follow this convention and are pinned at the
reference point z = 0 with the chi := 0 gauge.

The matrix-tangent operations (complex structure J, G_KKS) act on
reference-frame tangents X0(v) = (k1-k2) [[0, v* lam*], [v lam, 0]] paired
with the reference density diag(k1, k2); equivariance extends them to any
point of the orbit.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    NotNormalized,
    NotOrthogonal,
    NotTangentForm,
    finite_closed_form,
)
from .fisher import _sphere_tensor, fisher_tensor_stack
from .linalg import DensityOp, as_matrix, congruence, dagger, require_hermitian
from .states import PureState, require_mixing_weight, unitary_of_z


class KahlerPair(NamedTuple):
    g: float
    omega: float


def k_generator(psi, chi) -> tuple[np.ndarray, np.ndarray]:
    """Tangent generator pair for a pure state and an orthogonal displacement.

    K = i(|chi><psi| - |psi><chi|), X = |chi><psi| + |psi><chi| with
    X = -i [K, |psi><psi|]. ``chi`` may have any norm (including zero).
    """
    if isinstance(psi, PureState):
        psi = psi.amplitudes
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    chi = np.asarray(chi, dtype=complex).reshape(-1)
    if psi.shape != chi.shape:
        raise DimensionMismatch(f"psi and chi dimensions differ: {psi.shape} vs {chi.shape}")
    overlap = complex(np.vdot(psi, chi))
    if abs(overlap) > 1e-10:
        raise NotOrthogonal(f"<psi|chi> = {overlap!r} exceeds 1e-10")
    cross = np.outer(chi, psi.conj())
    k = 1j * (cross - cross.conj().T)
    x = cross + cross.conj().T
    return k, x


def fs_kks_at(rho: DensityOp, k1, k2) -> KahlerPair:
    """Metric and symplectic pairing of two Hermitian generators at rho.

    Both are one complex number, Tr[rho K1 K2], the Fisher-tensor pairing
    (``fisher.fisher_tensor_stack``) of the two generators: its real part is
    g = (1/2) Tr[rho {K1, K2}] and its imaginary part omega = -(i/2) Tr[rho [K1, K2]].
    """
    k1 = require_hermitian(k1)
    k2 = require_hermitian(k2)
    if k1.shape != k2.shape or k1.shape[0] != rho.dim:
        raise DimensionMismatch("generator dimensions must match rho")
    value = fisher_tensor_stack(rho.stack, np.array([[k1, k2]]))[0, 0, 1]
    return KahlerPair(value.real, value.imag)


@finite_closed_form
def coordinate_forms(z: complex, v: complex, v2: complex) -> KahlerPair:
    """Sphere metric and symplectic form in the stereographic chart: the k = 0 row of the Fisher tensor.

    g = 4 Re(v* v2) / (1+|z|^2)^2, omega = -4 Im(v* v2) / (1+|z|^2)^2.
    """
    value = _sphere_tensor(0.0, z, v, v2)
    return KahlerPair(value.real, value.imag)


@finite_closed_form
def connection_coefficient(z: complex) -> complex:
    """Chart coefficient lambda = e^{-2i chi} / (1 + |z|^2), with chi := 0 at z = 0."""
    z = complex(z)
    chi = cmath.phase(z) if z != 0 else 0.0
    return cmath.exp(-2j * chi) / (1.0 + abs(z) ** 2)


@finite_closed_form
def sphere_tangent_matrix(k: float, z: complex, v: complex) -> np.ndarray:
    """Reference-frame matrix tangent (k1-k2) [[0, v* lam*], [v lam, 0]]."""
    require_mixing_weight(k)
    lv = connection_coefficient.__wrapped__(z) * complex(v)
    return (2.0 * k - 1.0) * np.array([[0.0, lv.conjugate()], [lv, 0.0]], dtype=complex)


@finite_closed_form
def sphere_generator(z: complex, v: complex) -> np.ndarray:
    """Hermitian K with -i[K, rho(k, z)] equal to the sphere drho of velocity v at z, for every k.

    K = U(z) K0 U(z)^dag with K0 = i [[0, -(v lam)*], [v lam, 0]].
    """
    lv = connection_coefficient.__wrapped__(z) * complex(v)
    u = unitary_of_z.__wrapped__(z)
    return congruence(dagger(u), 1j * np.array([[0.0, -lv.conjugate()], [lv, 0.0]], dtype=complex))


def complex_structure(xt) -> np.ndarray:
    """Complex structure J on reference-frame sphere tangents: X0(v) -> X0(iv)."""
    xt = as_matrix(xt)
    if xt.shape != (2, 2):
        raise NotTangentForm("sphere tangents are 2x2 matrices")
    if max(abs(xt[0, 0]), abs(xt[1, 1])) > 1e-12:
        raise NotTangentForm("tangent-form matrices have vanishing diagonal")
    return np.array([[0.0, -1j * xt[0, 1]], [1j * xt[1, 0], 0.0]], dtype=complex)


def g_kks(rho: DensityOp, xt1, xt2) -> float:
    """Compatible metric Omega_KKS(X1, J X2) on reference-frame tangents.

    With rho the reference density diag(k1, k2) and tangents built by
    sphere_tangent_matrix this equals (k1-k2)^3 |lam|^2 Re(v* v2).
    """
    return fs_kks_at(rho, as_matrix(xt1), complex_structure(xt2)).omega


def reference_density(k: float) -> DensityOp:
    """Reference point diag(k, 1-k) of the co-adjoint orbit."""
    require_mixing_weight(k)
    return DensityOp(np.diag([k, 1.0 - k]).astype(complex))


@finite_closed_form
def round_s3_metric(psi: float, theta: float, phi: float, t1, t2) -> float:
    """Round metric on the unit 3-sphere in (Psi, theta, phi) coordinates.

    Evaluates dPsi1 dPsi2 + sin^2 Psi (dtheta1 dtheta2 + sin^2 theta dphi1 dphi2)
    on two chart velocities t = (dPsi, dtheta, dphi).
    """
    if not (0.0 <= psi < math.pi / 2):
        raise DomainError(f"Psi={psi!r} outside [0, pi/2)")
    if not (0.0 <= theta <= math.pi):
        raise DomainError(f"theta={theta!r} outside [0, pi]")
    if not (0.0 <= phi < 2 * math.pi):
        raise DomainError(f"phi={phi!r} outside [0, 2 pi)")
    dpsi1, dth1, dph1 = t1
    dpsi2, dth2, dph2 = t2
    sp2 = math.sin(psi) ** 2
    return dpsi1 * dpsi2 + sp2 * (dth1 * dth2 + math.sin(theta) ** 2 * dph1 * dph2)


def hermitian_form_pullback(psi, dpsi1, dpsi2) -> complex:
    """Hermitian structure pulled back to the Hilbert space along two velocities.

    h = <dpsi1|dpsi2>/<psi|psi> - <dpsi1|psi><psi|dpsi2>/<psi|psi>^2; its real
    and imaginary parts are the metric and symplectic pairings of the
    projected displacements.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    d1 = np.asarray(dpsi1, dtype=complex).reshape(-1)
    d2 = np.asarray(dpsi2, dtype=complex).reshape(-1)
    norm2 = float(np.vdot(psi, psi).real)
    if not norm2 > 0.0:
        raise NotNormalized("psi must be a nonzero vector")
    return complex(np.vdot(d1, d2)) / norm2 - complex(np.vdot(d1, psi) * np.vdot(psi, d2)) / norm2**2
