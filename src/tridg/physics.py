"""Conservation-law models: linear advection, Burgers, compressible Euler.

All state arguments are arrays whose last axis holds the d components; flux
returns shape (..., 2, d) and normal_flux the projection F(u) . n, shape
(..., d). Directional wavespeeds bound the spectral radius of the flux
Jacobian projected on a unit normal.
"""

import numpy as np

from .errors import AdmissibilityError, UnsupportedOperationError


class Model:
    """Base model interface."""

    name = "model"
    n_components = 1
    momentum_components = ()
    # states must keep positive density and internal energy: the residual
    # rejects inadmissible traces and the BP limiter enforces positivity;
    # otherwise BP limiting enforces a scalar interval
    positivity_constrained = False

    def flux(self, u):
        raise NotImplementedError

    def normal_flux(self, u, n):
        """F(u) . n = F_x n1 + F_y n2 for normals n (..., 2): (..., d)."""
        f = self.flux(u)
        n = np.asarray(n, dtype=float)
        return f[..., 0, :] * n[..., 0, None] + f[..., 1, :] * n[..., 1, None]

    def normal_flux_unchecked(self, u, n):
        # volume-quadrature path: no admissibility checks; n need not be a
        # unit vector
        return self.normal_flux(u, n)

    def wavespeed(self, u, n):
        """Bound on |eigenvalues of F'(u) . n| for unit normal n."""
        raise NotImplementedError

    def wavespeed_clamped(self, u, n):
        """Finite wavespeed estimate even for slightly inadmissible states.

        Used for damping-strength estimates in limited runs, where point
        values outside the controlled node set may leave the admissible set.
        """
        return self.wavespeed(u, n)

    def admissible(self, u):
        return np.ones(np.asarray(u).shape[:-1], dtype=bool)

    def rotate_state(self, u, phi):
        raise UnsupportedOperationError(f"{self.name} has no rotation action")

    def reflect(self, u, n):
        """Mirror ghost state at a wall with outward unit normal n."""
        return np.array(u, copy=True)

    def lf_flux(self, u, n, alpha):
        """Lax-Friedrichs flux 0.5 (F(ui).n + F(ue).n - alpha (ue - ui)).

        u is two-sided, (2, ..., d): u[0] the interior and u[1] the exterior
        states; the normal flux is evaluated once over both sides.
        """
        u = np.asarray(u, dtype=float)
        f = self.normal_flux(u, np.asarray(n, dtype=float))
        return 0.5 * (f[0] + f[1] - alpha * (u[1] - u[0]))


def rotate_vector(v, phi):
    """Clockwise coordinate rotation: (v1, v2) -> (c v1 + s v2, -s v1 + c v2)."""
    c, s = np.cos(phi), np.sin(phi)
    v = np.asarray(v, dtype=float)
    return np.stack([c * v[..., 0] + s * v[..., 1],
                     -s * v[..., 0] + c * v[..., 1]], axis=-1)


def _both_directions(f):
    """The flux (..., 2, d) of a law whose x and y fluxes are both f."""
    out = np.empty(f.shape[:-1] + (2,) + f.shape[-1:])
    out[..., 0, :] = f
    out[..., 1, :] = f
    return out


class Advection(Model):
    """u_t + u_x + u_y = 0 (velocity field (1, 1))."""

    name = "advection"
    n_components = 1

    def flux(self, u):
        return _both_directions(np.asarray(u, dtype=float))

    def normal_flux(self, u, n):
        u = np.asarray(u, dtype=float)
        n = np.asarray(n, dtype=float)
        return u * n[..., 0, None] + u * n[..., 1, None]

    def wavespeed(self, u, n):
        n = np.asarray(n, dtype=float)
        speed = np.abs(n[..., 0] + n[..., 1])
        return np.broadcast_to(speed, np.broadcast_shapes(
            np.asarray(u).shape[:-1], speed.shape)).copy()


class Burgers(Model):
    """u_t + (u^2/2)_x + (u^2/2)_y = 0."""

    name = "burgers"
    n_components = 1

    def flux(self, u):
        u = np.asarray(u, dtype=float)
        return _both_directions(0.5 * u * u)

    def wavespeed(self, u, n):
        u = np.asarray(u, dtype=float)
        n = np.asarray(n, dtype=float)
        return np.abs(u[..., 0] * (n[..., 0] + n[..., 1]))


class Euler(Model):
    """2D compressible Euler equations, conservative variables (rho, m1, m2, E)."""

    name = "euler"
    n_components = 4
    momentum_components = (1, 2)
    positivity_constrained = True

    def __init__(self, gamma=1.4):
        self.gamma = float(gamma)

    def internal_energy(self, u):
        """rho * specific internal energy: E - (m1^2 + m2^2) / (2 rho)."""
        u = np.asarray(u, dtype=float)
        rho, m1, m2, E = u[..., 0], u[..., 1], u[..., 2], u[..., 3]
        return E - (m1 * m1 + m2 * m2) / (2.0 * rho)

    def pressure(self, u):
        return (self.gamma - 1.0) * self.internal_energy(u)

    def admissible(self, u):
        u = np.asarray(u, dtype=float)
        rho = u[..., 0]
        ok = rho > 0
        e = np.where(ok, u[..., 3] - (u[..., 1] ** 2 + u[..., 2] ** 2)
                     / (2.0 * np.where(ok, rho, 1.0)), -1.0)
        return ok & (e > 0)

    def flux(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u[..., 0] <= 0):
            raise AdmissibilityError("non-positive density in flux evaluation")
        return self.flux_unchecked(u)

    def _velocity_pressure(self, u):
        rho, m1, m2, E = u[..., 0], u[..., 1], u[..., 2], u[..., 3]
        v1, v2 = m1 / rho, m2 / rho
        p = (self.gamma - 1.0) * (E - 0.5 * (m1 * v1 + m2 * v2))
        return m1, m2, v1, v2, p, E + p

    def flux_unchecked(self, u):
        u = np.asarray(u, dtype=float)
        m1, m2, v1, v2, p, Ep = self._velocity_pressure(u)
        f = np.empty(u.shape[:-1] + (2, 4))
        f[..., 0, 0] = m1
        f[..., 0, 1] = m1 * v1 + p
        f[..., 0, 2] = m2 * v1
        f[..., 0, 3] = Ep * v1
        f[..., 1, 0] = m2
        f[..., 1, 1] = m1 * v2
        f[..., 1, 2] = m2 * v2 + p
        f[..., 1, 3] = Ep * v2
        return f

    def normal_flux(self, u, n):
        u = np.asarray(u, dtype=float)
        if np.any(u[..., 0] <= 0):
            raise AdmissibilityError("non-positive density in flux evaluation")
        return self.normal_flux_unchecked(u, n)

    def normal_flux_unchecked(self, u, n):
        """F_x n1 + F_y n2 from the terms of flux_unchecked, without F."""
        u = np.asarray(u, dtype=float)
        m1, m2, v1, v2, p, Ep = self._velocity_pressure(u)
        n = np.asarray(n, dtype=float)
        n1, n2 = n[..., 0], n[..., 1]
        f = np.empty(np.broadcast_shapes(u.shape[:-1], n.shape[:-1]) + (4,))
        f[..., 0] = m1 * n1 + m2 * n2
        f[..., 1] = (m1 * v1 + p) * n1 + (m1 * v2) * n2
        f[..., 2] = (m2 * v1) * n1 + (m2 * v2 + p) * n2
        f[..., 3] = (Ep * v1) * n1 + (Ep * v2) * n2
        return f

    def wavespeed(self, u, n):
        """|v . n| + sound speed; errors on inadmissible states."""
        u = np.asarray(u, dtype=float)
        rho = u[..., 0]
        # admissible() without a second pass for the pressure: rho > 0 first,
        # so e is only formed where it is defined
        if not np.all(rho > 0):
            raise AdmissibilityError("inadmissible state in wavespeed evaluation")
        e = self.internal_energy(u)
        if not np.all(e > 0):
            raise AdmissibilityError("inadmissible state in wavespeed evaluation")
        n = np.asarray(n, dtype=float)
        vn = (u[..., 1] * n[..., 0] + u[..., 2] * n[..., 1]) / rho
        c = np.sqrt(self.gamma * ((self.gamma - 1.0) * e) / rho)
        return np.abs(vn) + c

    def wavespeed_clamped(self, u, n):
        u = np.asarray(u, dtype=float)
        n = np.asarray(n, dtype=float)
        rho = np.maximum(u[..., 0], 1e-12)
        vn = (u[..., 1] * n[..., 0] + u[..., 2] * n[..., 1]) / rho
        p = np.maximum((self.gamma - 1.0)
                       * (u[..., 3] - (u[..., 1] ** 2 + u[..., 2] ** 2)
                          / (2.0 * rho)), 0.0)
        return np.abs(vn) + np.sqrt(self.gamma * p / rho)

    def rotate_state(self, u, phi):
        """diag(1, M, 1) action: momentum rotated, density/energy unchanged."""
        u = np.asarray(u, dtype=float)
        out = np.array(u, copy=True)
        out[..., 1:3] = rotate_vector(u[..., 1:3], phi)
        return out

    def reflect(self, u, n):
        u = np.asarray(u, dtype=float)
        n = np.asarray(n, dtype=float)
        out = np.array(u, copy=True)
        mn = u[..., 1] * n[..., 0] + u[..., 2] * n[..., 1]
        out[..., 1] = u[..., 1] - 2.0 * mn * n[..., 0]
        out[..., 2] = u[..., 2] - 2.0 * mn * n[..., 1]
        return out

    def from_primitive(self, rho, v1, v2, p):
        """Conservative state from (rho, v1, v2, p); broadcasts over arrays."""
        rho, v1, v2, p = np.broadcast_arrays(
            *[np.asarray(a, dtype=float) for a in (rho, v1, v2, p)])
        E = 0.5 * rho * (v1 * v1 + v2 * v2) + p / (self.gamma - 1.0)
        return np.stack([rho, rho * v1, rho * v2, E], axis=-1)

    def to_primitive(self, u):
        u = np.asarray(u, dtype=float)
        rho = u[..., 0]
        v1, v2 = u[..., 1] / rho, u[..., 2] / rho
        return rho, v1, v2, self.pressure(u)


class ScaledModel(Model):
    """Wrapper with flux lam * F; used for evolution-invariance checks."""

    def __init__(self, base, lam):
        self.base = base
        self.lam = float(lam)
        self.name = f"scaled({base.name}, {lam})"
        self.n_components = base.n_components
        self.momentum_components = base.momentum_components
        self.positivity_constrained = base.positivity_constrained

    def flux(self, u):
        return self.lam * self.base.flux(u)

    def normal_flux_unchecked(self, u, n):
        return self.lam * self.base.normal_flux_unchecked(u, n)

    def wavespeed(self, u, n):
        return self.lam * self.base.wavespeed(u, n)

    def wavespeed_clamped(self, u, n):
        return self.lam * self.base.wavespeed_clamped(u, n)

    def admissible(self, u):
        return self.base.admissible(u)

    def internal_energy(self, u):
        return self.base.internal_energy(u)

    def rotate_state(self, u, phi):
        return self.base.rotate_state(u, phi)

    def reflect(self, u, n):
        return self.base.reflect(u, n)


MODELS = {"advection": Advection, "burgers": Burgers, "euler": Euler}


def make_model(name, **kwargs):
    try:
        return MODELS[name](**kwargs)
    except KeyError:
        raise UnsupportedOperationError(f"unknown model {name!r}") from None
