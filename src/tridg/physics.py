"""Conservation-law models: linear advection, Burgers, compressible Euler.

Component axis convention. The solver's kernel methods take states
component-first, u (d, ...) with u[c] the c-th conserved variable, and normals
n (2, ...) broadcasting against u's trailing axes: admissible, normal_flux,
lf_flux, wavespeed and wavespeed_clamped. normal_flux is the one flux kernel
of a model, the projection F(u) . n as (d, ...) for unit or non-unit normals,
with no admissibility check; lf_flux is the entry point that checks.
The state helpers that serve problem setup, boundary rules and
post-processing take and return states with the components last, (..., d),
the layout of ModalState.coeffs and of problem callables: internal_energy,
pressure, from_primitive, to_primitive, rotate_state and reflect.
Directional wavespeeds bound the spectral radius of the flux Jacobian
projected on a unit normal.
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

    def normal_flux(self, u, n, out=None):
        """F(u) . n = F_x n1 + F_y n2 for normals n (2, ...): (d, ...).

        No admissibility check; n need not be a unit vector. out: an array
        of the result's shape to write into.
        """
        raise NotImplementedError

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
        return np.ones(np.asarray(u).shape[1:], dtype=bool)

    def rotate_state(self, u, phi):
        raise UnsupportedOperationError(f"{self.name} has no rotation action")

    def reflect(self, u, n):
        """Mirror ghost state at a wall with outward unit normal n; (..., d)."""
        return np.array(u, copy=True)

    def lf_flux(self, u, n, alpha):
        """Lax-Friedrichs flux 0.5 (F(ui).n + F(ue).n - alpha (ue - ui)).

        u is two-sided, (d, 2, ...): u[:, 0] the interior and u[:, 1] the
        exterior states; the normal flux is evaluated once over both sides.
        Positivity-constrained models raise AdmissibilityError for an
        inadmissible state on either side.
        """
        u = np.asarray(u, dtype=float)
        if self.positivity_constrained and not self.admissible(u).all():
            raise AdmissibilityError("inadmissible state in flux evaluation")
        f = self.normal_flux(u, np.asarray(n, dtype=float))
        return 0.5 * (f[:, 0] + f[:, 1] - alpha * (u[:, 1] - u[:, 0]))


def rotate_vector(v, phi):
    """Clockwise coordinate rotation: (v1, v2) -> (c v1 + s v2, -s v1 + c v2)."""
    c, s = np.cos(phi), np.sin(phi)
    v = np.asarray(v, dtype=float)
    return np.stack([c * v[..., 0] + s * v[..., 1],
                     -s * v[..., 0] + c * v[..., 1]], axis=-1)


class Advection(Model):
    """u_t + u_x + u_y = 0 (velocity field (1, 1))."""

    name = "advection"
    n_components = 1

    def normal_flux(self, u, n, out=None):
        u = np.asarray(u, dtype=float)
        n = np.asarray(n, dtype=float)
        f = np.multiply(u, n[0], out=out)
        f += u * n[1]
        return f

    def wavespeed(self, u, n):
        n = np.asarray(n, dtype=float)
        speed = np.abs(n[0] + n[1])
        return np.broadcast_to(speed, np.broadcast_shapes(
            np.asarray(u).shape[1:], speed.shape)).copy()


class Burgers(Model):
    """u_t + (u^2/2)_x + (u^2/2)_y = 0."""

    name = "burgers"
    n_components = 1

    def normal_flux(self, u, n, out=None):
        u = np.asarray(u, dtype=float)
        n = np.asarray(n, dtype=float)
        f = 0.5 * u * u
        out = np.multiply(f, n[0], out=out)
        out += f * n[1]
        return out

    def wavespeed(self, u, n):
        u = np.asarray(u, dtype=float)
        n = np.asarray(n, dtype=float)
        return np.abs(u[0] * (n[0] + n[1]))


def _energy(rho, m1, m2, E):
    """rho * specific internal energy from the conserved variables."""
    return E - (m1 * m1 + m2 * m2) / (2.0 * rho)


class Euler(Model):
    """2D compressible Euler equations, conservative variables (rho, m1, m2, E)."""

    name = "euler"
    n_components = 4
    momentum_components = (1, 2)
    positivity_constrained = True

    def __init__(self, gamma=1.4):
        self.gamma = float(gamma)

    def internal_energy(self, u):
        """rho * specific internal energy: E - (m1^2 + m2^2) / (2 rho).

        u: (..., 4), components last.
        """
        u = np.asarray(u, dtype=float)
        return _energy(u[..., 0], u[..., 1], u[..., 2], u[..., 3])

    def pressure(self, u):
        return (self.gamma - 1.0) * self.internal_energy(u)

    def admissible(self, u):
        u = np.asarray(u, dtype=float)
        rho = u[0]
        ok = rho > 0
        e = np.where(ok, u[3] - (u[1] ** 2 + u[2] ** 2)
                     / (2.0 * np.where(ok, rho, 1.0)), -1.0)
        return ok & (e > 0)

    def _pressure(self, u, check):
        """p of component-first states u, from rho e as admissible forms it.

        check: raise AdmissibilityError unless rho > 0 and e > 0 everywhere,
        the test of admissible, on the same numbers.
        """
        rho, m1, m2, E = u
        if check and not np.all(rho > 0):
            raise AdmissibilityError("non-positive density in flux evaluation")
        p = m1 * m1
        p += m2 * m2
        p /= 2.0 * rho
        np.subtract(E, p, out=p)
        if check and not np.all(p > 0):
            raise AdmissibilityError(
                "non-positive internal energy in flux evaluation")
        p *= self.gamma - 1.0
        return p

    @staticmethod
    def _write_normal_flux(u, p, n, out):
        """F(u) . n in the rho v.n form into out (4, ...):
        (m.n, m1 v.n + p n1, m2 v.n + p n2, (E + p) v.n)."""
        rho, m1, m2, E = u
        mn = np.multiply(m1, n[0], out=out[0])
        mn += m2 * n[1]
        vn = mn / rho
        np.multiply(m1, vn, out=out[1])
        out[1] += p * n[0]
        np.multiply(m2, vn, out=out[2])
        out[2] += p * n[1]
        np.add(E, p, out=out[3])
        out[3] *= vn
        return out

    def normal_flux(self, u, n, out=None):
        u = np.asarray(u, dtype=float)
        n = np.asarray(n, dtype=float)
        if out is None:
            out = np.empty((4,) + np.broadcast_shapes(u.shape[1:],
                                                      n.shape[1:]))
        return self._write_normal_flux(u, self._pressure(u, check=False), n,
                                       out)

    def lf_flux(self, u, n, alpha):
        """The Lax-Friedrichs flux in one pointwise pass over both sides.

        rho, p and v.n are formed once: the density and internal-energy
        test of admissible runs on them (AdmissibilityError on failure), the
        normal flux takes the rho v.n form and the LF combination is written
        in place over side 0's flux.
        """
        u = np.asarray(u, dtype=float)
        n = np.asarray(n, dtype=float)
        p = self._pressure(u, check=True)
        # side-major storage, so that side 0's flux, the result, is one
        # contiguous block
        buf = np.empty((2,) + u.shape[:1] + u.shape[2:])
        self._write_normal_flux(u, p, n,
                                buf.transpose(1, 0, *range(2, buf.ndim)))
        out = buf[0]
        out += buf[1]
        jump = u[:, 1] - u[:, 0]
        jump *= alpha
        out -= jump
        out *= 0.5
        return out

    def wavespeed(self, u, n):
        """|v . n| + sound speed; errors on inadmissible states."""
        u = np.asarray(u, dtype=float)
        rho = u[0]
        # admissible() without a second pass for the pressure: rho > 0 first,
        # so e is only formed where it is defined
        if not np.all(rho > 0):
            raise AdmissibilityError("inadmissible state in wavespeed evaluation")
        e = _energy(rho, u[1], u[2], u[3])
        if not np.all(e > 0):
            raise AdmissibilityError("inadmissible state in wavespeed evaluation")
        n = np.asarray(n, dtype=float)
        vn = (u[1] * n[0] + u[2] * n[1]) / rho
        c = np.sqrt(self.gamma * ((self.gamma - 1.0) * e) / rho)
        return np.abs(vn) + c

    def wavespeed_clamped(self, u, n):
        u = np.asarray(u, dtype=float)
        n = np.asarray(n, dtype=float)
        rho = np.maximum(u[0], 1e-12)
        vn = (u[1] * n[0] + u[2] * n[1]) / rho
        p = np.maximum((self.gamma - 1.0)
                       * (u[3] - (u[1] ** 2 + u[2] ** 2) / (2.0 * rho)), 0.0)
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
        """Conservative state (..., 4) from (rho, v1, v2, p); broadcasts."""
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

    def normal_flux(self, u, n, out=None):
        f = self.base.normal_flux(u, n, out=out)
        f *= self.lam
        return f

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
