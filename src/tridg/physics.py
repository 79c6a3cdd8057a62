"""Conservation-law models: linear advection, Burgers, compressible Euler.

Component axis convention. The solver's kernel methods take states
component-first, u (d, ...) with u[c] the c-th conserved variable, and normals
n (2, ...) broadcasting against u's trailing axes: admissible, normal_flux,
two_sided_flux, two_sided_flux_wavespeed, lf_flux, wavespeed and
wavespeed_clamped. normal_flux is the one flux kernel of a model, F(u) . n for
unit or non-unit normals, unchecked; two_sided_flux gives both sides of an
edge to lf_flux, checked by Euler, and two_sided_flux_wavespeed gives it with
the wavespeed of the same states. Euler forms rho e and p in one in-place pass
behind its flux and both wavespeeds, which raises AdmissibilityError or, for
wavespeed_clamped, floors rho and p; the flux and the wavespeed of one set of
states share one such pass.
The state helpers of problem setup, boundary rules and post-processing keep
the components last, (..., d): internal_energy, pressure, from_primitive,
to_primitive, rotate_state and reflect. Directional wavespeeds bound the
spectral radius of the flux Jacobian projected on a unit normal.
"""

import functools

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

    def normal_flux(self, u, n):
        """F(u) . n = F_x n1 + F_y n2 for normals n (2, ...): (d, ...).

        No admissibility check; n need not be a unit vector.
        """
        raise NotImplementedError

    def wavespeed(self, u, n):
        """Bound on |eigenvalues of F'(u) . n| for unit normal n."""
        raise NotImplementedError

    def wavespeed_clamped(self, u, n):
        """Finite wavespeed estimate even for slightly inadmissible states:
        the filter's damping in limited runs, whose point values outside the
        controlled node set may leave the admissible set."""
        return self.wavespeed(u, n)

    def admissible(self, u):
        return np.ones(np.asarray(u).shape[1:], dtype=bool)

    def rotate_state(self, u, phi):
        raise UnsupportedOperationError(f"{self.name} has no rotation action")

    def reflect(self, u, n):
        """Mirror ghost state at a wall with outward unit normal n; (..., d)."""
        return np.array(u, copy=True)

    def two_sided_flux(self, u, n):
        """F(u) . n of two-sided states u (d, 2, ...), side first: (2, d, ...),
        unchecked: a positivity-constrained model defines its own, which
        raises AdmissibilityError for an inadmissible state on either side."""
        return np.moveaxis(self.normal_flux(u, n), 1, 0)

    def two_sided_flux_wavespeed(self, u, n):
        """(two_sided_flux(u, n), wavespeed(u, n)) of two-sided states u
        (d, 2, ...): the flux and the speed of both sides, (2, ...), for a
        caller that needs the two, checked as the wavespeed checks. A model
        whose two share a pointwise pass forms both from one."""
        return self.two_sided_flux(u, n), self.wavespeed(u, n)

    def lf_flux(self, u, n, alpha, f=None):
        """Lax-Friedrichs flux 0.5 (F(ui).n + F(ue).n - alpha (ue - ui)).

        u is two-sided, (d, 2, ...): u[:, 0] the interior and u[:, 1] the
        exterior states. f: their two_sided_flux, when the caller already
        formed it; the combination is written in place over side 0 of it.
        """
        u = np.asarray(u, dtype=float)
        if f is None:
            f = self.two_sided_flux(u, n)
        out = f[0]
        out += f[1]
        jump = u[:, 1] - u[:, 0]
        jump *= alpha
        out -= jump
        out *= 0.5
        return out


def rotate_vector(v, phi):
    """Clockwise coordinate rotation: (v1, v2) -> (c v1 + s v2, -s v1 + c v2)."""
    c, s = np.cos(phi), np.sin(phi)
    v = np.asarray(v, dtype=float)
    return np.stack([c * v[..., 0] + s * v[..., 1],
                     -s * v[..., 0] + c * v[..., 1]], axis=-1)


def _arrays(kernel):
    """Run kernel(self, u, n) on float arrays. One state u (d,) runs as the
    (d, 1) column, whose rows the in-place kernels can write through, against
    n with one more trailing axis, which the result drops."""
    @functools.wraps(kernel)
    def call(self, u, n):
        u, n = np.asarray(u, dtype=float), np.asarray(n, dtype=float)
        if u.ndim > 1:
            return kernel(self, u, n)
        return kernel(self, u[:, None], n[..., None])[..., 0][()]
    return call


class Advection(Model):
    """u_t + u_x + u_y = 0 (velocity field (1, 1))."""

    name = "advection"
    n_components = 1

    @_arrays
    def normal_flux(self, u, n):
        f = u * n[0]
        f += u * n[1]
        return f

    def wavespeed(self, u, n):
        """|n1 + n2| in the shape of n's trailing axes: the speed does not
        depend on the state."""
        n = np.asarray(n, dtype=float)
        return np.abs(n[0] + n[1])


class Burgers(Model):
    """u_t + (u^2/2)_x + (u^2/2)_y = 0."""

    name = "burgers"
    n_components = 1

    @_arrays
    def normal_flux(self, u, n):
        f = 0.5 * u * u
        out = f * n[0]
        out += f * n[1]
        return out

    @_arrays
    def wavespeed(self, u, n):
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
        """rho * specific internal energy, E - (m1^2 + m2^2) / (2 rho), of
        states u (..., 4), components last."""
        u = np.asarray(u, dtype=float)
        return _energy(u[..., 0], u[..., 1], u[..., 2], u[..., 3])

    def pressure(self, u):
        return (self.gamma - 1.0) * self.internal_energy(u)

    def admissible(self, u):
        u = np.asarray(u, dtype=float)
        ok = u[0] > 0
        return ok & (_energy(np.where(ok, u[0], 1.0), u[1], u[2], u[3]) > 0)

    _REJECT = {
        True: ("non-positive density in flux evaluation",
               "non-positive internal energy in flux evaluation"),
        "wavespeed": ("inadmissible state in wavespeed evaluation",) * 2}

    def _pressure(self, u, check, n=None):
        """p of component-first states u in one in-place pass, from rho e as
        admissible forms it; with normals n, |v . n| + sqrt(gamma p / rho).

        check: True (the flux) or "wavespeed" raise AdmissibilityError, with
        that caller's _REJECT message, unless rho > 0 and e > 0, admissible's
        test on the same numbers; "floor" takes rho >= 1e-12 and p >= 0,
        finite for every finite state; False does neither.
        """
        rho, m1, m2, E = u
        if check == "floor":
            rho = np.maximum(rho, 1e-12)
        elif check and not np.all(rho > 0):
            raise AdmissibilityError(self._REJECT[check][0])
        p = m1 * m1
        p += m2 * m2
        p /= 2.0 * rho
        np.subtract(E, p, out=p)
        if check in self._REJECT and not np.all(p > 0):
            raise AdmissibilityError(self._REJECT[check][1])
        p *= self.gamma - 1.0
        if check == "floor":
            np.maximum(p, 0.0, out=p)
        if n is None:
            return p
        return self._speed(rho, m1, m2, p, n)

    def _speed(self, rho, m1, m2, p, n):
        """|v . n| + sqrt(gamma p / rho) from _pressure's p, the sound speed
        formed in p's buffer."""
        p *= self.gamma
        p /= rho
        np.sqrt(p, out=p)
        vn = m1 * n[0]
        vn += m2 * n[1]
        vn /= rho
        np.abs(vn, out=vn)
        vn += p
        return vn

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

    @_arrays
    def normal_flux(self, u, n):
        out = np.empty((4,) + np.broadcast_shapes(u.shape[1:], n.shape[1:]))
        return self._write_normal_flux(u, self._pressure(u, check=False), n,
                                       out)

    @staticmethod
    def _two_sided(u, p, n):
        """The rho v.n form of both sides' flux, side-major: each side's
        flux is one contiguous block, (2, 4, ...)."""
        buf = np.empty((2,) + u.shape[:1] + u.shape[2:])
        Euler._write_normal_flux(u, p, n,
                                 buf.transpose(1, 0, *range(2, buf.ndim)))
        return buf

    @_arrays
    def two_sided_flux(self, u, n):
        """The normal flux of both sides in one pointwise pass: _pressure's
        checked pass, then the rho v.n form."""
        return self._two_sided(u, self._pressure(u, check=True), n)

    def two_sided_flux_wavespeed(self, u, n):
        """Both results from one pass of _pressure, checked as the
        wavespeed checks: the flux first, then the speed in p's buffer."""
        u, n = np.asarray(u, dtype=float), np.asarray(n, dtype=float)
        p = self._pressure(u, "wavespeed")
        f = self._two_sided(u, p, n)
        rho, m1, m2, _ = u
        return f, self._speed(rho, m1, m2, p, n)

    @_arrays
    def wavespeed(self, u, n):
        """|v . n| + sound speed; errors on inadmissible states."""
        return self._pressure(u, "wavespeed", n)

    @_arrays
    def wavespeed_clamped(self, u, n):
        """|v . n| + sound speed with rho floored at 1e-12 and p at 0:
        finite for every finite state."""
        return self._pressure(u, "floor", n)

    def rotate_state(self, u, phi):
        """diag(1, M, 1) action: momentum rotated, density/energy unchanged."""
        out = np.array(u, dtype=float)
        out[..., 1:3] = rotate_vector(out[..., 1:3], phi)
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

    def normal_flux(self, u, n):
        f = self.base.normal_flux(u, n)
        f *= self.lam
        return f

    def wavespeed(self, u, n):
        return self.lam * self.base.wavespeed(u, n)

    def wavespeed_clamped(self, u, n):
        return self.lam * self.base.wavespeed_clamped(u, n)

    def two_sided_flux(self, u, n):
        f = self.base.two_sided_flux(u, n)
        f *= self.lam
        return f

    def two_sided_flux_wavespeed(self, u, n):
        f, s = self.base.two_sided_flux_wavespeed(u, n)
        f *= self.lam
        return f, self.lam * s

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
