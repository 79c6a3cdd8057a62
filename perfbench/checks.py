"""Output checks on the files one `tridg run` invocation wrote.

Each check reads the snapshot and meta CSVs the program wrote under its
`--out` prefix and returns (ok, detail). A run that fails a check counts in
`failed` and its timings are left out of the medians.
"""

import glob
import os

import numpy as np

# Mass may drift only by round-off: relative to sum(area * |cell average|).
MASS_RTOL = 1e-12


def read_meta(prefix):
    with open(f"{prefix}_meta.csv") as f:
        header, values = (line.strip().split(",") for line in f.readlines()[:2])
    return dict(zip(header, (float(v) for v in values)))


def snapshot_paths(prefix):
    """The `_t<i>` snapshots in output order, then `_final`."""
    steps = sorted(glob.glob(f"{glob.escape(prefix)}_t*.csv"),
                   key=lambda p: int(p[len(prefix) + 2:-4]))
    return steps + [f"{prefix}_final.csv"]


def written_paths(prefix):
    """Every file the snapshot and sample writers produced."""
    paths = snapshot_paths(prefix)
    if os.path.exists(f"{prefix}_samples.csv"):
        paths.append(f"{prefix}_samples.csv")
    return paths


def read_snapshot(path, shape):
    """(rows, coeffs) of a snapshot CSV; coeffs has shape (nc, nm, d)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    coeffs = np.full(shape, np.nan)
    idx = data[:, [0, 3, 4]].astype(np.int64)
    coeffs[idx[:, 0], idx[:, 1], idx[:, 2]] = data[:, 5]
    return len(data), coeffs


class RunOutputs:
    """The outputs of one invocation, read lazily."""

    def __init__(self, prefix, ref):
        self.prefix = prefix
        self.ref = ref          # Reference of the workload's inputs
        self.meta = read_meta(prefix)
        self._snaps = {}

    def snapshot(self, path):
        if path not in self._snaps:
            self._snaps[path] = read_snapshot(path, self.ref.shape)
        return self._snaps[path]

    def first(self):
        return self.snapshot(snapshot_paths(self.prefix)[0])[1]

    def final(self):
        return self.snapshot(f"{self.prefix}_final.csv")[1]


def check_l2_error(out):
    err = out.ref.l2_error(out.final(), out.meta["t_final"])
    limit = out.ref.size.l2_max
    return err <= limit, f"L2 error {err:.3e} (limit {limit:.1e})"


def check_mass(out):
    area = out.ref.mesh.area
    u0, u1 = out.first()[:, 0, 0], out.final()[:, 0, 0]
    drift = abs(float(np.sum(area * u1) - np.sum(area * u0)))
    scale = float(np.sum(area * np.abs(u0)))
    return drift <= MASS_RTOL * scale, f"mass drift {drift / scale:.1e} rel"


def check_positive(out):
    avg = out.final()[:, 0, :]
    rho = avg[:, 0]
    p = (out.ref.gamma - 1.0) * (avg[:, 3] - 0.5 * (avg[:, 1] ** 2
                                                   + avg[:, 2] ** 2) / rho)
    ok = bool(np.all(rho > 0) and np.all(p > 0))
    return ok, f"min rho {rho.min():.3e}, min p {p.min():.3e}"


def check_snapshot_rows(out):
    paths = snapshot_paths(out.prefix)
    want = int(np.prod(out.ref.shape))
    rows = [out.snapshot(p)[0] for p in paths]
    n_times = len(out.ref.size.output_times.split(",")) if (
        out.ref.size.output_times) else 0
    ok = len(paths) == n_times + 2 and all(r == want for r in rows)
    return ok, f"{len(paths)} snapshots of {rows} rows (want {want})"


RUN_CHECKS = {
    "l2_error": check_l2_error,
    "mass": check_mass,
    "positive": check_positive,
    "snapshot_rows": check_snapshot_rows,
}


def check_zxs_more_steps(outs):
    steps = {label: out.meta["steps"] for label, out in outs.items()}
    return steps["zxs"] > steps["dcw"], (
        f"steps zxs {steps['zxs']:.0f} vs dcw {steps['dcw']:.0f}")


SAMPLE_CHECKS = {"zxs_more_steps": check_zxs_more_steps}
