"""The benchmark's workloads: which `tridg run` invocations make up a sample.

Every workload runs the solver on the problem's structured mesh passed
through `mesh.perturb(seed=<seed>)` and saved with `save_mesh`; the solver
only ever sees that mesh file. Irregular triangles are what the paper
targets, and the BP time step (C_BP) depends on triangle shape.

`tend` is shortened from the problems' own final times so that one sample
takes one to three seconds; what each workload stresses is unchanged. Why
each workload was chosen is in BENCHMARK.json and in the comments below.
"""

from dataclasses import dataclass, field

RK_STAGES = {"rk22": 2, "rk33": 3, "rk54": 5}


@dataclass(frozen=True)
class Variant:
    """One `tridg run` invocation of a sample."""

    label: str
    bp: str = "off"


@dataclass(frozen=True)
class Size:
    nx: int
    tend: float
    output_times: str = ""
    sample_grid: int = 0
    l2_max: float = None    # bound on the final L2 error, where checked


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    k: int
    rk: str
    oe: str
    full: Size
    quick: Size
    variants: tuple = (Variant("run"),)
    # output checks beyond the exit code, see checks.py
    checks: tuple = field(default_factory=tuple)

    @property
    def stages(self):
        return RK_STAGES[self.rk]

    def size(self, quick):
        return self.quick if quick else self.full

    def argv(self, variant, size, mesh_path, out_prefix):
        argv = ["run", "--problem", self.problem, "--k", str(self.k),
                "--rk", self.rk, "--oe", self.oe, "--bp", variant.bp,
                "--mesh", mesh_path, "--tend", repr(size.tend),
                "--out", out_prefix]
        if size.output_times:
            argv += ["--output-times", size.output_times]
        if size.sample_grid:
            argv += ["--sample-grid", str(size.sample_grid)]
        return argv


WORKLOADS = {w.name: w for w in (
    # OE and the scalar residual do nearly all the work. BP, the Euler flux
    # and the edge wavespeed are bypassed (alpha uses the cell averages):
    # the "no change" side for bp and physics work. 2,048 cells, 15-16 steps.
    Workload(
        name="adv-p3",
        problem="advection_smooth", k=3, rk="rk54", oe="cw",
        full=Size(nx=32, tend=0.008, l2_max=2e-5),
        quick=Size(nx=6, tend=0.01, l2_max=2e-2),
        checks=("l2_error", "mass")),
    # The paper's claim in wall time: the same problem under dcw and zxs,
    # with the limiter scaling cells near vacuum, the P1 vertex check nodes
    # and outflow boundaries. 768 cells, so per-call overhead weighs most.
    # Its Euler LF flux, edge-Gauss wavespeed, rioe filter and BP check are
    # also what a P2 Euler workload with reflective walls would measure, so
    # there is none: three workloads leave each run long enough to be steady
    # on a shared 2-vCPU host.
    Workload(
        name="vacuum-p1",
        problem="euler_double_rarefaction", k=1, rk="rk22", oe="ri",
        full=Size(nx=64, tend=0.01),
        quick=Size(nx=32, tend=0.004),
        variants=(Variant("dcw", bp="dcw"), Variant("zxs", bp="zxs")),
        checks=("positive", "zxs_more_steps")),
    # Mesh parsing and build, operator setup and the writers dominate: a
    # handful of steps with one intermediate snapshot and a sample grid.
    # 8,192 cells: the dg/oe code of adv-p3 on a state ~2.4x larger.
    Workload(
        name="cold-start",
        problem="advection_smooth", k=2, rk="rk33", oe="cw",
        full=Size(nx=64, tend=6e-4, output_times="3e-4", sample_grid=24),
        quick=Size(nx=8, tend=6e-3, output_times="3e-3", sample_grid=6),
        checks=("snapshot_rows", "mass")),
)}
