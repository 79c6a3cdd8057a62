"""A workload's inputs for one seed, and the reference data its checks use.

The mesh is the problem's structured mesh passed through
`mesh.perturb(seed=<seed>)` and saved with `save_mesh`; the same seed gives
the same file. Import this module only after the checkout's `src` is on
`sys.path`.
"""

from tridg import basis
from tridg.dg import ModalState, SpatialOperator
from tridg.harness import error_norms
from tridg.mesh import perturb, save_mesh
from tridg.problems import get_problem


class Inputs:
    def __init__(self, workload, size, seed, mesh_path):
        self.size = size
        self.problem = get_problem(workload.problem)
        self.model = self.problem.make_model()
        self.mesh = perturb(self.problem.make_rect_mesh(size.nx), seed=seed)
        self.mesh_path = mesh_path
        save_mesh(self.mesh, mesh_path)
        self.k = workload.k
        self.gamma = getattr(self.model, "gamma", None)
        self.shape = (self.mesh.n_cells, basis.n_modes(workload.k),
                      self.model.n_components)
        self._op = None

    def l2_error(self, coeffs, t):
        """L2 error of a final state against the problem's exact solution."""
        if self._op is None:
            self._op = SpatialOperator(
                self.mesh, self.model, self.k,
                boundary=self.problem.boundary(self.model))
        state = ModalState(self.k, coeffs, t)
        return error_norms(self._op, state, self.problem.exact, t)[1]
