"""Compare the pressure solvers of the fluid substrate head to head.

Solves the same pressure-Poisson problem (from a randomly-initialised smoke
plume) with every solver in the package — MICCG(0), plain CG, Jacobi-
preconditioned CG, weighted Jacobi and geometric multigrid — and reports
iterations, residuals and timing.  This is the computation the paper's
networks approximate (70-80% of total simulation time).

Run:  python examples/solver_showdown.py
"""

import time

import numpy as np

from repro.fluid import (
    JacobiSolver,
    MultigridSolver,
    PCGSolver,
    apply_laplacian,
    divergence,
    make_smoke_plume,
    poisson_rhs,
)

GRID = 66  # 2^k + 2 grids give multigrid its full hierarchy


def main() -> None:
    grid, source = make_smoke_plume(GRID, GRID, rng=7)
    source.apply(grid, dt=0.1)
    div = divergence(grid)
    b = poisson_rhs(div, grid.solid, dt=0.05, rho=1.0, dx=grid.dx)
    fluid = grid.fluid
    print(f"{GRID}x{GRID} plume problem, {int(fluid.sum())} fluid cells, "
          f"|b|_inf = {np.abs(b[fluid]).max():.3g}\n")

    solvers = [
        ("MICCG(0)", lambda: PCGSolver(tol=1e-6).solve(b, grid.solid)),
        ("CG (no precond)", lambda: PCGSolver(tol=1e-6, preconditioner="none").solve(b, grid.solid)),
        ("CG (Jacobi precond)", lambda: PCGSolver(tol=1e-6, preconditioner="jacobi").solve(b, grid.solid)),
        ("Multigrid V-cycles", lambda: MultigridSolver(tol=1e-6).solve(b, grid.solid)),
        ("Jacobi x300", lambda: JacobiSolver(iterations=300).solve(b, grid.solid)),
    ]

    print(f"{'solver':22s} {'iters':>6s} {'residual':>10s} {'time':>8s}  converged")
    for name, run in solvers:
        t0 = time.perf_counter()
        res = run()
        dt = time.perf_counter() - t0
        r = np.abs((b - apply_laplacian(res.pressure, grid.solid))[fluid]).max()
        print(f"{name:22s} {res.iterations:6d} {r:10.2e} {dt:7.3f}s  {res.converged}")


if __name__ == "__main__":
    main()
