"""Ablation: defect-correction passes of the NN pressure solver.

DESIGN.md substitutes the paper's GPU-scale one-shot CNN with a CPU-scale
CNN plus 1-3 refinement passes.  This bench sweeps the pass count and shows
the knob trades solver time for residual/quality exactly as claimed — and
that even the deepest setting stays well below PCG's cost.
"""

import numpy as np

from repro.core import ReferenceCache
from repro.data import generate_problems
from repro.experiments import evaluate_solver, format_table


def run_sweep(artifacts):
    scale = artifacts.scale
    problems = generate_problems(scale.n_problems, scale.base_grid, split="eval")
    reference = ReferenceCache(scale.n_steps)
    pcg_secs = float(np.mean([reference.reference(p).solve_seconds for p in problems]))
    model = artifacts.framework.input_model
    rows = []
    for passes in (1, 2, 3, 4):
        stats = evaluate_solver(lambda p=passes: model.solver(passes=p), problems, reference)
        rows.append(
            (
                passes,
                float(np.mean([s.quality_loss for s in stats])),
                float(np.mean([s.solve_seconds for s in stats])),
                float(np.mean([s.cumdivnorm_final for s in stats])),
            )
        )
    return rows, pcg_secs


def test_ablation_passes(benchmark, artifacts, report):
    rows, pcg_secs = benchmark.pedantic(run_sweep, args=(artifacts,), rounds=1, iterations=1)
    report(
        "ablation_passes",
        format_table(
            ["Passes", "Mean Qloss", "Solver (s)", "CumDivNorm"],
            [list(r) for r in rows],
            title=f"Ablation: defect-correction passes (PCG = {pcg_secs:.3f}s)",
        ),
    )

    times = [r[2] for r in rows]
    cdn = [r[3] for r in rows]
    # time grows with passes; accumulated divergence shrinks
    assert times == sorted(times)
    assert cdn[-1] < cdn[0]
    # even 4 passes stay cheaper than the exact solver
    assert times[-1] < pcg_secs
