"""Cross-module integration tests: substrate + models + runtime together."""

import numpy as np
import pytest

from repro.core import ReferenceCache, quality_loss
from repro.data import InputProblem, collect_training_frames, generate_problems
from repro.fluid import (
    FluidSimulator,
    MultigridSolver,
    PCGSolver,
    SimulationConfig,
)
from repro.models import NNProjectionSolver, YangModel, tompson_arch, train_model
from repro.nn import Adam, DivNormLoss, Trainer

from .fluid.reference_pcg import ReferencePCGSolver


@pytest.fixture(scope="module")
def trained_cnn():
    probs = generate_problems(4, 16, split="train")
    data = collect_training_frames(probs, n_steps=8)
    model = train_model(
        tompson_arch(8),
        data,
        epochs=40,
        rng=0,
        rollout_problems=probs,
        rollout_rounds=1,
    )
    return model, data


class TestSolverInterchangeability:
    """Any pressure solver slots into the simulator unchanged."""

    @pytest.mark.parametrize("make_solver", [
        lambda: PCGSolver(),
        lambda: PCGSolver(preconditioner="jacobi"),
        lambda: MultigridSolver(max_cycles=30),
    ])
    def test_exact_solvers_agree_on_density(self, make_solver):
        prob = InputProblem(16, 77)
        grid, src = prob.materialize()
        res = FluidSimulator(grid, make_solver(), src).run(6)
        grid2, src2 = prob.materialize()
        ref = FluidSimulator(grid2, PCGSolver(tol=1e-8), src2).run(6)
        assert quality_loss(ref.density, res.density) < 0.05

    def test_nn_solver_in_simulator(self, trained_cnn):
        model, _ = trained_cnn
        grid, src = InputProblem(16, 88).materialize()
        res = FluidSimulator(grid, model.solver(passes=2), src).run(6)
        assert np.isfinite(res.density).all()

    def test_yang_solver_in_simulator(self):
        probs = generate_problems(2, 16, split="train")
        data = collect_training_frames(probs, n_steps=4)
        yang = YangModel(hidden=(8,), rng=0)
        trainer = Trainer(yang, DivNormLoss(), Adam(yang.parameters(), lr=3e-3), rng=0)
        trainer.fit({k: data[k] for k in ("x", "b", "solid", "weights")}, epochs=4)
        grid, src = InputProblem(16, 99).materialize()
        res = FluidSimulator(grid, NNProjectionSolver(yang, "yang"), src).run(4)
        assert np.isfinite(res.density).all()


class TestTrainingImprovesSimulation:
    def test_trained_beats_untrained(self, trained_cnn):
        model, _ = trained_cnn
        prob = InputProblem(16, 123)
        ref = ReferenceCache(8)
        reference = ref.reference(prob)

        untrained = tompson_arch(6).build(rng=99)
        g1, s1 = prob.materialize()
        bad = FluidSimulator(g1, NNProjectionSolver(untrained, passes=2), s1).run(8)
        g2, s2 = prob.materialize()
        good = FluidSimulator(g2, model.solver(passes=2), s2).run(8)
        assert quality_loss(reference.density, good.density) < quality_loss(
            reference.density, bad.density
        )

    def test_more_passes_reduce_single_solve_residual(self, trained_cnn):
        """Defect correction contracts the residual of one fixed solve.

        (Across a rollout neither Qloss nor CumDivNorm is monotone per
        problem — the trajectory itself changes — so the invariant is tested
        on a fixed right-hand side.)"""
        model, data = trained_cnn
        b = data["b"][0, 0]
        solid = data["solid"][0]
        residuals = [
            model.solver(passes=p).solve(b, solid).residual_norm for p in (1, 2, 4)
        ]
        assert residuals[1] <= residuals[0]
        assert residuals[2] <= residuals[1]


class TestMetricsPipeline:
    def test_divnorm_tracks_solver_quality(self, trained_cnn):
        """A crude solver leaves more weighted divergence than an exact one."""
        model, _ = trained_cnn
        prob = InputProblem(16, 555)
        g1, s1 = prob.materialize()
        exact = FluidSimulator(g1, PCGSolver(), s1).run(6)
        g2, s2 = prob.materialize()
        approx = FluidSimulator(g2, model.solver(passes=1), s2).run(6)
        assert approx.cumdivnorm_history[-1] > exact.cumdivnorm_history[-1]

    def test_execution_records_reflect_speed_order(self, trained_cnn):
        from repro.core import collect_execution_records

        model, _ = trained_cnn
        probs = generate_problems(2, 16, split="eval")
        ref = ReferenceCache(6)
        recs = collect_execution_records([model], probs, ref, passes=2)
        # the paper's speed claim is against its standard MICCG(0), timed
        # here as the grid-level loop: the compiled kernels can out-run the
        # NN at 16x16
        def baseline_seconds(p):
            g, s = p.materialize()
            return FluidSimulator(g, ReferencePCGSolver(), s).run(6).solve_seconds

        pcg_time = np.mean([baseline_seconds(p) for p in probs])
        nn_time = np.mean([r.execution_seconds for r in recs])
        assert nn_time < pcg_time
