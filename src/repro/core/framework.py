"""Smart-fluidnet: the end-to-end framework (Figure 2).

Offline phase (:meth:`SmartFluidnet.build_offline`):

1. train the input (Tompson's) model;
2. search accurate models with the Auto-Keras-style plugin;
3. construct the transformed model family (four operations);
4. measure execution records of every model on calibration problems;
5. keep the (time, quality) Pareto front — the *model candidates*;
6. train the success-rate MLP on the candidates' records;
7. apply the Eq. 8 expected-time filter — the *runtime models*;
8. build the per-model (CumDivNorm_final, Qloss) KNN databases from small
   problems.

Online phase (:meth:`SmartFluidnet.run`): simulate with the quality-aware
model-switch controller (Algorithm 2), restarting with exact PCG when no
model can meet the requirement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.data import InputProblem, collect_training_frames, generate_problems
from repro.fluid import (
    FluidSimulator,
    PCGSolver,
    RestartRequested,
    SimulationConfig,
    SimulationResult,
)
from repro.metrics import get_metrics
from repro.models import ArchSpec, TrainedModel, tompson_arch, train_model

from .construction import ConstructionConfig, construct_model_family
from .knn import QlossKNNPredictor
from .metrics import quality_loss
from .pareto import pareto_select
from .records import (
    ExecutionRecord,
    ReferenceCache,
    collect_execution_records,
    run_problem,
)
from .scheduler import AdaptiveController, AdaptiveStats
from .search import SearchConfig, search_accurate_models
from .selection import SelectedModel, expected_total_time, select_runtime_models
from .selector_mlp import SuccessRateMLP

__all__ = ["UserRequirement", "OfflineConfig", "AdaptiveRunResult", "SmartFluidnet"]


@dataclass(frozen=True)
class UserRequirement:
    """U(q, t): ceilings on quality loss and execution (solver) time."""

    q: float
    t: float


@dataclass
class OfflineConfig:
    """Scale knobs of the offline phase (defaults sized for CPU runs)."""

    grid_size: int = 32
    n_train_problems: int = 6
    n_calibration_problems: int = 3
    n_small_problems: int = 8
    small_grid_size: int = 16
    train_steps: int = 8
    eval_steps: int = 16
    base_epochs: int = 40
    rollout_rounds: int = 2
    search: SearchConfig = field(default_factory=lambda: SearchConfig(iterations=2, keep=5))
    construction: ConstructionConfig = field(
        default_factory=lambda: ConstructionConfig(fine_tune_epochs=3)
    )
    solver_passes: int = 2
    max_runtime_models: int = 5
    mlp_topology: str = "mlp3"
    mlp_epochs: int = 300
    mlp_samples: int = 256
    check_interval: int = 5
    skip_first: int = 5
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    run_search: bool = True


@dataclass
class AdaptiveRunResult:
    """Outcome of one online Smart-fluidnet run."""

    result: SimulationResult
    stats: AdaptiveStats
    restarted: bool
    total_seconds: float
    solve_seconds: float


class _CalibratedMLP:
    """Blend MLP predictions with empirical per-model success rates.

    Used only at the fixed offline requirement, where empirical rates are
    available from the very records that generated the MLP's labels; queries
    at other (q, t) pass through to the MLP unchanged.
    """

    def __init__(self, mlp: SuccessRateMLP, empirical: dict[str, float], weight: float = 0.5):
        self.mlp = mlp
        self.empirical = empirical
        self.weight = weight
        self._name_by_spec: dict[int, str] = {}

    def register(self, name: str, spec) -> None:
        self._name_by_spec[id(spec)] = name

    def predict(self, spec, q: float, t: float) -> float:
        raw = self.mlp.predict(spec, q, t)
        name = getattr(spec, "name", None)
        if name in self.empirical:
            return self.weight * raw + (1.0 - self.weight) * self.empirical[name]
        return raw


class SmartFluidnet:
    """The assembled framework: runtime models + predictors + requirement."""

    def __init__(
        self,
        runtime_models: list[SelectedModel],
        knn: QlossKNNPredictor,
        requirement: UserRequirement,
        mlp: SuccessRateMLP | None = None,
        candidates: list[TrainedModel] | None = None,
        records: list[ExecutionRecord] | None = None,
        config: OfflineConfig | None = None,
        exact_seconds: float = float("nan"),
    ):
        if not runtime_models:
            raise ValueError("Smart-fluidnet needs at least one runtime model")
        self.runtime_models = runtime_models
        self.knn = knn
        self.requirement = requirement
        self.mlp = mlp
        self.candidates = candidates or []
        self.records = records or []
        self.config = config or OfflineConfig()
        self.exact_seconds = exact_seconds
        #: the trained input (Tompson) model; only :meth:`build_offline` sets it
        self.input_model: TrainedModel | None = None

    # ------------------------------------------------------------------
    # offline phase
    # ------------------------------------------------------------------
    @classmethod
    def build_offline(
        cls,
        requirement: UserRequirement | None = None,
        base_arch: ArchSpec | None = None,
        config: OfflineConfig | None = None,
        rng=0,
        verbose: bool = False,
    ) -> "SmartFluidnet":
        """Run the full offline phase of Figure 2 and assemble the framework.

        When ``requirement`` is None, the paper's convention applies: the
        quality requirement is the input model's mean quality loss over the
        calibration problems, and the time budget is its mean solver time
        scaled by the Eq. 8 safety margin.
        """
        cfg = config or OfflineConfig()
        rng = np.random.default_rng(rng)

        def log(msg: str) -> None:
            if verbose:  # pragma: no cover
                print(f"[smart-fluidnet] {msg}")

        # 1. data + input model
        train_problems = generate_problems(cfg.n_train_problems, cfg.grid_size, split="train")
        data = collect_training_frames(train_problems, n_steps=cfg.train_steps)
        log(f"collected {len(data['x'])} training frames")
        base = train_model(
            base_arch or tompson_arch(),
            data,
            epochs=cfg.base_epochs,
            rng=rng,
            rollout_problems=train_problems,
            rollout_rounds=cfg.rollout_rounds,
        )
        base.spec.name = base.spec.name or "tompson"
        log(f"trained input model, loss={base.history.final_loss:.4f}")

        # 2. accurate models (Auto-Keras plugin)
        accurate: list[TrainedModel] = []
        if cfg.run_search:
            accurate = search_accurate_models(base.spec, data, cfg.search, rng=rng)
            log(f"search kept {len(accurate)} accurate models")

        # 3. transformed family
        family = construct_model_family(
            base, data, cfg.construction, rng=rng, rollout_problems=train_problems
        )
        log(f"constructed {len(family)} transformed models")
        all_models = [base] + accurate + family

        # 4. execution records on calibration problems
        calib = generate_problems(
            cfg.n_calibration_problems, cfg.grid_size, split="train"
        )[: cfg.n_calibration_problems]
        reference = ReferenceCache(cfg.eval_steps, cfg.simulation)
        records = collect_execution_records(all_models, calib, reference, cfg.solver_passes)
        log(f"collected {len(records)} execution records")

        by_model: dict[str, list[ExecutionRecord]] = {}
        for r in records:
            by_model.setdefault(r.model_name, []).append(r)
        mean_q = {k: float(np.mean([r.quality_loss for r in v])) for k, v in by_model.items()}
        mean_t = {k: float(np.mean([r.execution_seconds for r in v])) for k, v in by_model.items()}
        exact_seconds = float(
            np.mean([reference.reference(p).solve_seconds for p in calib])
        )

        # 5. Pareto candidates
        candidates = pareto_select(
            all_models,
            [mean_t[m.name] for m in all_models],
            [mean_q[m.name] for m in all_models],
        )
        log(f"pareto kept {len(candidates)} candidates")

        # default requirement: the input model's own statistics (paper Sec. 7)
        if requirement is None:
            requirement = UserRequirement(q=mean_q[base.name], t=exact_seconds)

        # 6. the success-rate MLP.  The paper trains it on the Pareto
        # candidates' records (14 models); at reduced scale the front holds
        # too few architectures for the MLP to learn architecture
        # sensitivity, so all constructed models' records are used — the
        # candidates are a subset, and queries only ever concern them.
        mlp = SuccessRateMLP.fit(
            records,
            {m.name: m.spec for m in all_models},
            topology=cfg.mlp_topology,
            epochs=cfg.mlp_epochs,
            n_samples_per_model=cfg.mlp_samples,
            rng=rng,
        )

        # 7. Eq. 8 selection.  The MLP's raw output is calibrated against
        # the empirical success rates observed on the calibration records:
        # with small record sets the sigmoid saturates, and an uncalibrated
        # 1.0 on a weak model would make it every run's starting model.
        from .records import success_rate as _success_rate

        calibrated = _CalibratedMLP(
            mlp,
            {
                name: _success_rate(recs, requirement.q, requirement.t)
                for name, recs in by_model.items()
            },
        )
        runtime = select_runtime_models(
            candidates,
            mean_t,
            calibrated,
            requirement.q,
            requirement.t,
            exact_seconds,
            cfg.max_runtime_models,
        )
        if not runtime:
            # fall back to the most accurate candidate so the runtime always
            # has something to run (the restart path still guards quality).
            # Score it at the actual requirement — an infinite time budget
            # must not leak into the MLP's t feature.
            best = min(candidates, key=lambda m: mean_q[m.name])
            prob = calibrated.predict(best.spec, requirement.q, requirement.t)
            runtime = [
                SelectedModel(
                    model=best,
                    success_prob=prob,
                    model_seconds=mean_t[best.name],
                    expected_seconds=expected_total_time(
                        prob, mean_t[best.name], exact_seconds
                    ),
                )
            ]
        log(f"selected {len(runtime)} runtime models")

        # 8. KNN databases from small problems
        small = generate_problems(cfg.n_small_problems, cfg.small_grid_size, split="train")
        small_ref = ReferenceCache(cfg.eval_steps, cfg.simulation)
        knn = QlossKNNPredictor(k=4)
        small_records = collect_execution_records(
            [s.model for s in runtime], small, small_ref, cfg.solver_passes
        )
        per_model: dict[str, list[tuple[float, float]]] = {}
        for r in small_records:
            per_model.setdefault(r.model_name, []).append(
                (r.cumdivnorm_final, r.quality_loss)
            )
        for name, pairs in per_model.items():
            knn.add_database(name, pairs)
        log("built KNN databases")

        framework = cls(
            runtime_models=runtime,
            knn=knn,
            requirement=requirement,
            mlp=mlp,
            candidates=candidates,
            records=records,
            config=cfg,
            exact_seconds=exact_seconds,
        )
        framework.input_model = base
        return framework

    # ------------------------------------------------------------------
    # online phase
    # ------------------------------------------------------------------
    def run(
        self,
        problem: InputProblem,
        n_steps: int | None = None,
        use_mlp_start: bool = True,
        upgrade_only: bool = False,
        check_interval: int | None = None,
        models_override: list[SelectedModel] | None = None,
        knn_override: QlossKNNPredictor | None = None,
        nn_precond: bool = False,
    ) -> AdaptiveRunResult:
        """Simulate one input problem with adaptive model switching.

        If the controller predicts the requirement cannot be met by any
        model, the run restarts with the exact PCG method; the wasted time
        is charged to the total, as Eq. 8 assumes.  With
        ``nn_precond=True`` the controller instead escalates *in place* to
        the exact NN-preconditioned CG solver
        (:class:`repro.fluid.NNPCGSolver` built from the most accurate
        runtime model's network) — no trajectory is discarded and no
        restart cost is paid.  ``check_interval``, ``models_override`` and
        ``knn_override`` support the paper's sensitivity and ablation
        studies (Figures 12-13).
        """
        cfg = self.config
        steps = n_steps or cfg.eval_steps
        models = models_override or self.runtime_models
        nn_pcg = None
        if nn_precond:
            from repro.fluid import NNPCGSolver

            # the most accurate candidate's network proposes the directions;
            # CG's exact line search makes the rung exact regardless
            most_accurate = max(models, key=lambda s: s.model_seconds)
            nn_pcg = NNPCGSolver(most_accurate.model.network)
        controller = AdaptiveController(
            models,
            knn_override or self.knn,
            self.requirement.q,
            steps,
            check_interval=check_interval or cfg.check_interval,
            skip_first=cfg.skip_first,
            passes=cfg.solver_passes,
            use_mlp_start=use_mlp_start,
            upgrade_only=upgrade_only,
            nn_pcg=nn_pcg,
        )
        grid, source = problem.materialize()
        sim = FluidSimulator(grid, controller.initial_solver(), source, cfg.simulation, controller)
        t0 = time.perf_counter()
        restarted = False
        with get_metrics().span(
            "adaptive", steps=steps, start_model=controller.current.name
        ) as sp:
            try:
                result = sim.run(steps)
            except RestartRequested:
                restarted = True
                result = run_problem(PCGSolver(), problem, steps, cfg.simulation)
            if sp is not None:
                sp.attrs["restarted"] = restarted
                sp.attrs["switches"] = len(controller.stats.switches)
        total = time.perf_counter() - t0
        solve = result.solve_seconds + (
            sum(controller.stats.solve_seconds_per_model.values()) if restarted else 0.0
        )
        return AdaptiveRunResult(
            result=result,
            stats=controller.stats,
            restarted=restarted,
            total_seconds=total,
            solve_seconds=solve,
        )

    # ------------------------------------------------------------------
    def evaluate(
        self, problems: list[InputProblem], n_steps: int | None = None, **run_kwargs
    ) -> list[tuple[AdaptiveRunResult, float]]:
        """Run many problems, returning (run, quality-loss-vs-PCG) pairs."""
        steps = n_steps or self.config.eval_steps
        reference = ReferenceCache(steps, self.config.simulation)
        out = []
        for problem in problems:
            run = self.run(problem, steps, **run_kwargs)
            ref = reference.reference(problem)
            out.append((run, quality_loss(ref.density, run.result.density)))
        return out
