"""The Eulerian fluid simulator (the paper's Algorithm 1).

Each time step performs, in order:

1. smoke emission (scenario source),
2. advection of density and velocity (semi-Lagrangian, optionally
   MacCormack),
3. body forces (buoyancy, optional vorticity confinement),
4. pressure projection with the configured solver.

After the projection the simulator records the step's ``DivNorm`` (Eq. 5 of
the paper) and timing diagnostics.  A *controller* hook — invoked with the
step record — may replace ``simulator.solver`` between steps; this is how the
Smart-fluidnet runtime switches networks (Algorithm 2), and how it requests a
restart with the exact method.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.ndimage import distance_transform_edt

from repro.metrics import MetricsRegistry, get_metrics
from repro.trace import Event, get_tracer

from .advection import advect_scalar, advect_velocity, maccormack_scalar
from .forces import add_buoyancy, add_vorticity_confinement
from .grid import MACGrid2D
from .operators import divergence
from .projection import PressureSolver, ProjectionInfo, project
from .scenarios import SmokeSource

__all__ = ["SimulationConfig", "StepRecord", "SimulationResult", "FluidSimulator", "RestartRequested"]


class RestartRequested(Exception):
    """Raised by a controller to abort the run and restart with PCG."""


@dataclass
class SimulationConfig:
    """Physical and numerical parameters of a run."""

    dt: float = 0.05
    rho: float = 1.0
    buoyancy: float = 1.0
    vorticity_eps: float = 0.0
    maccormack: bool = False
    divnorm_k: float = 3.0  # weighting distance k in w_i = max(1, k - d_i)


@dataclass
class StepRecord:
    """Diagnostics collected after each simulation step."""

    step: int
    divnorm: float
    projection: ProjectionInfo
    step_seconds: float


@dataclass
class SimulationResult:
    """Outcome of a complete run."""

    density: np.ndarray
    records: list[StepRecord]
    total_seconds: float
    restarts: int = 0
    #: DivNorm of steps executed before a checkpoint restore (empty if none)
    restored_divnorms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: typed step-event timeline of the whole trajectory (``divnorm``/``step``
    #: events, pre-restore prefix included); see :mod:`repro.trace`
    timeline: list[Event] = field(default_factory=list)

    @property
    def divnorm_history(self) -> np.ndarray:
        """DivNorm of every step *in this run segment*, in order.

        After a checkpoint restore this covers only post-restore steps; use
        :attr:`full_divnorm_history` for the whole trajectory.
        """
        return np.array([r.divnorm for r in self.records])

    @property
    def full_divnorm_history(self) -> np.ndarray:
        """DivNorm of the whole trajectory, pre-restore prefix included.

        A thin adapter over the ``divnorm`` events of :attr:`timeline`
        (falling back to :attr:`restored_divnorms` for results built
        without one).
        """
        if self.timeline:
            events = sorted(
                (e for e in self.timeline if e.type == "divnorm"),
                key=lambda e: e.step if e.step is not None else -1,
            )
            return np.array([e.attrs["value"] for e in events], dtype=np.float64)
        return np.concatenate([np.asarray(self.restored_divnorms, dtype=np.float64), self.divnorm_history])

    @property
    def cumdivnorm_history(self) -> np.ndarray:
        """CumDivNorm (Eq. 9): running sum of DivNorm."""
        return np.cumsum(self.divnorm_history)

    @property
    def solve_seconds(self) -> float:
        """Total time spent in the pressure solver."""
        return sum(r.projection.solve_seconds for r in self.records)

    @property
    def total_flops(self) -> float:
        """Total estimated pressure-solve FLOPs."""
        return sum(r.projection.flops for r in self.records)


def divnorm_weights(solid: np.ndarray, k: float = 3.0) -> np.ndarray:
    """DivNorm cell weights ``w_i = max(1, k - d_i)`` (Eq. 5).

    ``d_i`` is 0 in solid cells and the Euclidean distance to the nearest
    solid cell in fluid cells; grid boundaries count as solid (border wall).
    """
    dist = distance_transform_edt(~solid)
    return np.maximum(1.0, k - dist)


def compute_divnorm(grid: MACGrid2D, weights: np.ndarray) -> float:
    """Weighted squared-divergence objective (Eq. 5) of the current velocity."""
    div = divergence(grid)
    return float((weights * div**2)[grid.fluid].sum())


class FluidSimulator:
    """Run a scenario simulation with a pluggable pressure solver.

    ``source`` is the scenario driver (historically a
    :class:`~repro.fluid.scenarios.SmokeSource`; any
    :class:`~repro.fluid.scenarios.ScenarioDriver` works): it acts on the
    grid at the start of each step and its checkpointable state rides along
    in :meth:`save_state` under ``scenario/`` keys.  Scenarios with
    time-varying solid masks (moving obstacles) are supported — the DivNorm
    weights re-key automatically when the mask changes.
    """

    def __init__(
        self,
        grid: MACGrid2D,
        solver: PressureSolver,
        source: SmokeSource | None = None,
        config: SimulationConfig | None = None,
        controller: Callable[["FluidSimulator", StepRecord], None] | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.grid = grid
        self.solver = solver
        self.source = source
        self.config = config or SimulationConfig()
        self.controller = controller
        self.metrics = metrics
        self.weights = divnorm_weights(grid.solid, self.config.divnorm_k)
        self._weights_key = grid.solid.tobytes()
        self.records: list[StepRecord] = []
        self._step = 0
        #: typed step-event stream of the whole trajectory (always recorded;
        #: ``load_state`` restores the pre-restore prefix into it)
        self.timeline: list[Event] = []
        #: step index where the current segment began (0 unless restored)
        self._segment_start = 0

    def _registry(self) -> MetricsRegistry:
        return self.metrics if self.metrics is not None else get_metrics()

    def _refresh_weights(self) -> None:
        """Recompute DivNorm weights when the solid mask has changed.

        Moving-obstacle scenarios rewrite the flags every step; the weights
        (distance-to-solid based, Eq. 5) must track them.  Static scenarios
        pay only a cheap ``tobytes`` comparison.
        """
        key = self.grid.solid.tobytes()
        if key != self._weights_key:
            self._weights_key = key
            self.weights = divnorm_weights(self.grid.solid, self.config.divnorm_k)

    def step(self) -> StepRecord:
        """Advance the simulation by one time step."""
        cfg = self.config
        g = self.grid
        m = self._registry()
        t0 = time.perf_counter()
        with m.scope("sim"), m.span("step", step=self._step):
            if self.source is not None:
                self.source.apply(g, cfg.dt)
            with m.span("advection"):
                if cfg.maccormack:
                    g.density = maccormack_scalar(g, g.density, cfg.dt)
                else:
                    g.density = advect_scalar(g, g.density, cfg.dt)
                new_u, new_v = advect_velocity(g, cfg.dt)
                g.u, g.v = new_u, new_v
            g.enforce_solid_boundaries()
            with m.span("forces"):
                add_buoyancy(g, cfg.dt, cfg.buoyancy)
                if cfg.vorticity_eps > 0:
                    add_vorticity_confinement(g, cfg.dt, cfg.vorticity_eps)
            info = project(g, self.solver, cfg.dt, cfg.rho, metrics=m)
            self._refresh_weights()
            divnorm = compute_divnorm(g, self.weights)
            rec = StepRecord(
                step=self._step,
                divnorm=divnorm,
                projection=info,
                step_seconds=time.perf_counter() - t0,
            )
            m.inc("steps")
        # the typed step-event stream: always recorded (it is the source of
        # truth for divnorm trajectories), mirrored into the tracer when on
        now = time.time()
        ev_div = Event(
            type="divnorm", step=rec.step, t=now, attrs={"value": float(divnorm)}
        )
        ev_step = Event(
            type="step",
            step=rec.step,
            t=now,
            attrs={
                "seconds": float(rec.step_seconds),
                "solver": info.solver_name,
                "iterations": int(info.iterations),
            },
        )
        self.timeline.append(ev_div)
        self.timeline.append(ev_step)
        tr = get_tracer()
        tr.record(ev_div)
        tr.record(ev_step)
        self.records.append(rec)
        self._step += 1
        if self.controller is not None:
            self.controller(self, rec)
        return rec

    def run(self, n_steps: int) -> SimulationResult:
        """Run ``n_steps`` steps and return the result (density + records)."""
        t0 = time.perf_counter()
        with self._registry().span("sim", steps=n_steps, start_step=self._step):
            for _ in range(n_steps):
                self.step()
        return SimulationResult(
            density=self.grid.density.copy(),
            records=list(self.records),
            total_seconds=time.perf_counter() - t0,
            restored_divnorms=self._restored_divnorm_values(),
            timeline=list(self.timeline),
        )

    @property
    def current_step(self) -> int:
        """Index of the next step to execute (= steps completed so far)."""
        return self._step

    def _restored_divnorm_values(self) -> np.ndarray:
        """DivNorm values of pre-restore steps, from the event timeline."""
        events = sorted(
            (
                e
                for e in self.timeline
                if e.type == "divnorm"
                and e.step is not None
                and e.step < self._segment_start
            ),
            key=lambda e: e.step,
        )
        return np.array([e.attrs["value"] for e in events], dtype=np.float64)

    @property
    def full_divnorm_history(self) -> np.ndarray:
        """DivNorm of every step executed so far, across checkpoint restores.

        A thin adapter over the ``divnorm`` events of :attr:`timeline`,
        which spans the whole trajectory — :meth:`load_state` restores the
        pre-restore prefix into it, so trajectory-level diagnostics never
        silently lose the pre-restore steps.
        """
        events = sorted(
            (e for e in self.timeline if e.type == "divnorm"),
            key=lambda e: e.step if e.step is not None else -1,
        )
        return np.array([e.attrs["value"] for e in events], dtype=np.float64)

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def save_state(self) -> dict[str, np.ndarray]:
        """Snapshot the simulation state as a dict of arrays.

        The snapshot captures everything the time-stepping loop reads — the
        MAC-grid fields, the cell flags and the step counter — plus the
        step-event timeline (JSON-encoded), which carries the DivNorm
        history.  It deliberately excludes the solver (rebuilt from
        configuration; its per-geometry caches repopulate on the first
        post-restore step) and the per-step records (their
        ``ProjectionInfo`` is diagnostic, not state).  The dict is
        ``np.savez``-compatible; see :mod:`repro.farm.checkpoint`.
        """
        g = self.grid
        state = {
            "step": np.asarray(self._step, dtype=np.int64),
            "dx": np.asarray(g.dx, dtype=np.float64),
            "u": g.u.copy(),
            "v": g.v.copy(),
            "pressure": g.pressure.copy(),
            "density": g.density.copy(),
            "flags": g.flags.copy(),
            "timeline": np.asarray(
                json.dumps([e.to_dict() for e in self.timeline])
            ),
        }
        # scenario drivers (level sets, moving solids) ride along under
        # namespaced keys so free-surface/moving-obstacle jobs resume exactly
        if self.source is not None and hasattr(self.source, "state_arrays"):
            for key, value in self.source.state_arrays().items():
                state[f"scenario/{key}"] = value
        return state

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore a :meth:`save_state` snapshot onto this simulator.

        The grid must have the same resolution as the snapshot.  Restoring
        replaces the flags (and hence the DivNorm weights, recomputed from
        the restored solid mask), resets the per-step records, and asks the
        solver to drop caches keyed on the old geometry.
        """
        g = self.grid
        u, v = np.asarray(state["u"]), np.asarray(state["v"])
        if u.shape != g.u.shape or v.shape != g.v.shape:
            raise ValueError(
                f"checkpoint grid {np.asarray(state['flags']).shape} does not match "
                f"simulator grid {g.shape}"
            )
        g.u = u.copy()
        g.v = v.copy()
        g.pressure = np.asarray(state["pressure"]).copy()
        g.density = np.asarray(state["density"]).copy()
        g.flags = np.asarray(state["flags"]).astype(g.flags.dtype).copy()
        g.dx = float(state["dx"])
        self.weights = divnorm_weights(g.solid, self.config.divnorm_k)
        self._weights_key = g.solid.tobytes()
        scenario = {
            k[len("scenario/"):]: v for k, v in state.items() if k.startswith("scenario/")
        }
        if scenario and self.source is not None and hasattr(self.source, "load_state_arrays"):
            self.source.load_state_arrays(scenario)
        self._step = int(state["step"])
        self.records = []
        self._segment_start = self._step
        payload = np.asarray(state["timeline"]).item()
        self.timeline = [Event.from_dict(d) for d in json.loads(payload)]
        if hasattr(self.solver, "reset"):
            self.solver.reset()
