"""Job schema of the simulation farm: :class:`JobSpec` and :class:`JobResult`.

A *job* is one complete simulation run described declaratively — scenario
(grid size + input-problem seed), solver configuration, step budget, quality
requirement and fault-tolerance policy.  Specs are frozen, hashable and
JSON round-trippable, so job lists can be generated, sharded across worker
processes, persisted and replayed.

A :class:`JobResult` is the worker's account of what actually happened:
terminal status, how many steps ran, which solver finished the job (it may
differ from the requested one after a degradation), whether the job resumed
from a checkpoint, retry count, wall/solve seconds, the final DivNorm
diagnostics and the worker's metrics snapshot.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = ["JobSpec", "JobResult", "SOLVER_CHOICES", "CACHE_KEY_VERSION"]

#: version field folded into every :meth:`JobSpec.cache_key`; bump it when
#: the semantic-field set or the canonicalisation changes, or when the bits
#: a spec computes change, so stale cache entries and checkpoints can never
#: be mistaken for current ones.
#: v2: ``model_dir`` is content-addressed (weights-manifest digest) instead
#: of canonicalising the directory *path* — retraining in place now re-keys
#: the job, and relocating identical weights keeps its key.
#: v3: fp64 ``nn`` inference runs the shift-and-GEMM convolution instead of
#: the im2col replay, so its results differ from v2's in the last bits.
#: v4: advection reads grid-point velocities exactly, so results differ from
#: v3's in the last bits.
#: v5: fp64 ``nn`` inference accumulates its conv products inside BLAS,
#: starting from the bias, so results differ from v4's in the last bits.
#: v6: ``nn-pcg`` inference runs the fp64 plan, the only one left, so an
#: ``nn-pcg`` spec without params computes other bits than v5's fp32 plan.
CACHE_KEY_VERSION = 6

#: solver identifiers a JobSpec may request
SOLVER_CHOICES = ("pcg", "jacobi-pcg", "jacobi", "multigrid", "spectral", "nn", "nn-pcg")


@dataclass(frozen=True)
class JobSpec:
    """Declarative description of one simulation run.

    Parameters
    ----------
    job_id:
        Unique identifier within a farm submission.
    grid_size, seed:
        Resolution and rng seed of the input problem.
    scenario:
        Scenario selector in the canonical ``name[:key=val,...]`` string
        form of :func:`repro.fluid.parse_scenario` (default
        ``smoke_plume``, the paper's workload).  The worker materialises it
        through the scenario registry with ``grid`` defaulted from
        ``grid_size`` and the rng seeded from ``seed``.
    steps:
        Step budget of the run.
    solver:
        Requested pressure solver (one of :data:`SOLVER_CHOICES`).
    solver_params:
        Keyword arguments forwarded to the solver constructor (e.g.
        ``{"tol": 1e-4}`` for PCG, ``{"passes": 2}`` for NN).
    model_dir:
        For ``solver="nn"`` / ``solver="nn-pcg"``: directory saved by
        :func:`repro.io.save_model` holding trained weights.  ``None``
        builds a seeded untrained Tompson-style network (useful for
        throughput work; the pure-NN solver then leans on the
        defect-correction passes and the divergence guard, while nn-pcg's
        safeguard keeps it exact regardless).
    divnorm_limit:
        Quality requirement: if a step's DivNorm exceeds this (or is not
        finite) the run is declared *diverged* and degrades to exact PCG.
        ``None`` disables the guard (non-finite values still trigger it).
    checkpoint_every:
        Save a checkpoint every N completed steps (0 disables).
    timeout_seconds:
        Wall-clock budget per attempt; the pool behind the farm's process
        backend and the serve tier kills and retries a worker exceeding
        it.  ``None`` means unbounded.
    max_retries:
        How many times the farm or the serve tier's pool may re-run the
        job after a worker fault (crash, timeout).  Retries resume from the
        latest checkpoint.
    fail_at_step:
        Fault injection for testing: trigger an artificial worker failure
        just before executing this step, on the first attempt only.
    fail_mode:
        Flavour of the injected failure: ``"raise"`` raises inside the
        stepping loop (exercises graceful degradation to PCG), ``"crash"``
        hard-kills the worker process (exercises the reap/retry and
        checkpoint-resume path of the farm and the serve tier; downgraded
        to ``"raise"`` when the job runs in-process, which only the serial
        farm backend does).
    """

    job_id: str
    grid_size: int = 32
    seed: int = 0
    scenario: str = "smoke_plume"
    steps: int = 16
    solver: str = "pcg"
    solver_params: dict = field(default_factory=dict)
    model_dir: str | None = None
    divnorm_limit: float | None = None
    checkpoint_every: int = 0
    timeout_seconds: float | None = None
    max_retries: int = 1
    fail_at_step: int | None = None
    fail_mode: str = "raise"

    def __post_init__(self):
        if self.solver not in SOLVER_CHOICES:
            raise ValueError(f"unknown solver {self.solver!r}; expected one of {SOLVER_CHOICES}")
        if self.fail_mode not in ("raise", "crash"):
            raise ValueError(f"unknown fail_mode {self.fail_mode!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        # validate + canonicalise the scenario string against the registry
        from repro.fluid.scenarios import get_scenario, parse_scenario

        sspec = parse_scenario(self.scenario)
        get_scenario(sspec.name)
        object.__setattr__(self, "scenario", sspec.to_string())
        # frozen dataclass: route around __setattr__ to normalise the dict
        object.__setattr__(self, "solver_params", dict(self.solver_params))

    @property
    def scenario_spec(self):
        """The parsed :class:`repro.fluid.ScenarioSpec` of this job."""
        from repro.fluid.scenarios import parse_scenario

        return parse_scenario(self.scenario)

    def _weights_fingerprint(self) -> dict | None:
        """Content address of the model weights (``None`` without a model).

        A manifest digest: SHA-256 over each file's relative name and
        content hash, sorted, covering everything under ``model_dir``
        (``arch.json``/``weights.npz``/``meta.json`` for
        :func:`repro.io.save_model` outputs).  Identical weights keep the
        same fingerprint wherever the directory lives; retraining in place
        changes it.  A missing/empty directory falls back to the raw path
        (``{"path": ...}`` — structurally distinct from any digest) so key
        computation never raises for not-yet-materialised weights.
        """
        if self.model_dir is None:
            return None
        root = Path(self.model_dir)
        files = sorted(p for p in root.rglob("*") if p.is_file()) if root.is_dir() else []
        if not files:
            return {"path": str(self.model_dir)}
        h = hashlib.sha256()
        for p in files:
            h.update(p.relative_to(root).as_posix().encode("utf-8"))
            h.update(b"\0")
            h.update(hashlib.sha256(p.read_bytes()).digest())
        return {"sha256": h.hexdigest()}

    def _semantic_payload(self, with_steps: bool) -> dict:
        """The canonical document behind :meth:`cache_key`/:attr:`state_key`.

        Only fields that determine what the simulation *computes* appear;
        ``job_id``, checkpointing cadence/paths, timeouts, retry budgets
        and fault injection change how a job runs, never its output, and
        are deliberately excluded.  Model weights enter by *content*
        (:meth:`_weights_fingerprint`), never by path.
        """
        payload = {
            "v": CACHE_KEY_VERSION,
            "scenario": self.scenario,
            "grid_size": self.grid_size,
            "seed": self.seed,
            "solver": self.solver,
            "solver_params": self.solver_params,
            "model_weights": self._weights_fingerprint(),
            "divnorm_limit": self.divnorm_limit,
        }
        if with_steps:
            payload["steps"] = self.steps
        return payload

    def _digest(self, with_steps: bool) -> str:
        canonical = json.dumps(
            self._semantic_payload(with_steps), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def cache_key(self) -> str:
        """Deterministic content address of this job's *result* identity.

        The SHA-256 hex digest of a canonical JSON document over the fields
        that determine the simulation's output — scenario, grid size, seed,
        step budget, solver + parameters, model weights *content* and the
        DivNorm requirement — so two specs with equal keys produce
        bit-identical results.  The serve tier's result cache
        (:mod:`repro.serve.cache`) is addressed by this key.
        """
        return self._digest(with_steps=True)

    @property
    def state_key(self) -> str:
        """Content address of the job's *trajectory* identity.

        Same canonicalisation as :meth:`cache_key` minus the step budget: a
        checkpoint is a prefix of a trajectory, so it stays valid when the
        same run is resubmitted with a larger ``steps`` — while any change
        to the dynamics (scenario, seed, solver, requirement) re-keys it.
        """
        return self._digest(with_steps=False)

    @property
    def checkpoint_key(self) -> str:
        """Checkpoint-file stem: job id, scenario slug, trajectory-key prefix.

        The scenario slug keeps the name human-readable; the
        :attr:`state_key` prefix keeps a reused job id from silently
        resuming a checkpoint written under *any* different dynamics
        (other solver, seed, requirement — not just another scenario).
        """
        return f"{self.job_id}.{self.scenario_spec.slug}.{self.state_key[:8]}"

    def to_dict(self) -> dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(**d)


@dataclass
class JobResult:
    """Outcome of one job as reported by the worker that finished it."""

    job_id: str
    status: str  # "completed" | "failed" | "cancelled"
    steps_done: int = 0
    solver_used: str = ""
    degraded: bool = False
    resumed_from: int | None = None
    retries: int = 0
    wall_seconds: float = 0.0
    solve_seconds: float = 0.0
    final_divnorm: float = float("nan")
    cum_divnorm: float = 0.0
    error: str | None = None
    #: True when this result was served from a content-addressed result
    #: cache (:mod:`repro.serve`) instead of being re-simulated
    cached: bool = False
    metrics: dict = field(default_factory=dict)
    #: tracer snapshot (:meth:`repro.trace.Tracer.to_dict`) when the farm
    #: ran with tracing enabled; empty dict otherwise
    trace: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the job ran its full step budget."""
        return self.status == "completed"

    def to_dict(self) -> dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "JobResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(**d)
