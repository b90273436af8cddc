"""The scenario universe: registry-driven simulation workloads.

The paper evaluates one workload class — the randomised 2-D smoke plume — so
historically this module held exactly that generator.  It is now a registry
of *scenarios*: named, parameterised workload builders spanning smoke plumes,
side-mounted inflow jets, moving solid obstacles, vortex-street and
plume-collision configurations, and free-surface liquids (dam break,
sloshing tank) backed by :mod:`repro.fluid.levelset`.

The pieces:

* :class:`ScenarioSpec` — a frozen, hashable, JSON-round-trippable value
  (``name`` + scalar params) identifying one scenario instance.  The
  canonical string form ``name:key=val,key=val`` is what the CLI's
  ``--scenario`` flag accepts (:func:`parse_scenario`).
* the registry — :func:`register_scenario` (decorator),
  :func:`build_scenario` (spec + rng → ``(grid, driver)``),
  :func:`list_scenarios` / :func:`get_scenario` for discovery, with
  per-scenario parameter docs (:class:`ScenarioParam`).
* drivers — a scenario's *driver* is the per-step actor handed to
  :class:`~repro.fluid.simulator.FluidSimulator` as its ``source``:
  :class:`SmokeSource` (emission + directional inflow),
  :class:`MovingSolidDriver` (prescribed-motion obstacles),
  :class:`CompositeDriver` (several drivers in sequence) and
  :class:`~repro.fluid.levelset.LevelSetDriver` (free surfaces).  Drivers
  may carry ``config_overrides`` (simulation-config tweaks), wrap the
  pressure solver (``wrap_solver``) and participate in checkpoints
  (``state_arrays`` / ``load_state_arrays``).

:func:`make_smoke_plume` remains as the legacy entry point; its keyword
sprawl is deprecated in favour of ``build_scenario(ScenarioSpec(...))``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import disc_mask, random_obstacles
from .grid import CellType, MACGrid2D
from .levelset import LevelSetDriver, signed_distance
from .turbulence import apply_turbulent_velocity

__all__ = [
    "ScenarioSpec",
    "ScenarioParam",
    "ScenarioInfo",
    "ScenarioDriver",
    "SmokeSource",
    "CompositeDriver",
    "MovingSolidDriver",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "build_scenario",
    "parse_scenario",
    "make_smoke_plume",
]

_SCALARS = (bool, int, float, str)
_RESERVED_CHARS = (",", "=", ":")


def _format_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_value(text: str):
    low = text.lower()
    if low in ("none", "null"):
        return None
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


class ScenarioSpec:
    """A frozen, hashable identifier of one scenario instance.

    ``name`` selects a registered scenario; ``params`` carry scalar
    overrides (int/float/bool/str, or ``None`` meaning "use the scenario's
    randomised default").  Specs round-trip through JSON dicts
    (:meth:`to_dict`/:meth:`from_dict`) and through the canonical CLI
    string ``name:key=val,key=val`` (:meth:`to_string`/
    :func:`parse_scenario`); parameters are kept sorted so equal specs
    always serialise identically.
    """

    __slots__ = ("name", "params")

    def __init__(self, name: str, /, **params):
        if not name or not isinstance(name, str):
            raise ValueError(f"scenario name must be a non-empty string, got {name!r}")
        if any(c in name for c in _RESERVED_CHARS):
            raise ValueError(f"scenario name {name!r} contains a reserved character")
        for key, value in params.items():
            if value is not None and not isinstance(value, _SCALARS):
                raise TypeError(
                    f"scenario parameter {key!r} must be a scalar "
                    f"(int/float/bool/str/None), got {type(value).__name__}"
                )
            if isinstance(value, str) and any(c in value for c in _RESERVED_CHARS):
                raise ValueError(f"scenario parameter {key}={value!r} contains a reserved character")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", tuple(sorted(params.items())))

    def __setattr__(self, name, value):
        raise AttributeError("ScenarioSpec is frozen")

    def __delattr__(self, name):
        raise AttributeError("ScenarioSpec is frozen")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScenarioSpec)
            and self.name == other.name
            and self.params == other.params
        )

    def __hash__(self) -> int:
        return hash((self.name, self.params))

    def __repr__(self) -> str:
        return f"ScenarioSpec({self.to_string()!r})"

    def get(self, key: str, default=None):
        """The value of parameter ``key``, or ``default`` if absent."""
        return dict(self.params).get(key, default)

    def with_defaults(self, **defaults) -> "ScenarioSpec":
        """A spec with ``defaults`` filled in for parameters not yet set."""
        have = dict(self.params)
        missing = {k: v for k, v in defaults.items() if k not in have}
        if not missing:
            return self
        return ScenarioSpec(self.name, **have, **missing)

    def to_string(self) -> str:
        """Canonical ``name:key=val,key=val`` form (sorted parameters)."""
        if not self.params:
            return self.name
        body = ",".join(f"{k}={_format_value(v)}" for k, v in self.params)
        return f"{self.name}:{body}"

    def to_dict(self) -> dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(d["name"], **dict(d.get("params") or {}))

    @property
    def slug(self) -> str:
        """Filesystem-safe identifier; parameterised specs get a hash suffix."""
        if not self.params:
            return self.name
        digest = hashlib.sha1(self.to_string().encode()).hexdigest()[:8]
        return f"{self.name}-{digest}"


def parse_scenario(text: "str | ScenarioSpec") -> ScenarioSpec:
    """Parse the CLI scenario syntax ``name[:key=val,key=val]`` into a spec.

    Values parse as ``none``/``true``/``false``, int, float, then string.
    Passing an existing :class:`ScenarioSpec` returns it unchanged.
    """
    if isinstance(text, ScenarioSpec):
        return text
    name, sep, rest = text.strip().partition(":")
    params: dict = {}
    if sep:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key.strip():
                raise ValueError(
                    f"malformed scenario parameter {item!r} in {text!r}; "
                    "expected name:key=val,key=val"
                )
            params[key.strip()] = _parse_value(value.strip())
    return ScenarioSpec(name.strip(), **params)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioParam:
    """One declared scenario parameter: name, default and doc line."""

    name: str
    default: object
    doc: str = ""


@dataclass(frozen=True)
class ScenarioInfo:
    """A registry entry: builder plus its declared parameter schema."""

    name: str
    description: str
    params: tuple
    builder: Callable


_REGISTRY: dict[str, ScenarioInfo] = {}


def register_scenario(name: str, description: str = "", params: tuple = ()):
    """Decorator registering ``builder(params, rng) -> (grid, driver)``.

    ``params`` declares the accepted parameters with defaults and doc
    lines; :func:`build_scenario` merges them with the spec's overrides and
    rejects undeclared names.
    """

    def decorator(builder: Callable) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        _REGISTRY[name] = ScenarioInfo(
            name=name, description=description, params=tuple(params), builder=builder
        )
        return builder

    return decorator


def get_scenario(name: str) -> ScenarioInfo:
    """The registry entry for ``name`` (ValueError when unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown scenario {name!r}; registered: {known}") from None


def list_scenarios() -> list[ScenarioInfo]:
    """All registered scenarios, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def build_scenario(
    spec: "ScenarioSpec | str", rng: "np.random.Generator | int | None" = None
):
    """Materialise a scenario: validated spec + rng → ``(grid, driver)``.

    The driver is the simulator's per-step ``source`` (possibly a
    :class:`CompositeDriver`); pass it to
    :class:`~repro.fluid.simulator.FluidSimulator` together with the grid,
    and let it wrap the pressure solver (``driver.wrap_solver``) and
    override simulation-config fields (``driver.config_overrides``).
    """
    spec = parse_scenario(spec)
    info = get_scenario(spec.name)
    declared = {p.name for p in info.params}
    given = dict(spec.params)
    unknown = sorted(set(given) - declared)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {unknown} for scenario {spec.name!r}; "
            f"declared: {sorted(declared)}"
        )
    merged = {p.name: p.default for p in info.params}
    merged.update(given)
    return info.builder(merged, np.random.default_rng(rng))


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
class ScenarioDriver:
    """Base class of scenario drivers (the simulator's ``source`` hook).

    A driver is called once per step *before* advection (``apply``), may
    replace the pressure solver (``wrap_solver``, e.g. the level-set
    driver's liquid-only solve), may override simulation-config fields
    (``config_overrides``) and contributes named arrays to checkpoints
    (``state_arrays`` / ``load_state_arrays``).  All hooks default to
    no-ops so stateless emitters stay trivial.
    """

    #: :class:`~repro.fluid.simulator.SimulationConfig` field overrides
    config_overrides: dict = {}

    def apply(self, grid: MACGrid2D, dt: float) -> None:
        """Act on the grid at the start of one step."""

    def wrap_solver(self, solver):
        """Optionally replace the configured pressure solver."""
        return solver

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Checkpointable driver state (empty for stateless drivers)."""
        return {}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore state saved by :meth:`state_arrays`."""


_DIRECTIONS = ("up", "down", "left", "right")


@dataclass
class SmokeSource(ScenarioDriver):
    """A region that continuously emits smoke with a directional inflow.

    Attributes
    ----------
    mask:
        Boolean (ny, nx) emission region.
    rate:
        Density added per unit time inside the region (clamped to 1).
    inflow:
        Inflow speed imposed on the faces adjacent to the region.
    direction:
        Which way the inflow points: ``"up"`` (the classic plume, negative
        v), ``"down"``, ``"left"`` or ``"right"`` (u faces — side-mounted
        jets).

    Emission and inflow are clamped against the *current* solid mask every
    application, so a moving obstacle sweeping through the source region
    masks it rather than being overwritten.
    """

    mask: np.ndarray
    rate: float = 2.0
    inflow: float = 0.8
    direction: str = "up"

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"unknown direction {self.direction!r}; expected one of {_DIRECTIONS}"
            )

    def apply(self, grid: MACGrid2D, dt: float) -> None:
        """Emit smoke and impose the inflow velocity (in place)."""
        solid = grid.solid
        emit = self.mask & ~solid
        grid.density[emit] = np.minimum(grid.density[emit] + self.rate * dt, 1.0)
        if self.direction in ("up", "down"):
            faces = np.zeros((grid.ny + 1, grid.nx), dtype=bool)
            faces[:-1, :] |= emit
            faces[1:, :] |= emit
            blocked = np.zeros_like(faces)
            blocked[:-1, :] |= solid
            blocked[1:, :] |= solid
            faces &= ~blocked
            grid.v[faces] = -self.inflow if self.direction == "up" else self.inflow
        else:
            faces = np.zeros((grid.ny, grid.nx + 1), dtype=bool)
            faces[:, :-1] |= emit
            faces[:, 1:] |= emit
            blocked = np.zeros_like(faces)
            blocked[:, :-1] |= solid
            blocked[:, 1:] |= solid
            faces &= ~blocked
            grid.u[faces] = self.inflow if self.direction == "right" else -self.inflow
        grid.enforce_solid_boundaries()


class CompositeDriver(ScenarioDriver):
    """Several drivers applied in sequence (one scenario, many actors).

    ``config_overrides`` merge left to right; checkpoint arrays are
    namespaced by child index so stateful children round-trip unchanged.
    """

    def __init__(self, *drivers):
        self.drivers = list(drivers)
        overrides: dict = {}
        for d in self.drivers:
            overrides.update(getattr(d, "config_overrides", {}))
        self.config_overrides = overrides

    def apply(self, grid: MACGrid2D, dt: float) -> None:
        for d in self.drivers:
            d.apply(grid, dt)

    def wrap_solver(self, solver):
        for d in self.drivers:
            solver = d.wrap_solver(solver)
        return solver

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, d in enumerate(self.drivers):
            for key, value in d.state_arrays().items():
                out[f"{i}/{key}"] = value
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for i, d in enumerate(self.drivers):
            prefix = f"{i}/"
            sub = {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}
            if sub:
                d.load_state_arrays(sub)


class MovingSolidDriver(ScenarioDriver):
    """A solid obstacle following a prescribed trajectory.

    ``mask_at(t)`` returns the obstacle's boolean cell mask at time ``t``;
    ``velocity_at(t)`` its rigid velocity ``(vx, vy)`` in world units.
    Each step the driver clears the previous dynamic solid cells back to
    fluid, stamps the new mask, prescribes the solid velocity on the grid
    (:meth:`MACGrid2D.set_solid_velocity` — the projection then sees the
    motion as a normal-velocity boundary condition) and purges smoke from
    inside the solid.  Because the solid mask changes between steps, every
    ``MaskKeyedCache``-backed artefact (MIC(0) factors, geometry kernels,
    the NN solver's geometry channel) re-keys automatically.
    """

    def __init__(self, base_solid: np.ndarray, mask_at: Callable, velocity_at: Callable):
        self.base_solid = np.asarray(base_solid, dtype=bool).copy()
        self.mask_at = mask_at
        self.velocity_at = velocity_at
        self.t = 0.0

    def apply(self, grid: MACGrid2D, dt: float) -> None:
        self.t += dt
        mask = np.asarray(self.mask_at(self.t), dtype=bool) & ~self.base_solid
        vx, vy = self.velocity_at(self.t)
        dyn_old = grid.solid & ~self.base_solid
        grid.flags[dyn_old & ~mask] = CellType.FLUID
        grid.flags[mask] = CellType.SOLID
        solid_u = np.zeros(grid.shape, dtype=np.float64)
        solid_v = np.zeros(grid.shape, dtype=np.float64)
        solid_u[mask] = vx
        solid_v[mask] = vy
        grid.set_solid_velocity(solid_u, solid_v)
        grid.density[mask] = 0.0
        grid.enforce_solid_boundaries()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {"t": np.asarray(self.t, dtype=np.float64)}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.t = float(np.asarray(arrays["t"]))


# ----------------------------------------------------------------------
# scenario builders
# ----------------------------------------------------------------------
def _build_smoke_plume(
    nx: int,
    ny: int,
    rng: "np.random.Generator | int | None" = None,
    with_obstacles: bool = True,
    turbulence_magnitude: "float | None" = None,
    n_objects: "int | None" = None,
) -> tuple[MACGrid2D, SmokeSource]:
    rng = np.random.default_rng(rng)
    grid = MACGrid2D(nx, ny)
    if with_obstacles:
        grid.add_solid(random_obstacles((ny, nx), rng, n_objects=n_objects))
    if turbulence_magnitude is None:
        turbulence_magnitude = float(rng.uniform(0.3, 1.0))
    apply_turbulent_velocity(grid, rng, magnitude=turbulence_magnitude)

    # source: a horizontal strip near the bottom centre, kept off obstacles
    mask = np.zeros((ny, nx), dtype=bool)
    w = max(2, nx // 6)
    cx = nx // 2 + int(rng.integers(-nx // 8, nx // 8 + 1))
    x0 = int(np.clip(cx - w // 2, 1, nx - 1 - w))
    y0 = ny - 1 - max(2, ny // 10)
    mask[y0 : y0 + 2, x0 : x0 + w] = True
    mask &= ~grid.solid
    source = SmokeSource(mask=mask)
    source.apply(grid, dt=0.5)  # seed a little smoke so frame 0 is not empty
    return grid, source


def _bottom_source_mask(n: int) -> np.ndarray:
    """The centred bottom emission strip shared by several scenarios."""
    mask = np.zeros((n, n), dtype=bool)
    w = max(2, n // 6)
    x0 = (n - w) // 2
    y0 = n - 1 - max(2, n // 10)
    mask[y0 : y0 + 2, x0 : x0 + w] = True
    return mask


@register_scenario(
    "smoke_plume",
    description="the paper's randomised buoyant smoke plume (turbulent start, random obstacles)",
    params=(
        ScenarioParam("grid", 32, "grid resolution (NxN)"),
        ScenarioParam("with_obstacles", True, "drop random solid obstacles"),
        ScenarioParam("turbulence", None, "initial turbulence magnitude (none = randomised)"),
        ScenarioParam("n_objects", None, "number of random obstacles (none = randomised)"),
    ),
)
def _scenario_smoke_plume(params: dict, rng: np.random.Generator):
    turbulence = params["turbulence"]
    n_objects = params["n_objects"]
    return _build_smoke_plume(
        int(params["grid"]),
        int(params["grid"]),
        rng=rng,
        with_obstacles=bool(params["with_obstacles"]),
        turbulence_magnitude=None if turbulence is None else float(turbulence),
        n_objects=None if n_objects is None else int(n_objects),
    )


@register_scenario(
    "inflow_jet",
    description="side-mounted jet emitter driving a shear layer across the box",
    params=(
        ScenarioParam("grid", 32, "grid resolution (NxN)"),
        ScenarioParam("speed", 1.2, "jet inflow speed"),
        ScenarioParam("height", 0.5, "jet centre height as a fraction of the box"),
        ScenarioParam("width", 0.25, "jet thickness as a fraction of the box"),
        ScenarioParam("side", "left", "wall the jet enters from (left or right)"),
    ),
)
def _scenario_inflow_jet(params: dict, rng: np.random.Generator):
    n = int(params["grid"])
    grid = MACGrid2D(n, n)
    half = max(1, int(round(0.5 * float(params["width"]) * n)))
    cy = int(round(float(params["height"]) * n))
    y0 = max(1, cy - half)
    y1 = min(n - 1, cy + half)
    mask = np.zeros((n, n), dtype=bool)
    if params["side"] == "left":
        mask[y0:y1, 1:3] = True
        direction = "right"
    elif params["side"] == "right":
        mask[y0:y1, n - 3 : n - 1] = True
        direction = "left"
    else:
        raise ValueError(f"inflow_jet side must be 'left' or 'right', got {params['side']!r}")
    source = SmokeSource(
        mask=mask, rate=1.5, inflow=float(params["speed"]), direction=direction
    )
    source.apply(grid, dt=0.5)
    return grid, source


@register_scenario(
    "moving_cylinder",
    description="oscillating solid disc sweeping through a buoyant plume",
    params=(
        ScenarioParam("grid", 32, "grid resolution (NxN)"),
        ScenarioParam("radius", 0.12, "disc radius as a fraction of the box"),
        ScenarioParam("period", 3.2, "oscillation period in time units"),
        ScenarioParam("amplitude", 0.22, "sweep amplitude as a fraction of the box"),
    ),
)
def _scenario_moving_cylinder(params: dict, rng: np.random.Generator):
    n = int(params["grid"])
    grid = MACGrid2D(n, n)
    radius = max(1.5, float(params["radius"]) * n)
    amplitude = float(params["amplitude"]) * n
    omega = 2.0 * np.pi / float(params["period"])
    cx0, cy = 0.5 * n, 0.45 * n
    shape, dx = (n, n), grid.dx

    def mask_at(t: float) -> np.ndarray:
        return disc_mask(shape, cx0 + amplitude * np.sin(omega * t), cy, radius)

    def velocity_at(t: float) -> tuple[float, float]:
        return (amplitude * dx * omega * np.cos(omega * t), 0.0)

    mover = MovingSolidDriver(grid.solid.copy(), mask_at, velocity_at)
    source = SmokeSource(mask=_bottom_source_mask(n))
    mover.apply(grid, dt=0.0)  # place the disc without advancing its clock
    source.apply(grid, dt=0.5)  # seed frame 0
    return grid, CompositeDriver(mover, source)


@register_scenario(
    "karman_street",
    description="constant side inflow past a fixed disc (Karman-vortex-street setup)",
    params=(
        ScenarioParam("grid", 32, "grid resolution (NxN)"),
        ScenarioParam("speed", 1.5, "inflow speed at the left wall"),
        ScenarioParam("radius", 0.08, "disc radius as a fraction of the box"),
    ),
)
def _scenario_karman_street(params: dict, rng: np.random.Generator):
    n = int(params["grid"])
    grid = MACGrid2D(n, n)
    radius = max(2.0, float(params["radius"]) * n)
    grid.add_solid(disc_mask((n, n), 0.3 * n, 0.5 * n, radius))
    speed = float(params["speed"])
    # the box is sealed (solid border), so a full-height wind strip would be
    # cancelled by the projection; drive only the middle half and let the
    # return flow use the outer quarters
    inflow_mask = np.zeros((n, n), dtype=bool)
    inflow_mask[n // 4 : n - n // 4, 1:3] = True
    # dye only a centreline band so the street is visible in the density
    dye = np.zeros((n, n), dtype=bool)
    half = max(1, n // 10)
    dye[n // 2 - half : n // 2 + half, 1:3] = True
    wind = SmokeSource(mask=inflow_mask, rate=0.0, inflow=speed, direction="right")
    tracer = SmokeSource(mask=dye, rate=2.0, inflow=speed, direction="right")
    driver = CompositeDriver(wind, tracer)
    driver.config_overrides = {"buoyancy": 0.0, "vorticity_eps": 0.2}
    driver.apply(grid, dt=0.5)
    return grid, driver


@register_scenario(
    "plume_collision",
    description="two facing jets colliding head-on mid-domain",
    params=(
        ScenarioParam("grid", 32, "grid resolution (NxN)"),
        ScenarioParam("speed", 1.0, "inflow speed of both jets"),
        ScenarioParam("offset", 0.06, "vertical offset between the jets (fraction, breaks symmetry)"),
    ),
)
def _scenario_plume_collision(params: dict, rng: np.random.Generator):
    n = int(params["grid"])
    grid = MACGrid2D(n, n)
    speed = float(params["speed"])
    half = max(1, n // 10)
    off = int(round(float(params["offset"]) * n))
    cl, cr = n // 2 - off, n // 2 + off
    left = np.zeros((n, n), dtype=bool)
    left[max(1, cl - half) : min(n - 1, cl + half), 1:3] = True
    right = np.zeros((n, n), dtype=bool)
    right[max(1, cr - half) : min(n - 1, cr + half), n - 3 : n - 1] = True
    driver = CompositeDriver(
        SmokeSource(mask=left, rate=2.0, inflow=speed, direction="right"),
        SmokeSource(mask=right, rate=2.0, inflow=speed, direction="left"),
    )
    driver.apply(grid, dt=0.5)
    return grid, driver


@register_scenario(
    "dam_break",
    description="free-surface dam break: a water column collapses under gravity",
    params=(
        ScenarioParam("grid", 32, "grid resolution (NxN)"),
        ScenarioParam("fill_x", 0.35, "column width as a fraction of the box"),
        ScenarioParam("fill_y", 0.7, "column height as a fraction of the box"),
        ScenarioParam("gravity", 2.0, "gravity acceleration (downward)"),
        ScenarioParam("reinit_every", 4, "redistance the level set every N steps (0 = never)"),
    ),
)
def _scenario_dam_break(params: dict, rng: np.random.Generator):
    n = int(params["grid"])
    grid = MACGrid2D(n, n)
    liquid = np.zeros((n, n), dtype=bool)
    w = max(2, int(round(float(params["fill_x"]) * n)))
    h = max(2, int(round(float(params["fill_y"]) * n)))
    liquid[n - 1 - h : n - 1, 1 : 1 + w] = True
    liquid &= ~grid.solid
    driver = LevelSetDriver(
        signed_distance(liquid),
        grid.solid.copy(),
        gravity=float(params["gravity"]),
        reinit_every=int(params["reinit_every"]),
    )
    driver.classify(grid)
    return grid, driver


@register_scenario(
    "sloshing_tank",
    description="free-surface tank with a tilted initial surface sloshing under gravity",
    params=(
        ScenarioParam("grid", 32, "grid resolution (NxN)"),
        ScenarioParam("depth", 0.4, "mean liquid depth as a fraction of the box"),
        ScenarioParam("tilt", 0.25, "initial surface tilt (height difference fraction)"),
        ScenarioParam("gravity", 2.0, "gravity acceleration (downward)"),
        ScenarioParam("reinit_every", 4, "redistance the level set every N steps (0 = never)"),
    ),
)
def _scenario_sloshing_tank(params: dict, rng: np.random.Generator):
    n = int(params["grid"])
    grid = MACGrid2D(n, n)
    ys, xs = np.mgrid[0:n, 0:n]
    # surface row per column: tilted plane around the mean depth
    surface = (1.0 - float(params["depth"])) * n + float(params["tilt"]) * n * (
        (xs + 0.5) / n - 0.5
    )
    liquid = (ys + 0.5) > surface
    liquid &= ~grid.solid
    driver = LevelSetDriver(
        signed_distance(liquid),
        grid.solid.copy(),
        gravity=float(params["gravity"]),
        reinit_every=int(params["reinit_every"]),
    )
    driver.classify(grid)
    return grid, driver


# ----------------------------------------------------------------------
# legacy entry point
# ----------------------------------------------------------------------
def make_smoke_plume(
    nx: int,
    ny: int,
    rng: "np.random.Generator | int | None" = None,
) -> tuple[MACGrid2D, SmokeSource]:
    """Build a randomised smoke-plume input problem (legacy entry point).

    To set obstacles or turbulence, build the scenario through the registry
    instead: ``build_scenario(ScenarioSpec("smoke_plume", grid=n,
    with_obstacles=..., turbulence=..., n_objects=...), rng=seed)``.
    """
    return _build_smoke_plume(nx, ny, rng=rng)
