"""Tests for the simulator loop and scenarios."""

import numpy as np
import pytest

from repro.fluid import (
    FluidSimulator,
    MACGrid2D,
    PCGSolver,
    SimulationConfig,
    compute_divnorm,
    divnorm_weights,
    divergence,
    make_smoke_plume,
)


class TestSmokePlumeScenario:
    def test_reproducible(self):
        g1, s1 = make_smoke_plume(24, 24, rng=3)
        g2, s2 = make_smoke_plume(24, 24, rng=3)
        np.testing.assert_array_equal(g1.u, g2.u)
        np.testing.assert_array_equal(g1.flags, g2.flags)
        np.testing.assert_array_equal(s1.mask, s2.mask)

    def test_source_inside_fluid(self):
        g, s = make_smoke_plume(24, 24, rng=1)
        assert s.mask.any()
        assert not (s.mask & g.solid).any()

    def test_initial_density_seeded(self):
        g, _ = make_smoke_plume(24, 24, rng=0)
        assert g.density.sum() > 0

    def test_no_obstacles_option(self):
        from repro.fluid import ScenarioSpec, build_scenario

        g, _ = build_scenario(ScenarioSpec("smoke_plume", grid=24, with_obstacles=False), rng=0)
        assert g.fluid[1:-1, 1:-1].all()

    def test_source_apply_caps_density(self):
        g, s = make_smoke_plume(24, 24, rng=0)
        for _ in range(100):
            s.apply(g, dt=1.0)
        assert g.density.max() <= 1.0 + 1e-12

    def test_source_imposes_upward_inflow(self):
        g, s = make_smoke_plume(24, 24, rng=0)
        s.apply(g, dt=0.1)
        ys, xs = np.nonzero(s.mask)
        assert (g.v[ys, xs] <= 0).all()


class TestDivnormWeights:
    def test_weight_one_far_from_solids(self):
        g = MACGrid2D(32, 32)
        w = divnorm_weights(g.solid, k=3.0)
        assert w[16, 16] == 1.0

    def test_weight_k_inside_solids(self):
        g = MACGrid2D(32, 32)
        w = divnorm_weights(g.solid, k=3.0)
        assert w[0, 0] == 3.0

    def test_weight_decays_with_distance(self):
        g = MACGrid2D(32, 32)
        w = divnorm_weights(g.solid, k=3.0)
        assert w[1, 16] > w[2, 16] >= w[5, 16] == 1.0

    def test_divnorm_zero_for_divfree_field(self):
        g = MACGrid2D(16, 16)
        w = divnorm_weights(g.solid)
        assert compute_divnorm(g, w) == 0.0

    def test_divnorm_positive_for_divergent_field(self):
        g = MACGrid2D(16, 16)
        g.u[8, 8] = -1.0
        g.u[8, 9] = 1.0
        w = divnorm_weights(g.solid)
        assert compute_divnorm(g, w) > 0


class TestFluidSimulator:
    def make_sim(self, n=24, seed=0, **cfg):
        g, s = make_smoke_plume(n, n, rng=seed)
        return FluidSimulator(g, PCGSolver(), s, SimulationConfig(**cfg))

    def test_step_records_accumulate(self):
        sim = self.make_sim()
        sim.step()
        sim.step()
        assert len(sim.records) == 2
        assert [r.step for r in sim.records] == [0, 1]

    def test_exact_solver_keeps_divergence_small(self):
        sim = self.make_sim()
        res = sim.run(5)
        for rec in res.records:
            assert rec.projection.post_divergence < 1e-3 * max(rec.projection.pre_divergence, 1.0)

    def test_density_bounded(self):
        sim = self.make_sim()
        res = sim.run(8)
        assert res.density.min() >= -1e-9
        assert res.density.max() <= 1.0 + 1e-9

    def test_divnorm_history_length(self):
        sim = self.make_sim()
        res = sim.run(6)
        assert res.divnorm_history.shape == (6,)

    def test_cumdivnorm_monotone(self):
        sim = self.make_sim()
        res = sim.run(6)
        c = res.cumdivnorm_history
        assert (np.diff(c) >= -1e-12).all()

    def test_full_divnorm_history_fresh_run(self):
        sim = self.make_sim()
        res = sim.run(4)
        # no restore happened: full history == this run's history, on both
        # the simulator and the result object
        np.testing.assert_array_equal(sim.full_divnorm_history, res.divnorm_history)
        np.testing.assert_array_equal(res.full_divnorm_history, res.divnorm_history)
        assert res.restored_divnorms.shape == (0,)

    def test_full_divnorm_history_spans_restore(self):
        donor = self.make_sim(seed=2)
        donor.run(3)
        state = donor.save_state()
        full_before = [r.divnorm for r in donor.records]

        resumed = self.make_sim(seed=2)
        resumed.load_state(state)
        res = resumed.run(2)
        assert res.divnorm_history.shape == (2,)
        assert res.restored_divnorms.shape == (3,)
        expected = np.concatenate([full_before, res.divnorm_history])
        np.testing.assert_array_equal(resumed.full_divnorm_history, expected)
        np.testing.assert_array_equal(res.full_divnorm_history, expected)

    def test_timeline_records_typed_step_events(self):
        sim = self.make_sim()
        sim.run(3)
        divnorms = [e for e in sim.timeline if e.type == "divnorm"]
        steps = [e for e in sim.timeline if e.type == "step"]
        assert [e.step for e in divnorms] == [0, 1, 2]
        assert [e.step for e in steps] == [0, 1, 2]
        for e, rec in zip(divnorms, sim.records):
            assert e.attrs["value"] == rec.divnorm
        for e in steps:
            assert e.attrs["solver"] == "pcg"
            assert e.attrs["seconds"] > 0

    def test_timeline_mirrors_into_an_attached_tracer(self):
        from repro.trace import Tracer

        tracer = Tracer(enabled=True)
        g, s = make_smoke_plume(24, 24, rng=0)
        sim = FluidSimulator(g, PCGSolver(), s, tracer=tracer)
        sim.run(2)
        assert [e.step for e in tracer.events("divnorm")] == [0, 1]
        names = {sp.name for sp in tracer.spans()}
        assert {"sim", "step", "advection", "forces", "projection"} <= names
        # the timeline itself is recorded even with tracing off elsewhere
        assert len(sim.timeline) == 4

    def test_timeline_survives_state_round_trip(self):
        donor = self.make_sim(seed=2)
        donor.run(3)
        resumed = self.make_sim(seed=2)
        resumed.load_state(donor.save_state())
        res = resumed.run(2)
        steps = sorted(e.step for e in res.timeline if e.type == "divnorm")
        assert steps == [0, 1, 2, 3, 4]

    def test_controller_invoked_every_step(self):
        calls = []
        g, s = make_smoke_plume(24, 24, rng=0)
        sim = FluidSimulator(g, PCGSolver(), s, controller=lambda s_, r: calls.append(r.step))
        sim.run(4)
        assert calls == [0, 1, 2, 3]

    def test_controller_can_swap_solver(self):
        from repro.fluid import JacobiSolver

        class CheapSolver:
            name = "cheap"

            def solve(self, b, solid):
                return JacobiSolver(iterations=5).solve(b, solid)

        def switch(sim, rec):
            if rec.step == 1:
                sim.solver = CheapSolver()

        g, s = make_smoke_plume(24, 24, rng=0)
        sim = FluidSimulator(g, PCGSolver(), s, controller=switch)
        res = sim.run(4)
        names = [r.projection.solver_name for r in res.records]
        assert names == ["pcg", "pcg", "cheap", "cheap"]

    def test_maccormack_config(self):
        sim = self.make_sim(maccormack=True)
        res = sim.run(3)
        assert res.density.max() <= 1.0 + 1e-9

    def test_deterministic_run(self):
        r1 = self.make_sim(seed=5).run(4)
        r2 = self.make_sim(seed=5).run(4)
        np.testing.assert_array_equal(r1.density, r2.density)

    def test_total_time_positive(self):
        res = self.make_sim().run(2)
        assert res.total_seconds > 0
        assert res.solve_seconds > 0
        assert res.total_flops > 0

    def test_smoke_rises_over_time(self):
        sim = self.make_sim(n=32, seed=2)
        y0 = None
        res = sim.run(12)
        x, y = sim.grid.cell_centers()
        total = res.density.sum()
        cy = (res.density * y).sum() / total
        # density starts near the bottom (y close to 1); buoyancy lifts it
        ys0, _ = np.nonzero(sim.source.mask)
        source_cy = (ys0.mean() + 0.5) * sim.grid.dx
        assert cy < source_cy


class TestWarmStartResume:
    """Warm-start state must survive save_state/load_state (bit-for-bit resume)."""

    def make_sim(self, seed=2):
        g, s = make_smoke_plume(24, 24, rng=seed)
        return FluidSimulator(g, PCGSolver(warm_start=True), s)

    def test_state_arrays_round_trip(self):
        sim = self.make_sim()
        sim.run(2)
        state = sim.solver.state_arrays()
        assert set(state) == {"prev_pressure", "prev_solid"}
        fresh = PCGSolver(warm_start=True)
        fresh.load_state_arrays(state)
        assert fresh._prev_key == sim.solver._prev_key
        np.testing.assert_array_equal(fresh._prev_pressure, sim.solver._prev_pressure)

    def test_state_arrays_empty_when_cold(self):
        assert PCGSolver(warm_start=True).state_arrays() == {}
        assert PCGSolver().state_arrays() == {}

    def test_resume_matches_uninterrupted_run(self):
        baseline = self.make_sim()
        base_res = baseline.run(6)

        donor = self.make_sim()
        donor.run(3)
        state = donor.save_state()
        assert "solver/prev_pressure" in state

        resumed = self.make_sim()
        resumed.load_state(state)
        res = resumed.run(3)
        np.testing.assert_array_equal(res.density, base_res.density)
        np.testing.assert_array_equal(resumed.grid.u, baseline.grid.u)
        np.testing.assert_array_equal(resumed.grid.v, baseline.grid.v)
        np.testing.assert_array_equal(resumed.grid.pressure, baseline.grid.pressure)
        # the first post-resume solve must have actually warm-started, not
        # silently cold-started into an identical-looking trajectory
        base_its = [r.projection.iterations for r in baseline.records[3:]]
        resumed_its = [r.projection.iterations for r in resumed.records]
        assert resumed_its == base_its

    def test_cold_solver_checkpoints_stay_loadable(self):
        # checkpoints written before the solver ever solved (or by a
        # non-warm-start solver) have no solver/ keys and load fine
        g, s = make_smoke_plume(24, 24, rng=2)
        sim = FluidSimulator(g, PCGSolver(), s)
        sim.run(2)
        state = sim.save_state()
        assert not any(k.startswith("solver/") for k in state)
        fresh = self.make_sim()
        fresh.load_state(state)
        fresh.run(1)
