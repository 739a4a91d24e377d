import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaffect.scheduler import (
    AdItem,
    AdSchedule,
    GaConfig,
    InfeasibleScheduleError,
    InstanceTooLargeError,
    SceneRecord,
    ScheduleProblem,
    brute_force_schedule,
    fitness_contributions,
    _population_feasible,
    ga_optimize,
    schedule_fitness,
)
from oracles import reference_ga_optimize


def make_problem(n_scenes=8, n_ads=6, k=5, seed=0, lambda_v=1.0, lambda_a=1.0):
    rng = np.random.default_rng(seed)
    scenes = [
        SceneRecord(f"s{i}", float(rng.random()), float(rng.random()))
        for i in range(n_scenes)
    ]
    ads = [
        AdItem(f"a{i}", float(rng.random()), float(rng.random()))
        for i in range(n_ads)
    ]
    return ScheduleProblem(scenes, ads, k, lambda_v, lambda_a)


@st.composite
def ga_cases(draw):
    """A random instance (1-12 slots, 1-11 ads, any feasible k) and a GA
    configuration of small size with any rates."""
    n_slots, n_ads = draw(st.integers(1, 12)), draw(st.integers(1, 11))
    k = draw(st.integers(1, min(n_slots, n_ads)))
    problem = make_problem(n_slots + 1, n_ads, k, seed=draw(st.integers(0, 2**32 - 1)))
    config = GaConfig(
        population=draw(st.integers(1, 29)),
        generations=draw(st.integers(0, 29)),
        crossover_rate=draw(st.floats(0.0, 1.0)),
        mutation_rate=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return problem, config


class TestFitness:
    def test_perfect_match_hits_bound(self):
        scenes = [SceneRecord(f"s{i}", 0.25 * i, 1.0 - 0.25 * i) for i in range(4)]
        ads = [AdItem(f"a{i}", scenes[i].asl, scenes[i].val) for i in range(3)]
        problem = ScheduleProblem(scenes, ads, k=3)
        schedule = AdSchedule({0: "a0", 1: "a1", 2: "a2"})
        assert schedule_fitness(problem, schedule) == pytest.approx(6.0)

    def test_hand_gap_arithmetic(self):
        scenes = [SceneRecord("s0", 0.5, 0.5), SceneRecord("s1", 0.0, 0.0)]
        ads = [AdItem("a0", 0.25, 0.0)]  # asl gap 0.25, val gap 0.5 vs scene 0
        problem = ScheduleProblem(scenes, ads, k=1)
        fit = schedule_fitness(problem, AdSchedule({0: "a0"}))
        assert fit == pytest.approx(0.5 + 0.75)

    def test_zero_weights_zero_fitness(self):
        problem = make_problem(lambda_v=0.0, lambda_a=0.0)
        schedule, fit = brute_force_schedule(problem)
        assert fit == pytest.approx(0.0)

    def test_infeasible_schedules_rejected(self):
        problem = make_problem()
        with pytest.raises(InfeasibleScheduleError):
            schedule_fitness(problem, AdSchedule({0: "a0"}))  # wrong count
        with pytest.raises(InfeasibleScheduleError):
            schedule_fitness(
                problem, AdSchedule({0: "a0", 1: "a0", 2: "a1", 3: "a2", 4: "a3"})
            )
        with pytest.raises(InfeasibleScheduleError):
            schedule_fitness(
                problem, AdSchedule({0: "a0", 1: "a1", 2: "a2", 3: "a3", 9: "a4"})
            )

    def test_ad_id_relabeling_invariance(self):
        problem = make_problem(seed=3)
        schedule, fit = brute_force_schedule(problem)
        renamed_ads = [AdItem("x" + a.id, a.asl, a.val) for a in problem.ads]
        renamed = ScheduleProblem(problem.scenes, renamed_ads, problem.k)
        mapped = AdSchedule({s: "x" + a for s, a in schedule.assignments.items()})
        assert schedule_fitness(renamed, mapped) == pytest.approx(fit)


class TestBruteForce:
    def test_exhaustive_matches_naive_scan(self):
        problem = make_problem(n_scenes=5, n_ads=4, k=2, seed=1)
        _, best = brute_force_schedule(problem)
        naive_best = -1.0
        for slots in itertools.combinations(range(problem.n_slots), 2):
            for ads in itertools.permutations(range(4), 2):
                sched = AdSchedule({s: problem.ads[a].id for s, a in zip(slots, ads)})
                naive_best = max(naive_best, schedule_fitness(problem, sched))
        assert best == pytest.approx(naive_best)

    def test_unique_zero_gap_matching_found(self):
        scenes = [SceneRecord(f"s{i}", 0.2 * i, 0.9 - 0.2 * i) for i in range(5)]
        ads = [AdItem(f"a{i}", scenes[i].asl, scenes[i].val) for i in range(4)]
        problem = ScheduleProblem(scenes, ads, k=4)
        schedule, fit = brute_force_schedule(problem)
        assert fit == pytest.approx(8.0)
        assert schedule.assignments == {0: "a0", 1: "a1", 2: "a2", 3: "a3"}

    def test_single_ad_best_slot(self):
        scenes = [
            SceneRecord("s0", 0.0, 0.0),
            SceneRecord("s1", 0.5, 0.5),
            SceneRecord("s2", 0.9, 0.9),
        ]
        ads = [AdItem("a0", 0.5, 0.5)]
        problem = ScheduleProblem(scenes, ads, k=1)
        schedule, fit = brute_force_schedule(problem)
        assert schedule.assignments == {1: "a0"}
        assert fit == pytest.approx(2.0)

    def test_budget_guard(self):
        problem = make_problem(n_scenes=16, n_ads=15, k=10)
        with pytest.raises(InstanceTooLargeError):
            brute_force_schedule(problem)


class TestGa:
    def test_matches_brute_force_on_small_instance(self):
        problem = make_problem(seed=5)
        _, best = brute_force_schedule(problem)
        result = ga_optimize(problem, GaConfig(population=60, generations=60, seed=0))
        assert result.fitness == pytest.approx(best, abs=1e-9)

    def test_seed_determinism(self):
        problem = make_problem(seed=6)
        r1 = ga_optimize(problem, GaConfig(seed=13))
        r2 = ga_optimize(problem, GaConfig(seed=13))
        assert r1.schedule.assignments == r2.schedule.assignments
        assert r1.fitness == r2.fitness

    def test_best_history_nondecreasing(self):
        problem = make_problem(seed=7)
        result = ga_optimize(problem, GaConfig(seed=1))
        hist = np.array(result.best_history)
        assert np.all(np.diff(hist) >= 0.0)

    @settings(max_examples=100, deadline=None)
    @given(ga_cases())
    def test_matches_reference_loop_at_any_size(self, case):
        problem, config = case
        result = ga_optimize(problem, config)
        assert result == reference_ga_optimize(problem, config)
        slots, ads = zip(*result.schedule.sorted_items())
        assert len(set(slots)) == len(set(ads)) == problem.k
        assert all(0 <= s < problem.n_slots for s in slots)
        assert set(ads) <= {a.id for a in problem.ads}
        # Equal up to summation order: the GA sums a row pairwise from 8 slots on.
        total = sum(c for _, _, c in fitness_contributions(problem, result.schedule))
        assert result.fitness == pytest.approx(total, rel=1e-12, abs=1e-12)
        assert np.all(np.diff(result.best_history) >= 0.0)

    @pytest.mark.parametrize("seed", range(0, 100, 10))
    def test_matches_reference_loop_on_criterion_9_instance(self, seed):
        rng = np.random.default_rng(9009)
        scenes = [SceneRecord(f"s{i}", float(rng.random()), float(rng.random())) for i in range(8)]
        ads = [AdItem(f"a{i}", float(rng.random()), float(rng.random())) for i in range(6)]
        problem, config = ScheduleProblem(scenes, ads, k=5), GaConfig(seed=seed)
        assert ga_optimize(problem, config) == reference_ga_optimize(problem, config)

    def test_feasibility_check_matches_per_row_definition(self):
        # Feasible populations, half of them with one cell overwritten (which
        # may repeat an ad, or add or drop an assigned slot).
        rng = np.random.default_rng(12)
        verdicts = set()
        for _ in range(400):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 8))
            k = int(rng.integers(1, min(n, m) + 1))
            pop = np.full((int(rng.integers(1, 6)), n), -1)
            for row in pop:
                row[rng.choice(n, size=k, replace=False)] = rng.choice(m, size=k, replace=False)
            if rng.random() < 0.5:
                pop[rng.integers(len(pop)), rng.integers(n)] = rng.integers(-1, m)
            expected = all((row >= 0).sum() == k and len(np.unique(row[row >= 0])) == k for row in pop)
            assert _population_feasible(pop, k) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_initial_optimum_never_lost(self):
        problem = make_problem(seed=9)
        optimum, best_fit = brute_force_schedule(problem)
        result = ga_optimize(problem, GaConfig(generations=15, seed=3))
        # Elitism: once the optimum enters the population the best fitness
        # cannot drop; and the returned best is never below its history.
        assert result.fitness == pytest.approx(max(result.best_history))

    @pytest.mark.parametrize("field, value", [
        ("population", 0), ("population", 2.5), ("population", True),
        ("generations", -5), ("generations", 2.5), ("generations", False),
        ("crossover_rate", -0.1), ("crossover_rate", 1.5), ("mutation_rate", 2.0),
    ])
    def test_config_rejects_degenerate_sizes_and_rates(self, field, value):
        with pytest.raises(ValueError, match=f"GA {field} must"):
            GaConfig(**{field: value})

    def test_returned_schedule_is_feasible_and_scored(self):
        problem = make_problem(seed=10)
        result = ga_optimize(problem, GaConfig(seed=4))
        assert schedule_fitness(problem, result.schedule) == pytest.approx(result.fitness)
        rows = fitness_contributions(problem, result.schedule)
        assert sum(c for _, _, c in rows) == pytest.approx(result.fitness)
