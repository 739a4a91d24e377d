"""Ad insertion at scene transitions: pick k of N slots and assign distinct
ads to maximize affective relevance between each ad and its preceding
scene, by exhaustive search (exact oracle) or a genetic algorithm.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BRUTE_FORCE_BUDGET = 10_000_000


class InfeasibleScheduleError(ValueError):
    """A schedule violates the slot/ad constraints of its problem."""


class InstanceTooLargeError(ValueError):
    """Exhaustive enumeration would exceed the candidate budget."""


@dataclass(frozen=True)
class SceneRecord:
    id: str
    asl: float
    val: float

    def __post_init__(self):
        for name, v in (("asl", self.asl), ("val", self.val)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"scene {self.id!r}: {name} must lie in [0,1], got {v}")


@dataclass(frozen=True)
class AdItem:
    id: str
    asl: float
    val: float

    def __post_init__(self):
        for name, v in (("asl", self.asl), ("val", self.val)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"ad {self.id!r}: {name} must lie in [0,1], got {v}")


@dataclass
class ScheduleProblem:
    scenes: list[SceneRecord]
    ads: list[AdItem]
    k: int
    lambda_v: float = 1.0
    lambda_a: float = 1.0
    match_following_scene: bool = False

    def __post_init__(self):
        if len(self.scenes) < 2:
            raise ValueError("need at least 2 scenes to form a transition slot")
        if self.lambda_v < 0 or self.lambda_a < 0:
            raise ValueError("relevance weights must be nonnegative")
        if len({a.id for a in self.ads}) != len(self.ads):
            raise ValueError("ad ids must be distinct")
        if self.k > min(self.n_slots, len(self.ads)) or self.k < 1:
            raise ValueError(
                f"k={self.k} infeasible for {self.n_slots} slots and {len(self.ads)} ads"
            )

    @property
    def n_slots(self) -> int:
        return len(self.scenes) - 1

    def match_matrix(self) -> np.ndarray:
        """Relevance of placing ad a at slot s: the fitness contribution."""
        # Slot s sits after scene s (0-based); an ad there is anchored to
        # scene s, or to scene s+1 when matching the following scene.
        anchor = self.scenes[1:] if self.match_following_scene else self.scenes[:-1]
        scene_val = np.array([sc.val for sc in anchor])
        scene_asl = np.array([sc.asl for sc in anchor])
        ad_val = np.array([a.val for a in self.ads])
        ad_asl = np.array([a.asl for a in self.ads])
        val_term = self.lambda_v * (1.0 - np.abs(ad_val[None, :] - scene_val[:, None]))
        asl_term = self.lambda_a * (1.0 - np.abs(ad_asl[None, :] - scene_asl[:, None]))
        return val_term + asl_term


@dataclass
class AdSchedule:
    assignments: dict[int, str]  # slot index -> ad id

    def sorted_items(self) -> list[tuple[int, str]]:
        return sorted(self.assignments.items())


def _validate(problem: ScheduleProblem, schedule: AdSchedule):
    items = schedule.assignments
    if len(items) != problem.k:
        raise InfeasibleScheduleError(f"expected {problem.k} assignments, got {len(items)}")
    known = {a.id for a in problem.ads}
    ids = list(items.values())
    if len(set(ids)) != len(ids):
        raise InfeasibleScheduleError("duplicate ad ids in schedule")
    for slot, ad_id in items.items():
        if not 0 <= slot < problem.n_slots:
            raise InfeasibleScheduleError(f"slot {slot} out of range")
        if ad_id not in known:
            raise InfeasibleScheduleError(f"unknown ad id {ad_id!r}")


def schedule_fitness(problem: ScheduleProblem, schedule: AdSchedule) -> float:
    """Sum over assignments of the per-slot relevance; higher is better,
    bounded by k * (lambda_v + lambda_a)."""
    _validate(problem, schedule)
    M = problem.match_matrix()
    ad_index = {a.id: i for i, a in enumerate(problem.ads)}
    return float(sum(M[slot, ad_index[ad_id]] for slot, ad_id in schedule.assignments.items()))


def fitness_contributions(problem: ScheduleProblem, schedule: AdSchedule) -> list[tuple[int, str, float]]:
    _validate(problem, schedule)
    M = problem.match_matrix()
    ad_index = {a.id: i for i, a in enumerate(problem.ads)}
    return [(slot, ad_id, float(M[slot, ad_index[ad_id]])) for slot, ad_id in schedule.sorted_items()]


def brute_force_schedule(problem: ScheduleProblem) -> tuple[AdSchedule, float]:
    """Exhaustive maximum over slot subsets and ad arrangements.

    Ties break toward the lexicographically smallest assignment
    (slot-sorted (slot, ad id) tuples). Guarded by a candidate budget.
    """
    n, k, m = problem.n_slots, problem.k, len(problem.ads)
    n_candidates = math.comb(n, k) * math.perm(m, k)
    if n_candidates > BRUTE_FORCE_BUDGET:
        raise InstanceTooLargeError(
            f"{n_candidates} candidates exceed the {BRUTE_FORCE_BUDGET} budget"
        )
    order = sorted(range(m), key=lambda i: problem.ads[i].id)
    M = problem.match_matrix()
    best_fit = -np.inf
    best = None
    for slots in itertools.combinations(range(n), k):
        slot_arr = np.array(slots)
        for ads in itertools.permutations(order, k):
            fit = float(M[slot_arr, np.array(ads)].sum())
            if fit > best_fit + 1e-12:
                best_fit = fit
                best = (slots, ads)
    slots, ads = best
    schedule = AdSchedule({s: problem.ads[a].id for s, a in zip(slots, ads)})
    return schedule, best_fit


@dataclass(frozen=True)
class GaConfig:
    population: int = 100
    generations: int = 200
    crossover_rate: float = 0.8
    mutation_rate: float = 0.1
    tournament_size: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("population", "tournament_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"GA {name} must be at least 1, got {getattr(self, name)}")
        for name in ("crossover_rate", "mutation_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"GA {name} must lie in [0, 1], got {getattr(self, name)}")


@dataclass
class GaResult:
    schedule: AdSchedule
    fitness: float
    best_history: list[float] = field(default_factory=list)


def _repair_row(child, k, n_ads, slot_order, ad_order):
    """Deduplicate ads (first slot wins) and re-pad to exactly k of them,
    consuming pre-drawn slot/ad orderings for all randomness."""
    seen = set()
    filled = 0
    for s in range(len(child)):
        a = child[s]
        if a < 0:
            continue
        if a in seen:
            child[s] = -1
        else:
            seen.add(a)
            filled += 1
    if filled > k:
        for s in slot_order:
            if filled == k:
                break
            if child[s] >= 0:
                seen.discard(child[s])
                child[s] = -1
                filled -= 1
    elif filled < k:
        spare = iter(a for a in ad_order if a not in seen)
        for s in slot_order:
            if filled == k:
                break
            if child[s] < 0:
                child[s] = next(spare)
                filled += 1


def _population_fitness(pop: np.ndarray, M: np.ndarray) -> np.ndarray:
    """pop: (P, N) chromosomes of ad index or -1."""
    slots = np.arange(pop.shape[1])[None, :]
    contrib = M[slots, np.clip(pop, 0, M.shape[1] - 1)]
    return np.where(pop >= 0, contrib, 0.0).sum(axis=1)


def _population_feasible(pop: np.ndarray, k: int) -> bool:
    """Every row assigns exactly k slots, and no ad twice: after sorting a
    row, no assigned ad equals its right-hand neighbour."""
    if not np.all((pop >= 0).sum(axis=1) == k):
        return False
    ordered = np.sort(pop, axis=1)
    return not np.any((ordered[:, :-1] >= 0) & (ordered[:, :-1] == ordered[:, 1:]))


def ga_optimize(problem: ScheduleProblem, config: GaConfig = GaConfig(),
                on_generation=None) -> GaResult:
    """Genetic search: tournament selection, uniform crossover with
    feasibility repair, swap/replace mutation, elitism of one.

    Deterministic for a fixed seed; returns the best individual ever seen.
    `on_generation(gen, population, best_fitness)` is called once per
    generation when provided.
    """
    rng = np.random.default_rng(config.seed)
    n, k, m = problem.n_slots, problem.k, len(problem.ads)
    P = config.population
    M = problem.match_matrix()

    pop = np.full((P, n), -1, dtype=int)
    for row in range(P):
        slots = rng.choice(n, size=k, replace=False)
        ads = rng.choice(m, size=k, replace=False)
        pop[row, slots] = ads
    fits = _population_fitness(pop, M)
    best_idx = int(np.argmax(fits))
    best_chrom = pop[best_idx].copy()
    best_fit = float(fits[best_idx])
    history = []

    for gen in range(config.generations):
        # Batched randomness for the whole generation.
        contenders = rng.integers(0, P, size=(2, P, config.tournament_size))
        idx1 = contenders[0][np.arange(P), np.argmax(fits[contenders[0]], axis=1)]
        idx2 = contenders[1][np.arange(P), np.argmax(fits[contenders[1]], axis=1)]
        do_cross = rng.random(P) < config.crossover_rate
        masks = rng.random((P, n)) < 0.5
        slot_orders = np.argsort(rng.random((P, n)), axis=1)
        ad_orders = np.argsort(rng.random((P, m)), axis=1)
        do_swap = rng.random(P) < config.mutation_rate
        swap_pairs = rng.integers(0, n, size=(P, 2))
        do_replace = rng.random(P) < config.mutation_rate
        replace_draws = rng.integers(0, 1 << 30, size=(P, 2))

        children = np.where(masks, pop[idx1], pop[idx2])
        children[~do_cross] = pop[idx1[~do_cross]]
        children[0] = best_chrom  # elitism

        for row in range(P):
            child = children[row]
            if row > 0 and do_cross[row]:
                _repair_row(child, k, m, slot_orders[row], ad_orders[row])
            if row > 0 and do_swap[row]:
                s1, s2 = swap_pairs[row]
                child[s1], child[s2] = child[s2], child[s1]
            if row > 0 and do_replace[row]:
                filled = np.flatnonzero(child >= 0)
                used = set(child[filled].tolist())
                unused = [a for a in range(m) if a not in used]
                if unused:
                    slot = filled[replace_draws[row, 0] % len(filled)]
                    child[slot] = unused[replace_draws[row, 1] % len(unused)]

        pop = children
        fits = _population_fitness(pop, M)
        assert _population_feasible(pop, k)
        gen_best = int(np.argmax(fits))
        if fits[gen_best] > best_fit:
            best_fit = float(fits[gen_best])
            best_chrom = pop[gen_best].copy()
        history.append(best_fit)
        if on_generation is not None:
            on_generation(gen, pop, best_fit)

    slots = np.flatnonzero(best_chrom >= 0)
    schedule = AdSchedule({int(s): problem.ads[int(best_chrom[s])].id for s in slots})
    return GaResult(schedule=schedule, fitness=best_fit, best_history=history)


# ------------------------------------------------------------- file formats

def _load_records(path, record) -> list:
    """Each entry of the JSON list at `path` as `record(id, asl, val)`. A
    syntax error fails as `path:line: why`, a bad entry as `path: entry N: why`
    (N counts from 1)."""
    try:
        docs = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None
    if not isinstance(docs, list):
        raise ValueError(f"{path}: expected a JSON list of {{id, asl, val}} entries")
    out = []
    for n, d in enumerate(docs, start=1):
        try:
            out.append(record(str(d["id"]), float(d["asl"]), float(d["val"])))
        except KeyError as exc:
            raise ValueError(f"{path}: entry {n}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: entry {n}: {exc}") from None
    return out


def load_scenes(path) -> list[SceneRecord]:
    return _load_records(path, SceneRecord)


def load_ads(path) -> list[AdItem]:
    return _load_records(path, AdItem)
