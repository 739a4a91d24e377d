"""Ad insertion at scene transitions: pick k of N slots and assign distinct
ads to maximize affective relevance between each ad and its preceding
scene, by exhaustive search (exact oracle) or a genetic algorithm.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import check_real
from .fileio import field_errors, read_json

BRUTE_FORCE_BUDGET = 10_000_000


class InfeasibleScheduleError(ValueError):
    """A schedule violates the slot/ad constraints of its problem."""


class InstanceTooLargeError(ValueError):
    """Exhaustive enumeration would exceed the candidate budget."""


@dataclass(frozen=True)
class _AffectRecord:
    """An id with arousal (asl) and valence (val) scores in [0, 1]; errors name it by `noun`."""
    id: str
    asl: float
    val: float

    def __post_init__(self):
        for name, v in (("asl", self.asl), ("val", self.val)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{self.noun} {self.id!r}: {name} must lie in [0,1], got {v}")


class SceneRecord(_AffectRecord):
    noun = "scene"


class AdItem(_AffectRecord):
    noun = "ad"


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
        for name in ("lambda_v", "lambda_a"):
            check_real(name, getattr(self, name), lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
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


def fitness_contributions(problem: ScheduleProblem, schedule: AdSchedule) -> list[tuple[int, str, float]]:
    """(slot, ad id, relevance) for each assignment, in slot order."""
    _validate(problem, schedule)
    M = problem.match_matrix()
    ad_index = {a.id: i for i, a in enumerate(problem.ads)}
    return [(slot, ad_id, float(M[slot, ad_index[ad_id]])) for slot, ad_id in schedule.sorted_items()]


def schedule_fitness(problem: ScheduleProblem, schedule: AdSchedule) -> float:
    """Sum over assignments of the per-slot relevance; higher is better,
    bounded by k * (lambda_v + lambda_a)."""
    return float(sum(c for _, _, c in fitness_contributions(problem, schedule)))


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


TOURNAMENT_SIZE = 3


@dataclass(frozen=True)
class GaConfig:
    population: int = 100
    generations: int = 200
    crossover_rate: float = 0.8
    mutation_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, least in (("population", 1), ("generations", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
                raise ValueError(f"GA {name} must be an integer of at least {least}, got {value!r}")
        for name in ("crossover_rate", "mutation_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"GA {name} must lie in [0, 1], got {getattr(self, name)}")


@dataclass
class GaResult:
    schedule: AdSchedule
    fitness: float
    best_history: list[float] = field(default_factory=list)


def _repair(pop: np.ndarray, k: int, slot_orders: np.ndarray, ad_orders: np.ndarray):
    """Make every row hold k distinct ads, in place, consuming pre-drawn
    slot/ad orderings for all randomness: a repeated ad keeps its leftmost
    slot; surplus filled slots are emptied in `slot_orders` order; missing
    ones go to the first empty slots in that order, which take the unused
    ads in `ad_orders` order. A feasible row comes out unchanged."""
    rows = np.arange(len(pop))[:, None]
    order = pop.argsort(axis=1, kind="stable")  # a repeat follows its leftmost slot
    ranked = pop[rows, order]
    ranked[:, 1:][ranked[:, 1:] == ranked[:, :-1]] = -1
    pop[rows, order] = ranked

    filled = pop[rows, slot_orders] >= 0
    short = k - filled.sum(axis=1, keepdims=True)
    surplus = filled & (filled.cumsum(axis=1) <= -short)
    pop[np.nonzero(surplus)[0], slot_orders[surplus]] = -1

    used = np.zeros(ad_orders.shape, dtype=bool)
    used[np.nonzero(pop >= 0)[0], pop[pop >= 0]] = True
    spare = ~used[rows, ad_orders]
    spare &= spare.cumsum(axis=1) <= short
    gaps = ~filled & ((~filled).cumsum(axis=1) <= short)
    pop[np.nonzero(gaps)[0], slot_orders[gaps]] = ad_orders[spare]


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


def ga_optimize(problem: ScheduleProblem, config: GaConfig = GaConfig()) -> GaResult:
    """Genetic search: tournament selection, uniform crossover with
    feasibility repair, swap/replace mutation, elitism of one.

    Deterministic for a fixed seed; returns the best individual ever seen.
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

    for _ in range(config.generations):
        # Batched randomness for the whole generation.
        contenders = rng.integers(0, P, size=(2, P, TOURNAMENT_SIZE))
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
        # Uncrossed rows and the elite are feasible, so the repair leaves them be.
        _repair(children, k, slot_orders, ad_orders)
        do_swap[0] = do_replace[0] = False  # the elite is not mutated

        rows = np.flatnonzero(do_swap)
        s1, s2 = swap_pairs[rows].T
        children[rows, s1], children[rows, s2] = children[rows, s2], children[rows, s1]

        rows = np.flatnonzero(do_replace & (m > k))  # a replace needs an unused ad
        kids, picks = children[rows], np.arange(len(rows))
        held_rows, held_slots = np.nonzero(kids >= 0)
        filled = held_slots.reshape(len(rows), k)  # ascending in each row
        used = np.zeros((len(rows), m), dtype=bool)
        used[held_rows, kids[held_rows, held_slots]] = True
        unused = np.nonzero(~used)[1].reshape(len(rows), m - k)
        slots = filled[picks, replace_draws[rows, 0] % k]
        children[rows, slots] = unused[picks, replace_draws[rows, 1] % (m - k)]

        pop = children
        fits = _population_fitness(pop, M)
        assert _population_feasible(pop, k)
        gen_best = int(np.argmax(fits))
        if fits[gen_best] > best_fit:
            best_fit = float(fits[gen_best])
            best_chrom = pop[gen_best].copy()
        history.append(best_fit)

    slots = np.flatnonzero(best_chrom >= 0)
    schedule = AdSchedule({int(s): problem.ads[int(best_chrom[s])].id for s in slots})
    return GaResult(schedule=schedule, fitness=best_fit, best_history=history)


# ------------------------------------------------------------- file formats

def _load_records(path, record) -> list:
    """Each entry of the JSON list at `path` as `record(id, asl, val)`; a bad entry
    fails as `path: entry N: why`, N counted from 1."""
    out = []
    for n, d in enumerate(read_json(path, list), start=1):
        with field_errors(f"{path}: entry {n}"):
            if not isinstance(d, dict):
                raise TypeError("expected a JSON object")
            out.append(record(str(d["id"]), float(d["asl"]), float(d["val"])))
    return out


def load_scenes(path) -> list[SceneRecord]:
    return _load_records(path, SceneRecord)


def load_ads(path) -> list[AdItem]:
    return _load_records(path, AdItem)
