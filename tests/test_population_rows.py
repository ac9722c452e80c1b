"""NSGA-II's row selection and MOPSO's personal-best mask, each against
its reference on packed ``Solution`` objects, the selection at every
population size of drawn blocks; NSGA-II's point-by-point
crowding against the row walks and its one-pass children against the
``np.where`` assembly; and MOPSO's cached guide grid and threshold move
against a run that builds the grid every generation and draws each
guide's cell and gene's source by ``Generator.choice``."""

import math
from array import array
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dense_rank, random_solutions, scored_rows, tiny_instance
from fogplan.fsdp import ObjectiveVector
from fogplan.moea import AlgoParams, Solution, constrained_dominates, crowding_distance
from fogplan.moea import mopso, nsga2
from fogplan.moea.common import (
    Scored,
    Search,
    initial_population,
    row_crowding,
    staircase_crowding,
    value_walks,
)
from fogplan.scenario import ScenarioSpec, paper_scenario, scaled_scenario

POP = 40


def dominance_fronts(solutions: list[Solution]) -> list[list[Solution]]:
    """Constrained-dominance fronts by brute force (Deb et al., IEEE TEC
    2002): every ordered pair compared once, and each front the solutions
    that only earlier fronts dominate.  A feasible front lists its points
    in descending (u, a), an infeasible one in ascending (u, a), each
    point's solutions in list order.  Solutions tied on (front, crowding,
    genotype) keep that order, which is ``nondominated_rows``' order of
    their points."""
    beaten = [[j for j, t in enumerate(solutions) if constrained_dominates(s, t)] for s in solutions]
    dominators = [0] * len(solutions)
    for j in chain.from_iterable(beaten):
        dominators[j] += 1
    front, fronts = [i for i, d in enumerate(dominators) if not d], []
    while front:
        fronts.append(front)
        front = []
        for j in chain.from_iterable(beaten[i] for i in fronts[-1]):
            dominators[j] -= 1
            if not dominators[j]:
                front.append(j)

    def order(i):
        (u, a), sign = solutions[i].objectives.as_tuple(), -1 if solutions[i].feasible else 1
        return sign * u, sign * a

    return [[solutions[i] for i in sorted(front, key=order)] for front in fronts]


def reference_selection(block: Scored, pop_size: int):
    """The ``pop_size`` best packed rows by (front, -crowding, genotype),
    every front ranked, and their (front, -crowding) standings."""
    solutions = [block.solution(i) for i in range(len(block.total))]
    ranked = []
    for level, front in enumerate(dominance_fronts(solutions)):
        ranked.extend(((level, -d), s.genotype, s) for s, d in zip(front, crowding_distance(front)))
    ranked.sort(key=lambda r: r[:2])
    return [s for _, _, s in ranked[:pop_size]], [key for key, _, _ in ranked[:pop_size]]


def assert_selects_like_the_reference(block: Scored, pop_size: int = POP):
    survivors, rank, standing = nsga2._environmental_selection(block, pop_size)
    expected, expected_standing = reference_selection(block, pop_size)
    assert standing == expected_standing
    assert rank.tolist() == dense_rank(expected_standing)
    rows = list(zip(*(column.tolist() for column in survivors), strict=True))
    assert rows == [(list(s.genotype), list(s.objectives.as_tuple()), s.total_violation) for s in expected]


@pytest.fixture(scope="module")
def run_blocks():
    """Every block NSGA-II selected from in runs on ``paper``, the
    reference scenario replicated 16x and the oracle-sized instance, two
    seeds each."""
    blocks = []
    select = nsga2._environmental_selection

    def recording(combined, pop_size):
        blocks.append(Scored(*(column.copy() for column in combined)))
        return select(combined, pop_size)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nsga2, "_environmental_selection", recording)
        for seed in (0, 1):
            for prob in (paper_scenario(seed), scaled_scenario(ScenarioSpec(seed=seed), 16), tiny_instance(seed)):
                nsga2.nsga2_run(prob, AlgoParams(population_size=POP, seed=seed))
    return blocks


def test_row_selection_matches_the_reference_in_real_runs(run_blocks):
    # the initial population, then parents plus offspring in each of 24 generations, per run
    assert [len(block.total) for block in run_blocks] == ([POP] + [2 * POP] * 24) * 6
    # mid-run blocks hold infeasible rows and genotypes more than once
    assert any((block.total > 0).any() for block in run_blocks[1:])
    assert any(len(np.unique(block.genotypes, axis=0)) < len(block.total) for block in run_blocks)
    # on the oracle-sized instance most rows repeat an objective point (total, u, a)
    points = [len(np.unique(np.column_stack([block.total, block.objectives]), axis=0)) for block in run_blocks]
    assert min(points) <= 16
    for block in run_blocks:
        assert_selects_like_the_reference(block)


@pytest.mark.parametrize("seed", range(10))
def test_row_selection_matches_the_reference_on_drawn_blocks(seed):
    rng = np.random.default_rng(seed)
    # infeasible rows share three violation levels, and objectives lie on a 5 x 5 grid
    pop = random_solutions(rng, 2 * POP, violation_levels=3)
    drawn = scored_rows(pop)
    assert_selects_like_the_reference(drawn)
    # a population may hold one genotype twice
    twice = np.r_[0:60, 0:20]
    assert_selects_like_the_reference(Scored(*(column[twice] for column in drawn)))
    # equal objectives, so crowding ties, decided by genotypes whose ids need both bytes
    # (256 > 255 only in big-endian byte order)
    genotypes = rng.choice([0, 1, 255, 256, 257, 65535], size=(2 * POP, 3))
    objectives = rng.integers(0, 3, size=(2 * POP, 2)) / 2
    total = rng.choice([0.0, 0.0, 0.0, 1.0, 2.0], size=2 * POP)
    assert_selects_like_the_reference(Scored(genotypes, objectives, total))


def block_of(rows):
    """The Scored block of (genotype, u, a, total) rows."""
    genotypes, u, a, total = zip(*rows)
    return Scored(np.array(genotypes, dtype=np.int64), np.column_stack([u, a]).astype(float), np.array(total, float))


# ids that repeat, and 255 < 256 < 65535, which only big-endian bytes order like the ids
IDS = st.sampled_from([0, 1, 255, 256, 65535])


@st.composite
def selection_blocks(draw):
    """Blocks of 1-30 rows: a staircase of 1-6 points, each repeated up to
    three times, and up to 12 more points, all on a lattice whose steps
    are not all exact in binary.  Totals come from a few levels, so that
    infeasible rows share them; a block is all feasible, all infeasible
    or mixed.  A genotype is 1-3 drawn ids, so genotypes repeat, some
    with other points or totals."""
    step, genes = draw(st.sampled_from([4, 7, 25])), draw(st.integers(1, 3))
    m = draw(st.integers(1, 5 if step == 4 else 6))
    ticks = st.lists(st.integers(0, step), min_size=m, max_size=m, unique=True)
    us, as_ = sorted(draw(ticks)), sorted(draw(ticks), reverse=True)
    points = [p for p in zip(us, as_) for _ in range(draw(st.integers(1, 3)))]
    points += draw(st.lists(st.tuples(st.integers(0, step), st.integers(0, step)), max_size=12))
    totals = draw(st.sampled_from([[0.0], [0.5, 1.0, 2.5], [0.0, 0.0, 0.5, 1.0]]))
    rows = [(draw(st.lists(IDS, min_size=genes, max_size=genes)), u / step, a / step, draw(st.sampled_from(totals)))
            for u, a in draw(st.permutations(points))]
    return block_of(rows)


# a feasible staircase of three points, two of them repeated, on two fronts, with repeated genotypes
STAIRCASE = block_of([([0, 256], 0.5, 0.5, 0.0), ([0, 255], 0.5, 0.5, 0.0), ([0, 256], 0.5, 0.5, 0.0),
                      ([1, 1], 1.0, 0.0, 0.0), ([65535, 0], 0.0, 1.0, 0.0), ([0, 0], 0.0, 1.0, 0.0),
                      ([1, 0], 0.0, 0.5, 0.0), ([0, 1], 0.5, 0.0, 0.0)])
# infeasible rows only, sharing totals, with equal and differing objectives
INFEASIBLE = block_of([([1, 256], 0.5, 0.5, 1.0), ([1, 255], 0.0, 1.0, 1.0), ([0, 1], 1.0, 0.0, 2.0),
                       ([1, 256], 0.5, 0.5, 1.0), ([65535, 0], 0.25, 0.25, 2.0), ([0, 0], 0.5, 0.75, 0.5)])


@settings(max_examples=300, deadline=None)
@given(selection_blocks())
@example(STAIRCASE)
@example(INFEASIBLE)
@example(Scored(*(np.concatenate(pair) for pair in zip(STAIRCASE, INFEASIBLE))))
def test_row_selection_matches_the_reference_at_every_population_size(block):
    """Every population size from 1 to the block's rows, so the population
    fills inside a front and exactly at each front's last row, and the
    infeasible fronts are reached whenever the block has any."""
    rows = len(block.total)
    expected, expected_standing = reference_selection(block, rows)
    packed = [(list(s.genotype), list(s.objectives.as_tuple()), s.total_violation) for s in expected]
    for pop_size in range(1, rows + 1):
        survivors, rank, standing = nsga2._environmental_selection(block, pop_size)
        assert standing == expected_standing[:pop_size]
        assert rank.tolist() == dense_rank(standing)
        assert list(zip(*(column.tolist() for column in survivors), strict=True)) == packed[:pop_size]


@st.composite
def staircase_rows(draw):
    """Rows on a feasible staircase of 1-6 points, as (u, a, genotype)
    lists in drawn order: points repeat up to four times, genotypes
    repeat, and the lattice's steps are not all exact in binary."""
    step = draw(st.sampled_from([4, 7, 25, 1000]))
    m = draw(st.integers(1, 5 if step == 4 else 6))
    ticks = st.lists(st.integers(0, step), min_size=m, max_size=m, unique=True)
    us, as_ = sorted(draw(ticks)), sorted(draw(ticks), reverse=True)
    rows = [(us[j] / step, as_[j] / step) for j in range(m) for _ in range(draw(st.integers(1, 4)))]
    rows = draw(st.permutations(rows))
    genotypes = draw(st.lists(st.sampled_from([b"\x00\x01", b"\x00\x02", b"\x01\x00"]), min_size=len(rows),
                              max_size=len(rows)))
    return [u for u, _ in rows], [a for _, a in rows], genotypes


@settings(max_examples=500, deadline=None)
@given(staircase_rows())
def test_staircase_crowding_is_row_crowding_over_the_value_walks(front):
    u, a, genotype = front
    walked = [0.0] * len(u)
    row_crowding(walked, value_walks(range(len(u)), u, a, genotype), u, a)
    # the front's point groups in ascending u, each group's rows in row order
    points = sorted(set(zip(u, a)))
    groups = [[i for i in range(len(u)) if (u[i], a[i]) == p] for p in points]
    pointwise = [0.0] * len(u)
    staircase_crowding(pointwise, groups, u, a, genotype)
    # each group is left sorted by genotype, ties by row
    assert groups == [sorted(group, key=genotype.__getitem__) for group in groups]
    assert pointwise == walked
    # a front of one or two points is all ends
    if len(points) <= 2:
        assert all(pointwise[g[0]] == pointwise[g[-1]] == np.inf for g in groups)


def where_stack_children(p1, p2, crossover_prob, rng):
    """NSGA-II's children as they were assembled before the one-pass
    form: two children picked by ``np.where`` on one uniform gene mask,
    each kept by its pair's crossover flag, stacked pair by pair."""
    coins = rng.random(p1.shape) < 0.5
    c1, c2 = np.where(coins, p1, p2), np.where(coins, p2, p1)
    cross = (rng.random(len(p1)) < crossover_prob)[:, None]
    return np.stack([np.where(cross, c1, p1), np.where(cross, c2, p2)], axis=1).reshape(2 * len(p1), -1)


# odd k leaves the last pair's second child out; one service is N = 1
@pytest.mark.parametrize("k", [1, 13, 40])
@pytest.mark.parametrize("n", [1, 6, 400])
@pytest.mark.parametrize("crossover_prob", [0.0, 0.9, 1.0])
def test_one_pass_children_match_the_where_stack_assembly(k, n, crossover_prob):
    pairs = -(-k // 2)
    for seed in range(5):
        p1, p2 = np.random.default_rng(seed).integers(0, 161, (2, pairs, n))
        rng, reference = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
        got = nsga2._children(p1, p2, crossover_prob, rng)[:k]
        want = where_stack_children(p1, p2, crossover_prob, reference)[:k]
        assert got.shape == want.shape == (k, n) and got.dtype == want.dtype and (got == want).all()
        assert rng.bit_generator.state == reference.bit_generator.state
        if crossover_prob == 0.0:
            assert (got == np.stack([p1, p2], axis=1).reshape(2 * pairs, n)[:k]).all()


# a row's objectives on a grid of quarters and its total equal, 0, positive
# or infinite: a contest that subtracted two infinite totals would get NaN
ROW = st.tuples(st.integers(0, 4), st.integers(0, 4), st.sampled_from([0.0, 0.0, 0.5, 1.0, math.inf]))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(ROW, ROW), min_size=1, max_size=40), st.integers(0, 2**32 - 1))
def test_mopso_float_rule_is_constrained_dominance(pairs, seed):
    """Each row wins where it constrained-dominates its personal best, and
    by a coin where neither dominates the other; the coins are the scalar
    ``random()`` draws of the ties in row order."""
    moved = [Solution(array("H", [0]), ObjectiveVector(u / 4, a / 4), total) for (u, a, total), _ in pairs]
    kept = [Solution(array("H", [1]), ObjectiveVector(u / 4, a / 4), total) for _, (u, a, total) in pairs]
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    wins = mopso._improves(scored_rows(moved), scored_rows(kept), rng)
    assert wins.tolist() == [
        constrained_dominates(m, b) or (not constrained_dominates(b, m) and reference.random() < 0.5)
        for m, b in zip(moved, kept)
    ]
    assert rng.bit_generator.state == reference.bit_generator.state


def choice_guides(members, divisions, rng, k):
    """The (k, N) guides drawn by ``Generator.choice`` from a grid built
    afresh: k cells by roulette, sparse cells favored, then a member of each."""
    objs = np.array([m.objectives.as_tuple() for m in members])
    lo, hi = objs.min(axis=0), objs.max(axis=0)
    cells = np.minimum(np.floor((objs - lo) / np.where(hi > lo, hi - lo, 1.0) * divisions), divisions - 1)
    _, cell_of, sizes = np.unique(cells, axis=0, return_inverse=True, return_counts=True)
    p = 1.0 / sizes / (1.0 / sizes).sum()
    by_cell, starts = np.argsort(cell_of.ravel(), kind="stable"), np.cumsum(sizes) - sizes
    picked = rng.choice(len(sizes), size=k, p=p)
    return np.array([members[i].genotype for i in by_cell[starts[picked] + rng.integers(0, sizes[picked])]])


def choice_move_run(prob, params):
    """``mopso_run`` with its guides drawn by ``choice_guides`` every
    generation, and each gene's source drawn by ``Generator.choice`` and
    gathered from the stacked current, personal-best and guide hosts."""
    run = Search(prob, params)
    rng, n, swarm = run.rng, prob.n_services, params.population_size
    pull = np.array([params.inertia, params.cognitive, params.social])
    current = run.evaluate_many(initial_population(prob, swarm, rng))
    pbest = Scored(*(column.copy() for column in current))
    while run.left:
        k = min(swarm, run.left)
        guides = choice_guides(run.archive.members, params.grid_divisions, rng, k)
        hosts = np.stack([current.genotypes[:k], pbest.genotypes[:k], guides])
        source = rng.choice(3, size=(k, n), p=pull / pull.sum())
        moves = hosts[source, np.arange(k)[:, None], np.arange(n)]
        mutants = np.flatnonzero(rng.random(k) < params.mutation_rate)
        where = rng.integers(0, n, size=mutants.size)
        moves[mutants, where] = rng.integers(0, prob.n_resources, size=mutants.size)
        scored = run.evaluate_many(moves)
        won = mopso._improves(scored, Scored(*(column[:k] for column in pbest)), rng)
        for kept, best, moved in zip(current, pbest, scored):
            kept[:k] = moved
            best[:k][won] = moved[won]
    return run.archive


# the default weights, each source alone, two sources, and a share near 0
@pytest.mark.parametrize("weights", [(0.4, 1.5, 1.5), (1, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 2), (1e-9, 1, 1)])
def test_mopso_threshold_move_picks_what_choice_picks(weights, monkeypatch):
    """Both runs leave the same archive and the same generator state, so
    the threshold move makes the same draws as ``choice_move_run``."""
    runs, init = [], Search.__init__

    def kept_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runs.append(self)

    monkeypatch.setattr(Search, "__init__", kept_init)
    inertia, cognitive, social = weights
    for seed in (0, 1):
        # 1013 evaluations end on a partial generation of 13
        params = AlgoParams(seed=seed, max_evaluations=1013, inertia=inertia, cognitive=cognitive, social=social)
        prob = paper_scenario(seed)
        assert mopso.mopso_run(prob, params).members == choice_move_run(prob, params).members
        moved, chosen = runs[-2:]
        assert moved.evaluations == chosen.evaluations == 1013
        assert moved.rng.bit_generator.state == chosen.rng.bit_generator.state
