"""Property tests: the pairwise core against the brute-force oracles.

Scores come from small grids, so both sides are heavily tied and the
metric differences include distinct floats that print alike (0.3 - 0.1
is not 0.2). Items have from 2 to 20 systems, so their pair counts and
hence their weights differ. Every system is metric-scored: either the
items carry the scores, or human-only items get them from a score table
through ``attach_metric_scores``, as the CLI does.

System means and Pearson are checked against exact ``Fraction`` sums on
scores drawn from every finite float, where a plain float sum can overflow.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from paraeval.metaeval import (attach_metric_scores, pair_table,
                               pearson_no_grouping, segment_accuracy,
                               system_pairwise_accuracy, system_scores,
                               tau_optimize, tie_rates)
from paraeval.model import EvalItem, ScoreTable, SimConfig, SystemEntry
from paraeval.noise import noise_curve

SYSTEMS = [f"s{i:02d}" for i in range(60)]
HUMAN_GRID = [-2.0, -1.0, -0.5, 0.0, 1.0]
METRIC_GRID = [0.0, 0.1, 0.2, 0.3, 0.7, 1.1]

# Fixed examples: a tier-1 gate must not pass on one run and fail on the next.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def human_only(items):
    return [EvalItem(item_key=item.item_key, per_system={
        s: SystemEntry(human_score=e.human_score) for s, e in item.per_system.items()})
        for item in items]


def metric_table(items):
    return ScoreTable(metric_name="m", entries={
        (s, item.item_key): e.metric_score
        for item in items for s, e in item.per_system.items()})


@st.composite
def unit_items(draw):
    items = []
    for index, width in enumerate(draw(st.lists(st.integers(2, 20),
                                                min_size=1, max_size=6))):
        systems = draw(st.permutations(SYSTEMS))[:width]
        per_system = {s: SystemEntry(human_score=draw(st.sampled_from(HUMAN_GRID)),
                                     metric_score=draw(st.sampled_from(METRIC_GRID)))
                      for s in systems}
        items.append(EvalItem(item_key=(f"doc{index}", 0, 1), per_system=per_system))
    if draw(st.booleans()):
        items = attach_metric_scores(human_only(items), metric_table(items))
    return items


def observed_deltas(items):
    return sorted({abs(a.metric_score - b.metric_score) for item in items
                   for a in item.per_system.values()
                   for b in item.per_system.values()})


def assert_matches_oracles(items, epsilons):
    pairs = pair_table(items)
    for epsilon in epsilons:
        expected = oracles.segment_accuracy_exact(items, epsilon)
        assert segment_accuracy(pairs, epsilon) == float(expected)
    best_eps, best_acc = oracles.tau_sweep_exact(items)
    calibration = tau_optimize(pairs)
    assert calibration.epsilon == best_eps
    assert calibration.accuracy_at_epsilon == float(best_acc)
    assert tie_rates(pairs.human) == float(oracles.tie_rate_exact(items, "human"))
    assert tie_rates(pairs.metric) == float(oracles.tie_rate_exact(items, "metric"))


@PROPERTY
@given(items=unit_items(), data=st.data())
def test_core_matches_oracles_on_small_tied_units(items, data):
    # An epsilon equal to an observed difference predicts that pair tied.
    epsilon = data.draw(st.sampled_from(observed_deltas(items)))
    assert_matches_oracles(items, [0.0, epsilon, 0.25])
    # The pairs follow the items, so a permutation reorders them; no value moves.
    assert_matches_oracles(data.draw(st.permutations(items)), [0.0, epsilon, 0.25])
    # Human-only items give the same human side; their metric side is refused.
    unscored = pair_table(human_only(items))
    assert tie_rates(unscored.human) == tie_rates(pair_table(items).human)
    for statistic in (lambda: segment_accuracy(unscored, 0.0),
                      lambda: tau_optimize(unscored),
                      lambda: tie_rates(unscored.metric)):
        with pytest.raises(ValueError, match="no item has 2 or more"):
            statistic()


@settings(PROPERTY, max_examples=3)
@given(seed=st.integers(0, 2 ** 32))
def test_core_stays_exact_when_the_denominator_exceeds_int64(seed):
    rng = random.Random(seed)
    # Every system count from 2 to 60 once: lcm(C(m, 2)) alone is 83 bits.
    items = [EvalItem(item_key=(f"doc{m}", 0, 1), per_system={
        s: SystemEntry(rng.choice(HUMAN_GRID), rng.choice(METRIC_GRID))
        for s in rng.sample(SYSTEMS, m)}) for m in range(2, 61)]
    assert pair_table(items).denominator >= 2 ** 63
    assert_matches_oracles(items, [0.0, 0.1])


def test_reported_statistics_are_builtin_floats():
    # Reports print repr(value); numpy 2 prints np.float64(0.5) there.
    narrow = [EvalItem(item_key=("d", 0, 1), per_system={
        "a": SystemEntry(0.0, 1.0), "b": SystemEntry(0.0, 1.1),
        "c": SystemEntry(-5.0, 0.2)})]
    wide = [EvalItem(item_key=(f"d{m}", 0, 1), per_system={
        SYSTEMS[s]: SystemEntry(float(s % 3), float(s % 5) / 10) for s in range(m)})
        for m in range(2, 61)]
    assert pair_table(wide).denominator >= 2 ** 63
    for items in (narrow, wide):
        pairs = pair_table(items)
        calibration = tau_optimize(pairs)
        attached = pair_table(attach_metric_scores(human_only(items),
                                                   metric_table(items)))
        values = [segment_accuracy(pairs, 0.0), segment_accuracy(pairs, 0.1),
                  calibration.epsilon, calibration.accuracy_at_epsilon,
                  tie_rates(pairs.human), tie_rates(pairs.metric),
                  tie_rates(attached.metric)]
        assert calibration.epsilon > 0
        assert all(type(value) is float for value in values), values
    agreeing = [EvalItem(item_key=("d", 0, 1), per_system={
        "a": SystemEntry(1.0, 1.0), "b": SystemEntry(0.0, 0.0)})]
    assert tau_optimize(pair_table(agreeing)).epsilon == 0
    assert type(tau_optimize(pair_table(agreeing)).epsilon) is float
    config = SimConfig(n_items=5, n_systems=3, max_k=2, sigma_quality=1.0,
                       sigma_human=1.0, sigma_metric=1.0, system_mean_spread=0.5,
                       seed=3)
    for point in noise_curve(config, ks=[1, 2], n_seeds=2):
        assert type(point.mean_accuracy) is float
        assert type(point.std_accuracy) is float
        assert all(type(value) is float for value in point.per_seed)
    assert type(system_pairwise_accuracy({"a": 1.0, "b": 0.0},
                                         {"a": 2.0, "b": 1.0})) is float
    assert type(pearson_no_grouping([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])) is float


# Every finite float: subnormals, values near the largest float, both signs.
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from(["a", "b"]), FINITE), min_size=1, max_size=8))
def test_system_means_match_the_exact_oracle_over_the_finite_range(scores):
    entries = {(system, (f"d{i}", 0, 1)): score
               for i, (system, score) in enumerate(scores)}
    means = system_scores(entries)
    for system, mean in means.items():
        values = [score for s, score in scores if s == system]
        # A subnormal mean is exact to one step of the subnormal grid.
        assert math.isclose(mean, float(oracles.mean_exact(values)),
                            rel_tol=1e-15, abs_tol=2 ** -1074)


@PROPERTY
@given(st.lists(st.tuples(FINITE, FINITE), min_size=2, max_size=8))
def test_pearson_matches_the_exact_oracle_over_the_finite_range(points):
    xs, ys = [x for x, _ in points], [y for _, y in points]
    covariance, var_x, var_y = oracles.pearson_sums_exact(xs, ys)
    if var_x * var_y == 0:
        with pytest.raises(ValueError, match="zero variance"):
            pearson_no_grouping(xs, ys)
        return
    # Sides whose spread is at least 2**-10 of their size: a spread near one
    # ulp of the scores leaves no correct digit in any float two-pass sum.
    assume(all(var * 2 ** 20 >= sum(Fraction(v) ** 2 for v in side)
               for var, side in ((var_x, xs), (var_y, ys))))
    r_squared = covariance ** 2 / (var_x * var_y)
    expected = math.sqrt(r_squared) if covariance > 0 else -math.sqrt(r_squared)
    # Relative tolerance, and an absolute one for r near 0, where the sums'
    # rounding (about 2**-40 of the variances here) is all that is left.
    assert math.isclose(pearson_no_grouping(xs, ys), expected,
                        rel_tol=1e-9, abs_tol=1e-9)
