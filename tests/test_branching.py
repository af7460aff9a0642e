import json
from itertools import permutations

import numpy as np
import pytest

from hvlab import (
    BranchHistory,
    BranchNode,
    PureState,
    ReductionUndefinedError,
    ScenarioConfig,
    ScenarioError,
    UndefinedConditionalError,
    ValidationError,
    ZeroProbabilityError,
    bell_value,
    branch,
    branch_records,
    chain_probability,
    classical_conditional,
    constant,
    indicator_from_sign,
    integrate_in_order,
    joint_function,
    outcome_probabilities,
    repeated_measurement_check,
    route_operator_product,
    route_state_update,
    run_scenario,
    sequence_probability,
)

import matrix_oracle as oracle
from conftest import X, Y, Z, random_unit


def chain_selected(psi, axes):
    history = BranchHistory(psi)
    for axis in axes:
        history, _ = branch(history, axis)
    return history


def marginal(joint, index):
    # integrate one level out of a two-level joint; the level left, times the prefactor
    rest = joint.integrate_level(index)
    (factor,) = rest.factors
    return factor * rest.prefactor


# ---------------------------------------------------------------------------
# branch
# ---------------------------------------------------------------------------


def test_branch_eigenstate_leaves_empty_complement():
    selected, comp = branch(BranchHistory(PureState(Z)), Z)
    assert selected.nodes[0].normalizer == 1.0
    assert not selected.zero_probability
    assert comp.nodes[0].normalizer == 0.0
    assert comp.zero_probability
    assert comp.nodes[0].level_function == constant(0.0)
    assert comp.probability == 0.0


def test_branch_unbiased_axis_splits_evenly():
    selected, comp = branch(BranchHistory(PureState(Z)), X)
    assert selected.nodes[0].normalizer == 0.5
    assert comp.nodes[0].normalizer == 0.5
    assert selected.current_state == PureState(X)
    assert comp.current_state == PureState(-X)
    assert comp.nodes[0].level_function == 1.0 - selected.nodes[0].level_function


def test_branch_two_step_joint_shape(rng):
    # second-level factor is the value map in the prepared state, first-level
    # factor is divided by its own measure
    s, n, m = random_unit(rng), random_unit(rng), random_unit(rng)
    psi = PureState(s)
    history = chain_selected(psi, [n, m])
    joint = joint_function(history)
    assert joint.levels == 2
    assert joint.factors[0] == bell_value(psi, n)
    assert joint.factors[1] == bell_value(PureState(n), m)
    first_norm = bell_value(psi, n).integrate()
    assert abs(joint.prefactor - 1.0 / first_norm) <= 1e-15


def test_branch_completeness_at_every_node(rng):
    for _ in range(200):
        s, axis = random_unit(rng), random_unit(rng)
        selected, comp = branch(BranchHistory(PureState(s)), axis)
        total = selected.nodes[0].normalizer + comp.nodes[0].normalizer
        assert abs(total - 1.0) <= 1e-15


# ---------------------------------------------------------------------------
# joint_function
# ---------------------------------------------------------------------------


def test_joint_single_level():
    history = chain_selected(PureState(Z), [X])
    joint = joint_function(history)
    assert joint.prefactor == 1.0
    assert joint.factors[0].breakpoints == (0.0,)
    assert joint.integrate() == 0.5


def test_joint_perpendicular_preparation_prefactor_two():
    history = chain_selected(PureState(Z), [X, Y])
    assert joint_function(history).prefactor == 2.0


def test_joint_three_levels_prefactor(rng):
    s = random_unit(rng)
    axes = [random_unit(rng) for _ in range(3)]
    history = chain_selected(PureState(s), axes)
    want = 1.0
    for node in history.nodes[:2]:
        want /= node.normalizer
    assert abs(joint_function(history).prefactor - want) <= 1e-12 * abs(want)


def test_joint_normalize_all_levels_total_is_one(rng):
    for _ in range(20):
        s = random_unit(rng)
        axes = [random_unit(rng) for _ in range(3)]
        history = chain_selected(PureState(s), axes)
        total = joint_function(history, normalize_all_levels=True).integrate()
        assert abs(total - 1.0) <= 1e-12


def test_joint_validation():
    with pytest.raises(ValidationError):
        joint_function(BranchHistory(PureState(Z)))
    dead = chain_selected(PureState(Z), [Z])
    _, comp = branch(dead, Z)
    with pytest.raises(ZeroProbabilityError):
        joint_function(comp, normalize_all_levels=True)


# ---------------------------------------------------------------------------
# integrate_in_order
# ---------------------------------------------------------------------------


def test_integrate_in_order_recovers_quantum_value(rng):
    for _ in range(100):
        s, n, m = random_unit(rng), random_unit(rng), random_unit(rng)
        if 1.0 + float(np.dot(s, n)) <= 1e-6:
            continue
        history = chain_selected(PureState(s), [n, m])
        want = 0.5 * (1.0 + float(np.dot(n, m)))
        assert abs(integrate_in_order(history, (1, 2)) - want) <= 1e-12
        assert abs(integrate_in_order(history, (2, 1)) - want) <= 1e-12


def test_integrate_in_order_single_level():
    history = chain_selected(PureState(Z), [X])
    assert integrate_in_order(history, [1]) == 0.5


def test_integrate_in_order_validation():
    history = chain_selected(PureState(Z), [X, Y])
    with pytest.raises(ValidationError):
        integrate_in_order(history, [1])
    with pytest.raises(ValidationError):
        integrate_in_order(history, [1, 1])
    with pytest.raises(ValidationError):
        integrate_in_order(history, [0, 1])
    # these compare equal to a permutation of 1..2 but are not integers
    for order in ([1.0, 2.0], [2, 1.0], [True, 2], (np.float64(2.0), np.float64(1.0))):
        with pytest.raises(ValidationError, match="is not a permutation"):
            integrate_in_order(history, order)
    assert integrate_in_order(history, np.array([2, 1])) == integrate_in_order(history, [2, 1])


def test_integrate_in_order_matches_level_by_level_integration(rng):
    # each level's normalizer stands in for its integral, bit for bit
    for _ in range(100):
        depth = int(rng.integers(2, 5))
        history = chain_selected(PureState(random_unit(rng)), [random_unit(rng) for _ in range(depth)])
        if history.zero_probability:
            continue
        for normalize_all_levels in (False, True):
            for order in permutations(range(1, depth + 1)):
                joint = joint_function(history, normalize_all_levels)
                remaining = list(range(1, depth + 1))
                for level in order:
                    joint = joint.integrate_level(remaining.index(level))
                    remaining.remove(level)
                assert joint.factors == ()
                got = integrate_in_order(history, order, normalize_all_levels)
                assert got.hex() == joint.prefactor.hex()


def test_intermediate_marginals_reproduce_both_routes(rng):
    # integrating the first level first leaves the state-update route on the
    # second level; integrating the second level first leaves the
    # operator-product route on the first level
    for _ in range(50):
        s, n, m = random_unit(rng), random_unit(rng), random_unit(rng)
        if 1.0 + float(np.dot(s, n)) <= 1e-6:
            continue
        psi = PureState(s)
        joint = joint_function(chain_selected(psi, [n, m]))

        omega_first = marginal(joint, 0)
        via_state = route_state_update(n, m)
        probe = np.linspace(-0.5, 0.5, 101)
        np.testing.assert_allclose(omega_first(probe), via_state(probe), rtol=0, atol=1e-12)

        omega_prime_first = marginal(joint, 1)
        via_product = route_operator_product(psi, n, m)
        np.testing.assert_allclose(
            omega_prime_first(probe), via_product(probe), rtol=0, atol=1e-12
        )


def test_intermediate_marginals_differ_pointwise_but_agree_as_numbers():
    # frozen example: z state, measure x twice; both iterated integrals
    # computed through the interval engine give 1 while the intermediate
    # functions (constant 1 versus the {0, 2} step) differ everywhere
    psi = PureState(Z)
    joint = joint_function(chain_selected(psi, [X, X]))
    omega_first = marginal(joint, 0)
    omega_prime_first = marginal(joint, 1)
    assert omega_first == constant(1.0)
    assert omega_prime_first.values == (0.0, 2.0)
    assert omega_first.integrate() == 1.0
    assert omega_prime_first.integrate() == 1.0
    probe = np.linspace(-0.5, 0.5, 501)
    assert np.all(omega_first(probe) != omega_prime_first(probe))


def test_reduction_equivalence_with_quantum_chain(rng):
    # the joint integral (all levels but the last normalized) equals the
    # quantum conditional probability of the final outcome given the history
    for depth in (2, 3, 4):
        for _ in range(25):
            s = random_unit(rng)
            axes = [random_unit(rng) for _ in range(depth)]
            psi = PureState(s)
            got = joint_function(chain_selected(psi, axes)).integrate()
            want = chain_probability(psi, axes) / chain_probability(psi, axes[:-1])
            assert abs(got - want) <= 1e-12


def test_all_permutations_agree_for_depth_three(rng):
    for _ in range(50):
        s = random_unit(rng)
        axes = [random_unit(rng) for _ in range(3)]
        history = chain_selected(PureState(s), axes)
        values = [integrate_in_order(history, order) for order in permutations((1, 2, 3))]
        assert max(values) - min(values) <= 1e-12


# ---------------------------------------------------------------------------
# repeated measurement
# ---------------------------------------------------------------------------


def test_repeated_measurement_level_two_is_constant_one():
    assert repeated_measurement_check(PureState(Z), X) == constant(1.0)
    selected, complement = branch(BranchHistory(PureState(Z)), X)
    assert selected.current_state == PureState(X)
    assert complement.current_state == PureState(-X)


def test_repeated_measurement_check_is_the_second_branch_level(rng):
    # the map a second selected branch on the same axis would carry
    for _ in range(200):
        psi, axis = PureState(random_unit(rng)), random_unit(rng)
        if 1.0 + float(np.dot(psi.bloch, axis)) <= 1e-6:
            continue
        second = chain_selected(psi, [axis, axis]).nodes[1].level_function
        assert repeated_measurement_check(psi, axis) == second == constant(1.0)


def test_repeated_measurement_eigenstate_both_levels_constant():
    history = chain_selected(PureState(Z), [Z, Z])
    assert history.nodes[0].level_function == constant(1.0)
    assert history.nodes[1].level_function == constant(1.0)


def test_third_and_fourth_repetitions_stay_constant(rng):
    for _ in range(50):
        s, axis = random_unit(rng), random_unit(rng)
        if 1.0 + float(np.dot(s, axis)) <= 1e-6:
            continue
        history = chain_selected(PureState(s), [axis, axis, axis, axis])
        for node in history.nodes[1:]:
            assert node.level_function == constant(1.0)
            assert node.normalizer == 1.0


def test_repeated_measurement_orthogonal_raises():
    with pytest.raises(ReductionUndefinedError):
        repeated_measurement_check(PureState(Z), -Z)


def test_every_site_cuts_off_the_same_outcome_probability():
    # 1 + s.n = 1.5e-12 lies above the 1e-12 cutoff, the outcome probability
    # (1 + s.n)/2 below it: every site must call this conditioning impossible
    c = -1.0 + 1.5e-12
    psi = PureState([np.sqrt(1.0 - c * c), 0.0, c])
    assert 1.0 + float(np.dot(psi.bloch, Z)) > 1e-12
    selected, _ = branch(BranchHistory(psi), Z)
    assert selected.zero_probability
    with pytest.raises(ReductionUndefinedError):
        chain_probability(psi, [Z])
    assert sequence_probability(psi, [Z], ("selected",)) == 0.0
    with pytest.raises(ReductionUndefinedError):
        route_operator_product(psi, Z, X)
    with pytest.raises(ReductionUndefinedError):
        repeated_measurement_check(psi, Z)
    with pytest.raises(UndefinedConditionalError):
        classical_conditional(psi, X, Z)
    with pytest.raises(ScenarioError):
        run_scenario(ScenarioConfig("idempotence", state=psi.bloch, axes={"n": Z}))


# ---------------------------------------------------------------------------
# sequence probability and outcome trees
# ---------------------------------------------------------------------------


def test_sequence_probability_frozen_quarter():
    got = sequence_probability(PureState(Z), [X, Z], ("selected", "selected"))
    assert got == 0.25
    assert abs(oracle.chain_probability_matrix(Z, [X, Z]) - got) <= 1e-15


def test_sequence_probability_zero_step():
    assert sequence_probability(PureState(Z), [Z], ("complement",)) == 0.0


def test_sequence_probability_matches_chain_for_all_selected(rng):
    for _ in range(50):
        s = random_unit(rng)
        axes = [random_unit(rng) for _ in range(3)]
        got = sequence_probability(PureState(s), axes, ("selected",) * 3)
        want = chain_probability(PureState(s), axes)
        assert got == want


def test_outcome_tree_sums_to_one(rng):
    for depth in (1, 2, 3, 4):
        for _ in range(10):
            s = random_unit(rng)
            axes = [random_unit(rng) for _ in range(depth)]
            table = outcome_probabilities(PureState(s), axes)
            assert len(table) == 2**depth
            assert abs(sum(table.values()) - 1.0) <= 1e-12


def test_outcome_probabilities_match_matrix_oracle(rng):
    # complement steps are the chain rule on the opposite axis
    for _ in range(20):
        s = random_unit(rng)
        axes = [random_unit(rng) for _ in range(3)]
        for pattern, got in outcome_probabilities(PureState(s), axes).items():
            signed = [a if outcome == "selected" else -a for a, outcome in zip(axes, pattern)]
            assert abs(oracle.chain_probability_matrix(s, signed) - got) <= 1e-14


def test_branch_node_validation():
    with pytest.raises(ValidationError, match="outcome must be one of"):
        BranchNode(X, "maybe", constant(1.0))
    with pytest.raises(ValidationError, match="unit vector"):
        BranchNode([1.0, 1.0, 0.0], "selected", constant(1.0))
    # the normalizer is the level function's integral, never given separately
    assert BranchNode(X, "selected", indicator_from_sign(0.25, 1)).normalizer == 0.75
    with pytest.raises(TypeError):
        BranchNode(X, "selected", constant(1.0), 0.25)
    # a pattern is held to the same outcome names, and must match the axes one for one
    with pytest.raises(ValidationError, match="outcome must be one of"):
        sequence_probability(PureState(Z), [X], ("maybe",))
    with pytest.raises(ValidationError, match="2 axes but 1 outcomes"):
        sequence_probability(PureState(Z), [X, Y], ("selected",))


def test_branch_history_validation():
    # entries that are not nodes used to be accepted, and failed only when used
    psi = PureState(Z)
    with pytest.raises(ValidationError, match="nodes must be BranchNode instances, got int"):
        BranchHistory(psi, (1, 2))
    with pytest.raises(ValidationError, match="initial_state must be a PureState, got ndarray"):
        BranchHistory(Z)
    assert BranchHistory(psi, list(chain_selected(psi, [X, Y]).nodes)).depth == 2


# ---------------------------------------------------------------------------
# records dump
# ---------------------------------------------------------------------------


def test_branch_records_are_json_shaped():
    history = chain_selected(PureState(Z), [X, Y])
    records = branch_records(history)
    assert [r["level"] for r in records] == [1, 2]
    assert records[0]["outcome"] == "selected"
    assert records[0]["axis"] == [1.0, 0.0, 0.0]
    assert records[0]["normalizer"] == 0.5
    assert records[0]["prepared_bloch"] == [1.0, 0.0, 0.0]
    assert records[0]["breakpoints"] == [0.0]
    assert records[0]["values"] == [0.0, 1.0]
    json.dumps(records)  # round-trips through JSON without custom encoders


@pytest.mark.parametrize("flag", ["no", 1, 0, None, np.True_])
def test_normalize_all_levels_must_be_a_bool(flag):
    # a truthy non-bool used to switch on dividing by every level
    history = chain_selected(PureState(Z), [X, Y])
    with pytest.raises(ValidationError, match="normalize_all_levels must be a bool"):
        joint_function(history, flag)
    with pytest.raises(ValidationError, match="normalize_all_levels must be a bool"):
        integrate_in_order(history, (1, 2), flag)
