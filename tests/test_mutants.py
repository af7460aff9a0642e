"""Each check of the sweep kills a named mutant of the code it checks.

A mutant is one small defect applied with ``monkeypatch`` to a core the sweep
runs, never by editing the source.  Each case runs ``run_sweep(0, 200)`` and
asserts that the one summary key named for it exceeds the tolerance, so the
case fails if that check stops seeing the defect.
"""

import pytest

from hvlab import DEFAULT_TOLERANCE, run_sweep
from hvlab import bell, branching, qubit, scenarios
from hvlab.stepfn import indicator_from_sign


def _ratio_without_its_factor_2(monkeypatch):
    # the product route divides by Tr[rho B] = (1 + n.s)/2 instead of by 1 + n.s
    def routes(s, n, m):
        c_sn, c = qubit._cosine(s, n), qubit._cosine(n, m)
        value = qubit._conditional_expectation(c_sn, c)
        via_product = bell._bell_value(s, n, c_sn) * ((1.0 + c) / (0.5 * (1.0 + c_sn)))
        return bell._bell_value(n, m, c), via_product, value

    monkeypatch.setattr(scenarios, "_routes", routes)


def _polarity_flipped_off_the_tie(monkeypatch):
    # sign(s.m) reversed wherever s.m != 0.0; the tie keeps p(s) p(m)
    core = bell._bell_value

    def flipped(s, m, c):
        if c == 0.0:
            return core(s, m, c)
        return indicator_from_sign(0.5 * abs(c), -1 if c > 0.0 else 1)

    for module in (bell, branching, scenarios):
        monkeypatch.setattr(module, "_bell_value", flipped)


def _complement_equal_to_the_selected_map(monkeypatch):
    # the complement branch carries the selected indicator instead of 1 - indicator
    def mutant(history, axis, _branch=branching.branch):
        selected, _ = _branch(history, axis)
        last = selected.nodes[-1]
        complement = branching._node(last.axis, "complement", last.level_function)
        return selected, branching._history(history.initial_state, history.nodes + (complement,))

    monkeypatch.setattr(scenarios, "branch", mutant)


def _normalizer_scaled(monkeypatch):
    # every node's normalizer off by a factor 1 + 2**-30
    def scaled(axis, outcome, level_function, _node=branching._node):
        node = _node(axis, outcome, level_function)
        object.__setattr__(node, "normalizer", node.normalizer * (1.0 + 2.0**-30))
        return node

    monkeypatch.setattr(branching, "_node", scaled)


# mutant -> the summary key that must kill it
MUTANTS = {
    "route ratio without its factor 2": (_ratio_without_its_factor_2, "max_route_error"),
    "value-map polarity flipped where s.m != 0": (_polarity_flipped_off_the_tie, "max_measure_error"),
    "complement equal to the selected map": (_complement_equal_to_the_selected_map, "max_completeness_error"),
    "normalizer scaled by 1 + 2**-30": (_normalizer_scaled, "max_completeness_error"),
}


def test_the_sweep_passes_unmutated():
    summary = run_sweep(0, 200)
    assert summary["pass"], summary["failures"]
    assert all(summary[key] <= DEFAULT_TOLERANCE for _, key in MUTANTS.values())


@pytest.mark.parametrize("mutant", MUTANTS)
def test_the_named_check_kills_the_mutant(monkeypatch, mutant):
    apply, key = MUTANTS[mutant]
    apply(monkeypatch)
    summary = run_sweep(0, 200)
    assert summary[key] > DEFAULT_TOLERANCE, f"{key} = {summary[key]!r} does not kill: {mutant}"
    assert summary["pass"] is False
