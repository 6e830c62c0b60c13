import pickle

import pytest
from hypothesis import given, strategies as st

from plucker_lab.pluecker import (
    InfeasibleInvariantsError,
    NodeCuspSolution,
    PlueckerInvariants,
    arithmetic_genus,
    dual_invariants,
    solve_nodes_cusps,
)


def test_arithmetic_genus():
    assert [arithmetic_genus(d) for d in (1, 2, 3, 4, 6, 18)] == [0, 0, 1, 3, 10, 136]
    with pytest.raises(ValueError):
        arithmetic_genus(0)


def test_dual_invariants_smooth_cubic():
    inv = dual_invariants(3, 0, 0)
    assert (inv.m, inv.f, inv.b, inv.g) == (6, 9, 0, 1)


def test_dual_invariants_nine_cusp_sextic():
    inv = dual_invariants(6, 0, 9)
    assert (inv.m, inv.f, inv.b, inv.g) == (3, 0, 0, 1)


def test_dual_invariants_branch_curve():
    inv = dual_invariants(18, 36, 72)
    assert (inv.m, inv.f, inv.b, inv.g) == (18, 72, 36, 28)
    # degree/class symmetric: the curve has the invariants of its dual
    assert (inv.d, inv.nu, inv.kappa) == (18, 36, 72)


def test_dual_invariants_nodal_and_cuspidal_cubics():
    nodal = dual_invariants(3, 1, 0)
    assert (nodal.m, nodal.f, nodal.b, nodal.g) == (4, 3, 0, 0)
    cuspidal = dual_invariants(3, 0, 1)
    assert (cuspidal.m, cuspidal.f, cuspidal.b, cuspidal.g) == (3, 1, 0, 0)


def test_dual_invariants_infeasible():
    with pytest.raises(InfeasibleInvariantsError) as err:
        dual_invariants(3, 4, 0)  # too many nodes for a cubic
    assert err.value.values["g"] < 0
    with pytest.raises(InfeasibleInvariantsError):
        dual_invariants(3, 0, 2)  # class would drop to 0
    with pytest.raises(ValueError):
        dual_invariants(1, 0, 0)
    with pytest.raises(ValueError):
        dual_invariants(3, -1, 0)


def test_solve_branch_curve():
    sol = solve_nodes_cusps(18, 28, 18)
    assert sol.feasible and (sol.nu, sol.kappa) == (36, 72)
    assert sol.raw == (36, 72)
    assert all(type(x) is int for x in sol.raw)
    assert sol.violated_identity is None


def test_solve_smooth_cases():
    # a smooth cubic: g = 1, m = 6 forces nu = kappa = 0
    sol = solve_nodes_cusps(3, 1, 6)
    assert sol.feasible and (sol.nu, sol.kappa) == (0, 0)
    sol = solve_nodes_cusps(6, 1, 3)
    assert sol.feasible and (sol.nu, sol.kappa) == (0, 9)


def test_solve_infeasible_degree_nine_smooth():
    sol = solve_nodes_cusps(9, 28, 18)
    assert not sol.feasible
    assert sol.nu is None and sol.kappa is None
    # genus pins nu = kappa = 0, so the class identity must fail loudly
    assert sol.violated_identity == "18 = 72"
    assert sol.raw == (-54, 54)
    assert all(type(x) is int for x in sol.raw)


def test_solve_infeasible_degree_nine_singular():
    sol = solve_nodes_cusps(9, 19, 18)
    assert not sol.feasible
    assert sol.violated_identity is None
    assert sol.raw == (-27, 36)
    assert all(type(x) is int for x in sol.raw)


def test_solve_input_validation():
    with pytest.raises(ValueError):
        solve_nodes_cusps(1, 0, 2)
    with pytest.raises(ValueError):
        solve_nodes_cusps(3, -1, 2)
    with pytest.raises(ValueError):
        solve_nodes_cusps(3, 0, 1)


def test_as_dict_shapes():
    inv = dual_invariants(3, 0, 0)
    assert inv.as_dict() == {
        "d": 3,
        "nu": 0,
        "kappa": 0,
        "m": 6,
        "f": 9,
        "b": 0,
        "g": 1,
    }
    assert list(inv.as_dict()) == ["d", "nu", "kappa", "m", "f", "b", "g"]
    assert solve_nodes_cusps(9, 28, 18).as_dict() == {
        "feasible": False,
        "nu": None,
        "kappa": None,
        "raw_nu": "-54",
        "raw_kappa": "54",
        "violated_identity": "18 = 72",
    }
    assert solve_nodes_cusps(18, 28, 18).as_dict() == {
        "feasible": True,
        "nu": 36,
        "kappa": 72,
        "raw_nu": "36",
        "raw_kappa": "72",
        "violated_identity": None,
    }


def test_record_reprs():
    assert repr(dual_invariants(3, 0, 0)) == (
        "PlueckerInvariants(d=3, nu=0, kappa=0, m=6, f=9, b=0, g=1)"
    )
    assert repr(solve_nodes_cusps(9, 28, 18)) == (
        "NodeCuspSolution(feasible=False, nu=None, kappa=None, raw=(-54, 54), "
        "violated_identity='18 = 72')"
    )
    assert repr(solve_nodes_cusps(18, 28, 18)) == (
        "NodeCuspSolution(feasible=True, nu=36, kappa=72, raw=(36, 72), "
        "violated_identity=None)"
    )


def test_records_are_read_only():
    inv = dual_invariants(3, 0, 0)
    sol = solve_nodes_cusps(3, 1, 6)
    for record, field in ((inv, "m"), (inv, "d"), (sol, "feasible"), (sol, "raw")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    assert (inv.m, sol.feasible, sol.raw) == (6, True, (0, 0))


@pytest.mark.parametrize(
    "d, nu, kappa, message",
    [
        (3, 4, 0, "derived invariants go negative: {'m': -2, 'f': -15, 'g': -3, '2b': 48}"),
        (3, 0, 2, "derived invariants go negative: {'m': 0, 'f': -7, 'g': -1, '2b': 18}"),
        (4, 0, 50,
         "derived invariants go negative: {'m': -138, 'f': -376, 'g': -47, '2b': 20306}"),
    ],
)
def test_infeasible_message(d, nu, kappa, message):
    with pytest.raises(InfeasibleInvariantsError) as err:
        dual_invariants(d, nu, kappa)
    assert str(err.value) == message
    assert list(err.value.values) == ["m", "f", "g", "2b"]


def test_round_trip_spot_checks():
    # dual_invariants and solve_nodes_cusps invert each other
    for (d, nu, kappa) in [(3, 0, 0), (4, 1, 2), (6, 0, 9), (18, 36, 72), (5, 2, 1)]:
        inv = dual_invariants(d, nu, kappa)
        sol = solve_nodes_cusps(d, inv.g, inv.m)
        assert sol.feasible and (sol.nu, sol.kappa) == (nu, kappa)


@given(d=st.integers(2, 40), g=st.integers(0, 800), m=st.integers(2, 1600))
def test_raw_solves_the_system_in_ints(d, g, m):
    sol = solve_nodes_cusps(d, g, m)
    nu, kappa = sol.raw
    assert type(nu) is int and type(kappa) is int
    assert nu + kappa == arithmetic_genus(d) - g
    assert 2 * nu + 3 * kappa == d * (d - 1) - m
    assert sol.feasible == (nu >= 0 and kappa >= 0)
    assert (sol.nu, sol.kappa) == ((nu, kappa) if sol.feasible else (None, None))


@given(
    d=st.integers(2, 10**6),
    nu=st.integers(0, 10**12),
    kappa=st.integers(0, 10**12),
)
def test_twice_the_bitangent_count_is_even(d, nu, kappa):
    m = d * (d - 1) - 2 * nu - 3 * kappa
    f = 3 * d * (d - 2) - 6 * nu - 8 * kappa
    b2 = m * (m - 1) - 3 * f - d
    assert b2 % 2 == 0
    try:
        inv = dual_invariants(d, nu, kappa)
    except InfeasibleInvariantsError as e:
        assert e.values["2b"] == b2
    else:
        assert 2 * inv.b == b2


def _derived(d, nu, kappa):
    """(m, f, g, 2b) straight from the Pluecker formulas."""
    m = d * (d - 1) - 2 * nu - 3 * kappa
    f = 3 * d * (d - 2) - 6 * nu - 8 * kappa
    g = (d - 1) * (d - 2) // 2 - nu - kappa
    return m, f, g, m * (m - 1) - 3 * f - d


@pytest.mark.parametrize("d, nu, kappa", [(3, 4, 0), (3, 0, 2), (4, 0, 50)])
def test_infeasible_error_survives_pickle(d, nu, kappa):
    with pytest.raises(InfeasibleInvariantsError) as err:
        dual_invariants(d, nu, kappa)
    back = pickle.loads(pickle.dumps(err.value))
    assert type(back) is InfeasibleInvariantsError
    assert back.args == err.value.args == _derived(d, nu, kappa)
    assert back.values == err.value.values
    assert str(back) == str(err.value)


def test_infeasible_values_is_a_fresh_read_only_dict():
    with pytest.raises(InfeasibleInvariantsError) as err:
        dual_invariants(3, 4, 0)
    values = err.value.values
    assert type(values) is dict and values == {"m": -2, "f": -15, "g": -3, "2b": 48}
    values["m"] = 0
    assert err.value.values is not values and err.value.values["m"] == -2
    with pytest.raises(AttributeError):
        err.value.values = {}


@given(d=st.integers(2, 30), nu=st.integers(0, 200), kappa=st.integers(0, 200))
def test_round_trip_records_are_the_named_tuples(d, nu, kappa):
    m, f, g, b2 = _derived(d, nu, kappa)
    try:
        inv = dual_invariants(d, nu, kappa)
    except InfeasibleInvariantsError as e:
        assert min(m, f, g, b2) < 0
        assert e.values == {"m": m, "f": f, "g": g, "2b": b2}
        return
    assert type(inv) is PlueckerInvariants
    assert inv == PlueckerInvariants(**inv._asdict())
    assert inv == (d, nu, kappa, m, f, b2 // 2, g)
    sol = solve_nodes_cusps(d, inv.g, inv.m)
    assert type(sol) is NodeCuspSolution
    assert sol == NodeCuspSolution(**sol._asdict())
    assert (sol.feasible, sol.nu, sol.kappa, sol.raw) == (True, nu, kappa, (nu, kappa))


@pytest.mark.parametrize("d, g, m, violated", [
    (18, 28, 18, None),  # feasible
    (9, 19, 18, None),  # infeasible
    (9, 28, 18, "18 = 72"),  # infeasible with a violated identity
])
def test_node_cusp_solutions_are_the_named_tuple(d, g, m, violated):
    sol = solve_nodes_cusps(d, g, m)
    assert type(sol) is NodeCuspSolution
    assert sol == NodeCuspSolution(**sol._asdict())
    assert sol.violated_identity == violated
    assert sol._fields == ("feasible", "nu", "kappa", "raw", "violated_identity")
