import numpy as np
import pytest

from ids_stability.model import (
    DiscreteIds,
    IdsSystem,
    ParseError,
    ValidationError,
    benchmark_system,
    load_system,
    save_system,
    validate_system,
)


def test_zero_matrix_system_is_valid():
    s = validate_system(IdsSystem(A=(np.zeros((2, 2)),), tau=(1.0,)))
    assert s.n == 2 and s.N == 1 and s.tau_max == 1.0


def test_benchmark_system_shape():
    s = benchmark_system(0.3, 0.1)
    assert s.n == 2 and s.N == 2
    assert s.tau_max == 0.3
    assert s.A[0][1, 0] == -13.0


def test_nonpositive_delay_rejected():
    with pytest.raises(ValidationError, match="nonpositive delay"):
        validate_system(IdsSystem(A=(np.zeros((1, 1)),), tau=(0.0,)))
    with pytest.raises(ValidationError, match="nonpositive delay"):
        validate_system(IdsSystem(A=(np.zeros((1, 1)),), tau=(-0.5,)))


def test_empty_system_rejected():
    with pytest.raises(ValidationError, match="N = 0"):
        validate_system(IdsSystem(A=(), tau=()))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValidationError, match="dimension mismatch"):
        validate_system(
            IdsSystem(A=(np.zeros((2, 2)), np.zeros((3, 3))), tau=(1.0, 2.0))
        )


def test_validate_is_idempotent():
    s = benchmark_system()
    s2 = validate_system(s)
    assert s2.tau == s.tau and s2.tau_max == s.tau_max
    for M, M2 in zip(s.A, s2.A):
        np.testing.assert_array_equal(M, M2)


def test_roundtrip_identity():
    s = benchmark_system(0.3, 0.0474)
    s2 = load_system(save_system(s))
    assert isinstance(s2, IdsSystem)
    assert s2.n == 2 and s2.N == 2
    np.testing.assert_allclose(s2.tau, s.tau, rtol=1e-12)
    for M, M2 in zip(s.A, s2.A):
        np.testing.assert_allclose(M2, M, rtol=1e-12)


def test_roundtrip_discrete():
    d = validate_system(DiscreteIds(A=(np.eye(2), 0.5 * np.eye(2)), tau=(0.1, 0.4)))
    d2 = load_system(save_system(d))
    assert isinstance(d2, DiscreteIds)
    np.testing.assert_allclose(d2.tau, d.tau, rtol=1e-12)


def test_load_rejects_nonsquare_matrix():
    text = '{"A": [[[1, 0], [0, 1], [2, 2]]], "tau": [1.0]}'
    with pytest.raises(ValidationError, match="not square"):
        load_system(text)


def test_load_rejects_empty_matrix_list():
    with pytest.raises(ValidationError, match="N = 0"):
        load_system('{"A": [], "tau": []}')


def test_load_reports_json_position():
    with pytest.raises(ParseError, match="line"):
        load_system('{"A": [ bad }')


def test_load_requires_fields_and_kind():
    with pytest.raises(ParseError, match="tau"):
        load_system('{"A": [[[0]]]}')
    with pytest.raises(ParseError, match="kind"):
        load_system('{"A": [[[0]]], "tau": [1], "kind": "weird"}')


def test_discrete_requires_increasing_delays():
    with pytest.raises(ValidationError, match="strictly increasing"):
        validate_system(DiscreteIds(A=(np.eye(1), np.eye(1)), tau=(0.4, 0.1)))


def test_systems_store_read_only_copies_and_derive_tau_max():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    for cls, tau in ((IdsSystem, (0.5, 0.2)), (DiscreteIds, (0.2, 0.5))):
        s = cls(A=(A, [[0, 1], [1, 0]]), tau=[np.float64(tau[0]), tau[1]])
        assert validate_system(s) is s
        assert s.tau == tau and all(type(t) is float for t in s.tau)
        assert s.tau_max == 0.5
        for M in s.A:
            assert M.dtype == np.float64 and not M.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                M[0, 0] = 9.0
        A[0, 0] = 7.0
        assert s.A[0][0, 0] == 1.0
        A[0, 0] = 1.0
    with pytest.raises(AttributeError):
        s.tau_max = 1.0


def test_with_delays_revalidates():
    s = benchmark_system()
    s2 = s.with_delays((0.5, 0.2))
    assert s2.tau_max == 0.5
    with pytest.raises(ValidationError):
        s.with_delays((0.5, -1.0))
