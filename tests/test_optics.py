"""Mode-space elements: constructors, conventions, unitarity."""

import numpy as np
import pytest

from chipctx.optics import (
    ATOL,
    CouplerSpec,
    basis_state,
    compose,
    coupler,
    crossing,
    is_unitary,
    phase_shifter,
    probabilities,
)

from conftest import is_normalized, oracle_state


def test_balanced_coupler_splits_fifty_fifty():
    u = coupler(CouplerSpec((1, 2), 0.5))
    p = probabilities(u @ basis_state(1))
    assert np.allclose(p, [0.5, 0.5, 0.0, 0.0], atol=ATOL)


def test_fully_transmissive_coupler_is_identity():
    for pair in [(1, 2), (2, 4), (3, 1)]:
        assert np.allclose(coupler(CouplerSpec(pair, 1.0)), np.eye(4), atol=ATOL)


def test_coupler_power_split_column():
    u = coupler(CouplerSpec((3, 4), 0.3))
    assert np.allclose(np.abs(u[:, 2]) ** 2, [0.0, 0.0, 0.3, 0.7], atol=ATOL)


@pytest.mark.parametrize("pair,t", [((1, 1), 0.5), ((0, 2), 0.5), ((1, 5), 0.5),
                                    ((1, 2), -0.1), ((1, 2), 1.5), ((1, 2), float("nan"))])
def test_coupler_rejects_invalid_specs(pair, t):
    with pytest.raises(ValueError):
        CouplerSpec(pair, t)


def test_coupler_convention():
    # |same|^2 = T, |cross|^2 = 1-T, cross term +pi/2 ahead of the same term
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.0, 1.0, size=1000):
        u = coupler(CouplerSpec((2, 3), t))
        assert abs(abs(u[1, 1]) ** 2 - t) <= ATOL
        assert abs(abs(u[2, 1]) ** 2 - (1.0 - t)) <= ATOL
        if 0.0 < t < 1.0:
            assert np.isclose(np.angle(u[2, 1]) - np.angle(u[1, 1]), np.pi / 2)


def test_phase_shifter_zero_is_identity():
    assert np.allclose(phase_shifter({1, 2, 3, 4}, 0.0), np.eye(4), atol=ATOL)


def test_phase_shifter_pi_flips_sign():
    u = phase_shifter({1}, np.pi)
    assert np.isclose(u[0, 0], -1.0, atol=ATOL)
    assert np.allclose(np.delete(np.delete(u, 0, 0), 0, 1), np.eye(3), atol=ATOL)


def test_phase_shifter_rebuilds_state_phase():
    # adding phi on modes 1 and 2 of the phi=0 state gives the state at phi
    base = oracle_state(0.0)
    for phi in (0.4, 1.7, 3.9, 5.6):
        shifted = phase_shifter({1, 2}, phi) @ base
        assert np.allclose(shifted, oracle_state(phi), atol=1e-12)


def test_phase_shifter_rejects_bad_input():
    with pytest.raises(ValueError):
        phase_shifter(set(), 1.0)
    with pytest.raises(ValueError):
        phase_shifter({5}, 1.0)
    with pytest.raises(ValueError):
        phase_shifter({1}, float("inf"))


def test_crossing_is_an_involution():
    u = crossing((2, 3))
    assert np.allclose(u @ u, np.eye(4), atol=ATOL)


def test_crossing_moves_a_localized_photon():
    assert np.allclose(crossing((2, 3)) @ basis_state(2), basis_state(3), atol=ATOL)


def test_crossing_coupler_commutation_identity():
    # coupler on (1,3) conjugated by a (2,3) crossing equals coupler on (1,2)
    lhs = coupler(CouplerSpec((1, 2), 0.5)) @ crossing((2, 3))
    rhs = crossing((2, 3)) @ coupler(CouplerSpec((1, 3), 0.5))
    assert np.allclose(lhs, rhs, atol=ATOL)


def test_crossing_rejects_bad_modes():
    with pytest.raises(ValueError):
        crossing((2, 2))
    with pytest.raises(ValueError):
        crossing((0, 3))


def test_compose_identities():
    u = coupler(CouplerSpec((1, 4), 0.37))
    assert np.allclose(compose([u]), u, atol=ATOL)
    assert np.allclose(compose([u, u.conj().T]), np.eye(4), atol=ATOL)
    assert np.allclose(compose([]), np.eye(4), atol=ATOL)


def test_compose_order_is_propagation_order():
    a = phase_shifter({1}, 0.3)
    b = coupler(CouplerSpec((1, 2), 0.5))
    assert np.allclose(compose([a, b]), b @ a, atol=ATOL)


def test_constructors_always_unitary():
    rng = np.random.default_rng(11)
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for _ in range(1000):
        t = rng.uniform()
        pair = pairs[rng.integers(len(pairs))]
        theta = rng.uniform(-10, 10)
        assert is_unitary(coupler(CouplerSpec(pair, t)))
        assert is_unitary(phase_shifter({int(rng.integers(1, 5))}, theta))
        assert is_unitary(crossing(pair))


@pytest.mark.parametrize("shape", [(3, 3), (5, 5), (3, 4), (4,)])
def test_is_unitary_is_false_for_other_than_a_4x4_matrix(shape):
    assert not is_unitary(np.eye(*shape) if len(shape) == 2 else np.ones(shape))


def test_random_compositions_conserve_probability():
    rng = np.random.default_rng(13)
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for _ in range(200):
        sections = []
        for _ in range(rng.integers(1, 6)):
            kind = rng.integers(3)
            pair = pairs[rng.integers(len(pairs))]
            if kind == 0:
                sections.append(coupler(CouplerSpec(pair, rng.uniform())))
            elif kind == 1:
                sections.append(phase_shifter({pair[0]}, rng.uniform(-np.pi, np.pi)))
            else:
                sections.append(crossing(pair))
        u = compose(sections)
        assert is_unitary(u)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        assert is_normalized(u @ v)
