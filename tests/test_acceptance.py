"""Acceptance gate: the eight end-to-end correctness criteria.

Each test prints exactly one PASS/FAIL line (visible with ``pytest -s``)
and asserts it, so the suite doubles as a human-readable report.
"""

import math
import time

import numpy as np
import pytest

from hybrid_sampler import bdg, blochmessiah, gaussian, model, sampling
from hybrid_sampler.hafnian import hafnian_naive, hafnian_powertrace

from conftest import (
    random_coupling_blocks,
    squeeze_blocks,
    thermal_blocks,
    two_mode_squeeze_blocks,
)

T_HALF = 1.0 / math.log(2.0)


def report(ok, label, detail=""):
    suffix = " (%s)" % detail if detail else ""
    line = "%s: %s%s" % ("PASS" if ok else "FAIL", label, suffix)
    print(line)
    assert ok, line


def make_state(blocks, temperature):
    dec = bdg.bogoliubov_diagonalize(bdg.assemble_hamiltonian(blocks))
    return gaussian.covariance(dec, temperature)


def thermal_pmf(count, mean):
    return mean**count / (1.0 + mean) ** (count + 1)


def test_criterion_1_thermal_end_to_end():
    """Bose-Einstein law from the full pipeline at unit mean occupation."""
    start = time.perf_counter()
    state = make_state(thermal_blocks(1.0), T_HALF)
    dist = sampling.enumerate_distribution(state, 10)
    elapsed = time.perf_counter() - start
    worst = max(
        abs(dist.probability((count,)) - thermal_pmf(count, 1.0))
        for count in range(11)
    )
    report(
        worst < 1e-10 and elapsed < 1.0,
        "criterion 1, thermal end-to-end",
        "max |rho - closed form| = %.3e, runtime %.3f s" % (worst, elapsed),
    )


def test_criterion_2_squeezed_vacuum_end_to_end():
    """Squeeze parameter and the even-count photon law at T = 0."""
    dec = bdg.bogoliubov_diagonalize(
        bdg.assemble_hamiltonian(squeeze_blocks(1.0, 0.6))
    )
    factors = blochmessiah.bloch_messiah(dec)
    r = 0.25 * math.log(4.0)
    r_err = abs(factors.r[0] - r)

    state = gaussian.covariance(dec, 0.0)
    dist = sampling.enumerate_distribution(state, 11)
    even_err = 0.0
    for k in range(6):
        want = (
            math.factorial(2 * k)
            * math.tanh(r) ** (2 * k)
            / (4**k * math.factorial(k) ** 2 * math.cosh(r))
        )
        even_err = max(even_err, abs(dist.probability((2 * k,)) - want))
    odd_mass = max(dist.probability((n,)) for n in range(1, 12, 2))
    report(
        r_err < 1e-10 and even_err < 1e-9 and odd_mass < 1e-12,
        "criterion 2, squeezed vacuum end-to-end",
        "r err %.3e, even err %.3e, odd max %.3e" % (r_err, even_err, odd_mass),
    )


def test_criterion_3_two_mode_correlation():
    """Perfect count correlation and the thermal photon marginal."""
    state = make_state(two_mode_squeeze_blocks(1.0, 0.4), 0.0)
    dist = sampling.enumerate_distribution(state, 8)
    mismatched = sum(
        value
        for counts, value in dist.probabilities.items()
        if counts.atoms[0] != counts.photons[0]
    )
    r = 0.25 * math.log(7.0 / 3.0)
    mean = math.sinh(r) ** 2
    photons = sampling.marginalize(dist, [1])
    marginal_err = max(
        abs(photons.probability((q,)) - thermal_pmf(q, mean)) for q in range(9)
    )
    report(
        mismatched < 1e-10 and marginal_err < 1e-9,
        "criterion 3, two-mode squeezed correlation",
        "Pr[N != q] = %.3e, marginal err %.3e" % (mismatched, marginal_err),
    )


def test_criterion_4_hafnian_oracle_equivalence():
    """Route agreement and algebraic identities over 200 random draws."""
    rng = np.random.default_rng(2024)
    partner = np.array([[0.0, 0.5 + 0.25j], [0.5 + 0.25j, 0.0]])
    partner_haf = hafnian_naive(partner)
    worst_route = 0.0
    worst_perm = 0.0
    worst_scale = 0.0
    worst_sum = 0.0
    for index in range(200):
        dim = 2 * (index % 6 + 1)
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = 0.5 * (mat + mat.T)
        naive = hafnian_naive(mat)
        power = hafnian_powertrace(mat)
        scale = max(1.0, abs(naive))
        worst_route = max(worst_route, abs(power - naive) / scale)

        perm = rng.permutation(dim)
        permuted = hafnian_powertrace(mat[np.ix_(perm, perm)])
        worst_perm = max(worst_perm, abs(permuted - power) / scale)

        c = 0.7 + 0.2j
        scaled = hafnian_powertrace(c * mat)
        want = c ** (dim // 2) * power
        worst_scale = max(
            worst_scale, abs(scaled - want) / max(1.0, abs(want))
        )

        whole = np.zeros((dim + 2, dim + 2), dtype=complex)
        whole[:dim, :dim] = mat
        whole[dim:, dim:] = partner
        summed = hafnian_powertrace(whole)
        want = power * partner_haf
        worst_sum = max(worst_sum, abs(summed - want) / max(1.0, abs(want)))

    big = rng.normal(size=(20, 20))
    big = 0.5 * (big + big.T)
    start = time.perf_counter()
    hafnian_powertrace(big)
    big_time = time.perf_counter() - start

    ok = (
        worst_route < 1e-9
        and worst_perm < 1e-9
        and worst_scale < 1e-9
        and worst_sum < 1e-9
        and big_time <= 60.0
    )
    report(
        ok,
        "criterion 4, hafnian oracle equivalence",
        "route %.3e, perm %.3e, scale %.3e, sum %.3e, 20x20 in %.2f s"
        % (worst_route, worst_perm, worst_scale, worst_sum, big_time),
    )


def test_criterion_5_symplectic_decomposition_suite():
    """Transform, factorization and correlator identities on 100 draws."""
    rng = np.random.default_rng(515)
    partitions = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]
    temperatures = [0.0, 0.3, 1.0]
    worst_symplectic = 0.0
    worst_reconstruction = 0.0
    worst_correlator = 0.0
    accepted = 0
    while accepted < 100:
        m_a, m_ph = partitions[accepted % len(partitions)]
        blocks = random_coupling_blocks(rng, m_a, m_ph, strength=0.2)
        ham = bdg.assemble_hamiltonian(blocks)
        try:
            dec = bdg.bogoliubov_diagonalize(ham)
        except bdg.InstabilityError:
            continue
        worst_symplectic = max(worst_symplectic, dec.symplectic_residual())

        factors = blochmessiah.bloch_messiah(dec)
        a_rec, b_rec = factors.reconstruct()
        rec = max(
            float(np.max(np.abs(a_rec - dec.a))),
            float(np.max(np.abs(b_rec - dec.b))),
        )
        worst_reconstruction = max(worst_reconstruction, rec)

        temperature = temperatures[accepted % len(temperatures)]
        state = gaussian.covariance(dec, temperature)
        m = dec.m
        if temperature == 0:
            occ = np.zeros(m)
        else:
            occ = 1.0 / np.expm1(dec.energies / temperature)
        r_inv = dec.r_inverse
        direct = (r_inv * np.concatenate([occ, occ + 1.0])[None, :]) @ r_inv.conj().T
        direct[m:, m:] -= np.eye(m)
        worst_correlator = max(
            worst_correlator, float(np.max(np.abs(direct - state.g)))
        )
        accepted += 1

    ok = (
        worst_symplectic < 1e-10
        and worst_reconstruction < 1e-9
        and worst_correlator < 1e-10
    )
    report(
        ok,
        "criterion 5, symplectic decomposition suite",
        "symplectic %.3e, reconstruction %.3e, correlator %.3e"
        % (worst_symplectic, worst_reconstruction, worst_correlator),
    )


def criterion_6_instances():
    return [
        ("squeezed", make_state(squeeze_blocks(1.0, 0.6), 0.0), 16),
        ("two-mode", make_state(two_mode_squeeze_blocks(1.0, 0.4), 0.0), 8),
        ("cold thermal", make_state(thermal_blocks(1.0), 0.5), 16),
        ("vacuum pair", make_state(two_mode_squeeze_blocks(1.0, 0.0), 0.0), 4),
    ]


def test_criterion_6_normalization_and_moments():
    """Captured-mass monotonicity and first-moment consistency."""
    instances = criterion_6_instances()
    worst_moment = 0.0
    monotone = True
    tested = 0
    for _, state, cutoff in instances:
        masses = []
        for k in sorted({2, cutoff // 2, cutoff}):
            masses.append(
                sampling.enumerate_distribution(state, k).captured_mass
            )
        monotone = monotone and all(
            later >= earlier - 1e-15 for earlier, later in zip(masses, masses[1:])
        )
        dist = sampling.enumerate_distribution(state, cutoff)
        if dist.captured_mass > 1.0 - 1e-8:
            means = np.zeros(state.m)
            for counts, value in dist.probabilities.items():
                means += value * np.asarray(counts.key(), dtype=float)
            err = float(np.max(np.abs(means - state.mean_occupations())))
            worst_moment = max(worst_moment, err)
            tested += 1
    report(
        monotone and tested == len(instances) and worst_moment < 1e-6,
        "criterion 6, normalization and moments",
        "moment err %.3e over %d instances, captured mass monotone: %s"
        % (worst_moment, tested, monotone),
    )


def wick_second_moments(state):
    """<n_i n_j> = N_ii N_jj + |N_ij|^2 + |M_ij|^2 + delta_ij N_ii.

    N_ij = <c_i^dag c_j> is the transpose of the upper-left block of G and
    M_ij = <c_i c_j> its lower-left block.
    """
    m = state.m
    normal = state.g[:m, :m].T
    anomalous = state.g[m:, :m]
    occ = np.real(np.diag(normal))
    return (
        np.outer(occ, occ)
        + np.abs(normal) ** 2
        + np.abs(anomalous) ** 2
        + np.diag(occ)
    )


def test_criterion_6_second_moments():
    """<n_i n_j> from the lattice against Wick's theorem on G."""
    rng = np.random.default_rng(606)
    instances = [(name, state) for name, state, _ in criterion_6_instances()]
    for index, (m_a, m_ph) in enumerate([(1, 1), (2, 1), (1, 2), (2, 0)]):
        blocks = random_coupling_blocks(rng, m_a, m_ph, strength=0.2)
        dec = bdg.bogoliubov_diagonalize(bdg.assemble_hamiltonian(blocks))
        state = gaussian.covariance(dec, (0.5, 0.0, 0.2, 0.3)[index])
        instances.append(("random M=%d" % state.m, state))
    worst = 0.0
    largest_cutoff = 0
    for _, state in instances:
        cutoff = 4
        dist = sampling.enumerate_distribution(state, cutoff)
        while dist.captured_mass <= 1.0 - 1e-12:
            cutoff += 2
            dist = sampling.enumerate_distribution(state, cutoff)
        largest_cutoff = max(largest_cutoff, cutoff)
        second = np.zeros((state.m, state.m))
        for counts, value in dist.probabilities.items():
            n = np.asarray(counts.key(), dtype=float)
            second += value * np.outer(n, n)
        worst = max(worst, float(np.max(np.abs(second - wick_second_moments(state)))))
    report(
        worst < 1e-6,
        "criterion 6, second moments against Wick's theorem",
        "max |<n_i n_j> - Wick| = %.3e over %d states, cutoffs up to %d"
        % (worst, len(instances), largest_cutoff),
    )


def test_criterion_7_sampler_statistics():
    """Chi-square fit of 1e5 seeded draws and seed determinism."""
    state = make_state(thermal_blocks(1.0), T_HALF)
    dist = sampling.enumerate_distribution(state, 12)
    draws = sampling.sample(dist, 100_000, seed=1)
    identical = draws == sampling.sample(dist, 100_000, seed=1)

    result = sampling.chi_square(dist, draws)
    report(
        identical and result.passed,
        "criterion 7, sampler statistics",
        "chi-square p = %.4f over %d buckets, seed-deterministic: %s"
        % (result.p_value, result.n_buckets, identical),
    )


def test_criterion_8_scattering_time_scaling():
    """Exact parameter scaling of the scattering-time estimate.

    All base values are powers of two, so every doubling ratio is exact
    in floating point and the comparisons can use equality.
    """
    base = {
        "mode": "geometry_1d",
        "m_a": 1,
        "m_ph": 1,
        "temperature": 0.0,
        "n_atoms": 131072.0,
        "kappa_nu": 0.5,
        "delta_a": 8.0,
        "delta_nu": [4.0],
        "rabi_drive_amp": 2.0,
        "rabi_mode_amp": [0.25],
        "omega_r": 0.25,
    }

    def tau(**over):
        doc = dict(base)
        for key, value in over.items():
            doc[key] = value
        return model.estimate_scattering_time(model.config_from_dict(doc))

    reference = tau()
    expected = {
        "n_atoms": (262144.0, 2.0),
        "kappa_nu": (1.0, 8.0),
        "delta_a": (16.0, 4.0),
        "delta_nu": ([8.0], 0.5),
        "rabi_drive_amp": (4.0, 0.25),
        "rabi_mode_amp": ([0.5], 0.25),
        "omega_r": (0.5, 0.5),
    }
    failures = [
        name
        for name, (doubled, factor) in expected.items()
        if tau(**{name: doubled}) != factor * reference
    ]
    report(
        not failures,
        "criterion 8, scattering-time scaling",
        "all seven doubling factors exact"
        if not failures
        else "wrong factors: %s" % ", ".join(failures),
    )
