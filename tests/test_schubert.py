import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (IndeterminateRankError, random_mixed_density, random_pure_density,
                      schubert_membership)
from qmarginal import schubert
from qmarginal.schubert import (TRIAL_BLOCK, DegenerateSpectrumError, _sample_densities,
                                _validate_pi, check_spectral_inequality, hersch_zwahlen_check,
                                partial_trace)


def standard_flag(d):
    return np.eye(d, dtype=complex)


def eigenflag(rho):
    """Basis of the flag of rho's eigenvectors, by decreasing eigenvalue."""
    return np.linalg.eigh(rho)[1][:, ::-1]


def sample_schubert_cell(basis, pi, rng):
    """Random member of the open cell of the flag whose F_i is spanned by the
    first i columns of basis, by its echelon parameterization; with the
    standard flag, the scalar oracle of the stacked sampler behind
    hersch_zwahlen_check.

    Relative to the basis, row r has a pivot 1 at the r-th position of a 1 in
    pi, free complex Gaussian entries at earlier non-pivot positions and
    zeros elsewhere; the span always realizes the jump pattern pi.
    """
    d = basis.shape[0]
    pi = _validate_pi(pi, d)
    pivots = [i for i, b in enumerate(pi) if b]
    k = len(pivots)
    coeff = np.zeros((d, k), dtype=complex)
    for r, piv in enumerate(pivots):
        coeff[piv, r] = 1.0
        for j in range(piv):
            if j not in pivots:
                coeff[j, r] = rng.standard_normal() + 1j * rng.standard_normal()
    frame = basis @ coeff
    if k == 0:
        return frame
    q, _ = np.linalg.qr(frame)
    return q


def check_streams(seed, count):
    """The generators a check draws from: children of SeedSequence(seed)."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(count)]


def projection_value(rho, frame):
    return float(np.real(np.trace(frame.conj().T @ rho @ frame)))


def eigenbasis_score(lams, frame):
    """Tr[P_V diag(lams)] of one frame, scored as a stack of one the way
    hersch_zwahlen_check scores its stacks."""
    stack = frame[None]
    return float((np.sum(stack.real ** 2 + stack.imag ** 2, axis=2) @ lams)[0])


def random_unitary(d, rng):
    """Haar-distributed unitary via phase-fixed QR."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def first_violation_by_loop(pi, sigma, d_a, d_b, samples, seed):
    """The witness of check_spectral_inequality, one trial at a time.

    Each trial takes a d_ab x d_ab matrix of normals from the first stream
    and a uniform from the second; the state is GG^dag / Tr over the first r
    columns G, r = d_ab, 1 or 1 + floor(uniform * d_ab) by trial % 3.
    """
    d_ab = d_a * d_b
    normal_rng, rank_rng = check_streams(seed, 2)
    for trial in range(samples):
        normals = normal_rng.standard_normal((d_ab, d_ab, 2))
        drawn = 1 + int(rank_rng.random() * d_ab)
        kind = ("mixed-full", "pure", "mixed-rank")[trial % 3]
        rank = {"mixed-full": d_ab, "pure": 1, "mixed-rank": drawn}[kind]
        g = (normals[..., 0] + 1j * normals[..., 1])[:, :rank]
        rho_ab = g @ g.conj().T
        rho_ab = rho_ab / np.real(np.trace(rho_ab))
        lam_ab = np.sort(np.linalg.eigvalsh(rho_ab))[::-1]
        lam_a = np.sort(np.linalg.eigvalsh(partial_trace(rho_ab, d_a, d_b)))[::-1]
        lhs, rhs = float(np.dot(pi, lam_a)), float(np.dot(sigma, lam_ab))
        if lhs > rhs + 1e-10:
            return {"trial": trial, "kind": kind, "lam_a": [float(v) for v in lam_a],
                    "lam_ab": [float(v) for v in lam_ab], "lhs": lhs, "rhs": rhs}
    return None


class TestMembership:
    def test_first_axis(self):
        assert schubert_membership(np.eye(2)[:, :1], standard_flag(2), (1, 0))

    def test_jump_at_second_position(self):
        flag = standard_flag(2)
        frame = np.eye(2)[:, 1:]
        assert not schubert_membership(frame, flag, (1, 0))
        assert schubert_membership(frame, flag, (0, 1))

    def test_diagonal_vector_jumps_late(self):
        flag = standard_flag(2)
        frame = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        assert schubert_membership(frame, flag, (0, 1))
        assert not schubert_membership(frame, flag, (1, 0))

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            schubert_membership(np.eye(3)[:, :2], standard_flag(3), (1, 0, 0))

    def test_borderline_rank_is_indeterminate(self):
        # the second component sits within a decade of the rank threshold
        frame = np.array([[1.0], [3e-8]]) / np.hypot(1.0, 3e-8)
        with pytest.raises(IndeterminateRankError, match="within a decade of the rank"):
            schubert_membership(frame, standard_flag(2), (1, 0))


class TestCellSampling:
    def test_leading_ones_cell_is_singleton(self):
        flag = eigenflag(random_hermitian(4, 3))
        for seed in range(5):
            frame = sample_schubert_cell(flag, (1, 1, 0, 0), np.random.default_rng(seed))
            target = flag[:, :2]
            overlap = target.conj().T @ frame
            # same span: projection preserves the frame
            assert np.max(np.abs(frame - target @ overlap)) < 1e-12

    def test_samples_are_members(self):
        flag = eigenflag(random_hermitian(5, 4))
        rng = np.random.default_rng(0)
        for pattern in [(0, 1, 0, 1, 0), (1, 0, 0, 0, 1), (0, 0, 1, 1, 1)]:
            for _ in range(10):
                frame = sample_schubert_cell(flag, pattern, rng)
                assert schubert_membership(frame, flag, pattern)

    def test_trailing_block_avoids_early_flag_generically(self):
        d, k = 5, 2
        flag = eigenflag(random_hermitian(d, 5))
        pi = (0, 0, 0, 1, 1)
        early = flag[:, :d - k]
        for seed in range(100):
            frame = sample_schubert_cell(flag, pi, np.random.default_rng(seed))
            stacked = np.hstack([frame, early])
            sing = np.linalg.svd(stacked, compute_uv=False)
            rank = int(np.sum(sing > 1e-8 * sing[0]))
            assert k + (d - k) - rank == 0  # dim(V cap F_{d-k}) = 0

    def test_empty_pattern_gives_zero_subspace(self):
        flag = standard_flag(3)
        frame = sample_schubert_cell(flag, (0, 0, 0), np.random.default_rng(0))
        assert frame.shape == (3, 0)


class TestHerschZwahlen:
    def test_diagonal_single_eigenvalue(self):
        report = hersch_zwahlen_check(np.diag([3.0, 2.0, 1.0]), (0, 1, 0), trials=50)
        assert report.target == pytest.approx(2.0)
        assert report.passed()

    def test_diagonal_pair(self):
        report = hersch_zwahlen_check(np.diag([3.0, 2.0, 1.0]), (1, 0, 1), trials=200)
        assert report.target == pytest.approx(4.0)
        assert report.min_sampled >= 4.0 - 1e-9
        assert report.passed()

    def test_all_patterns_random_hermitian(self):
        rho = random_hermitian(4, 7)
        lams = np.sort(np.linalg.eigvalsh(rho))[::-1]
        for mask in range(16):
            pi = tuple(int(b) for b in format(mask, "04b"))
            report = hersch_zwahlen_check(rho, pi, trials=40, seed=11)
            assert report.passed()
            assert report.target == pytest.approx(float(np.dot(pi, lams)))

    def test_unitary_invariance_of_target(self):
        rho = random_hermitian(4, 8)
        u = random_unitary(4, np.random.default_rng(2))
        pi = (1, 0, 1, 0)
        a = hersch_zwahlen_check(rho, pi, trials=10)
        b = hersch_zwahlen_check(u @ rho @ u.conj().T, pi, trials=10)
        assert a.target == pytest.approx(b.target, abs=1e-10)

    def test_degenerate_input_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            hersch_zwahlen_check(np.eye(3), (1, 0, 0))

    def test_ky_fan_consistency(self):
        rho = random_hermitian(5, 9)
        lams = np.sort(np.linalg.eigvalsh(rho))[::-1]
        for k in range(1, 5):
            pi = tuple([1] * k + [0] * (5 - k))
            report = hersch_zwahlen_check(rho, pi, trials=30)
            assert report.target == pytest.approx(float(lams[:k].sum()))
            assert report.passed()

    def test_non_square_or_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hersch_zwahlen_check(np.ones((2, 3)), (1, 0))
        with pytest.raises(ValueError, match="square"):
            hersch_zwahlen_check(np.ones(3), (1, 0, 0))
        with pytest.raises(ValueError, match="Hermitian"):
            hersch_zwahlen_check(np.array([[2.0, 1.0], [0.0, 1.0]]), (1, 0))

    def test_eigenbasis_score_is_the_projection_value(self):
        # Tr[P_V rho] is unitarily invariant: a frame Q of the standard cell
        # scored against diag(lam) equals rho's projection onto V Q, with V
        # rho's eigenvectors, and the check's minimum is the smallest of them
        for d in range(3, 7):
            rho = random_hermitian(d, 30 + d)
            lams, basis = np.linalg.eigvalsh(rho)[::-1], eigenflag(rho)
            for mask in range(2 ** d):
                pi = tuple(int(b) for b in format(mask, f"0{d}b"))
                rng, = check_streams(d, 1)
                frames = [sample_schubert_cell(standard_flag(d), pi, rng) for _ in range(3)]
                values = [projection_value(rho, basis @ frame) for frame in frames]
                for frame, value in zip(frames, values):
                    assert abs(eigenbasis_score(lams, frame) - value) <= 1e-12
                report = hersch_zwahlen_check(rho, pi, trials=3, seed=d)
                assert abs(report.min_sampled - min(values)) <= 1e-12

    def test_increasing_spectrum_fails_the_check(self, monkeypatch):
        # with the eigenvalues in increasing order the marked one is no
        # minimum: a member z e_0 + e_1 of the cell of (0, 1, 0, 0) scores
        # (|z|^2 lam_0 + lam_1) / (1 + |z|^2), below lam_1 for every z != 0
        spectrum = schubert._spectrum
        monkeypatch.setattr(schubert, "_spectrum", lambda rho: spectrum(rho)[::-1])
        rho = random_hermitian(4, 13)
        report = hersch_zwahlen_check(rho, (0, 1, 0, 0), trials=50)
        assert report.target == pytest.approx(np.linalg.eigvalsh(rho)[1])
        assert not report.passed()

    @pytest.mark.parametrize("trials", [50, 300])  # 300 spans two blocks
    def test_batched_minimum_is_the_scalar_sampler(self, trials):
        # the frames from sample_schubert_cell on the standard flag, one trial
        # after another on the check's one stream, scored one at a time in
        # rho's eigenbasis: the same minimum, bit for bit
        rho = random_hermitian(4, 7)
        lams = np.linalg.eigvalsh(rho)[::-1]
        seed = 11
        for mask in range(16):
            pi = tuple(int(b) for b in format(mask, "04b"))
            rng, = check_streams(seed, 1)
            values = [eigenbasis_score(lams, sample_schubert_cell(standard_flag(4), pi, rng))
                      for _ in range(trials)]
            report = hersch_zwahlen_check(rho, pi, trials=trials, seed=seed)
            assert report.min_sampled == min(values)

    def test_check_does_not_replay_the_normals_of_rho(self):
        # qmarg hz draws rho from default_rng([seed, 0]), which is the
        # stream of default_rng(seed); the check's first trial must not take
        # those normals again
        seed, d, pi = 42, 5, (0, 1, 0, 1, 1)
        assert np.array_equal(np.random.default_rng([seed, 0]).standard_normal(12),
                              np.random.default_rng(seed).standard_normal(12))
        rng = np.random.default_rng([seed, 0])
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = (g + g.conj().T) / 2.0
        lams = np.linalg.eigvalsh(rho)[::-1]
        replay = sample_schubert_cell(standard_flag(d), pi, np.random.default_rng([seed, 0]))
        own = sample_schubert_cell(standard_flag(d), pi, check_streams(seed, 1)[0])
        report = hersch_zwahlen_check(rho, pi, trials=1, seed=seed)
        assert report.min_sampled == eigenbasis_score(lams, own)
        assert report.min_sampled != eigenbasis_score(lams, replay)


class TestDuality:
    def test_duality_on_eigenvector_subspaces(self):
        # the cell of -rho indexed by sigma and the cell of rho indexed by the
        # reversed sequence agree on every span of eigenvectors, which are the
        # representatives the minimization argument uses
        rho = random_hermitian(5, 12)
        flag_neg = eigenflag(-rho)
        flag_pos = eigenflag(rho)
        for mask in range(32):
            sigma = tuple(int(b) for b in format(mask, "05b"))
            dual = sigma[::-1]
            frame = flag_neg[:, [i for i, b in enumerate(sigma) if b]]
            assert schubert_membership(frame, flag_neg, sigma)
            assert schubert_membership(frame, flag_pos, dual)

    def test_duality_fails_for_generic_cell_members(self):
        # falsification kept on record: as a set identity over *open* cells the
        # reversal rule is wrong; a generic member of the sigma-cell of -rho
        # already misses the reversed cell of rho for sigma = (1,0,1,0,0)
        rho = random_hermitian(5, 12)
        flag_neg = eigenflag(-rho)
        flag_pos = eigenflag(rho)
        sigma = (1, 0, 1, 0, 0)
        hits = 0
        for seed in range(10):
            frame = sample_schubert_cell(flag_neg, sigma, np.random.default_rng(seed))
            assert schubert_membership(frame, flag_neg, sigma)
            hits += schubert_membership(frame, flag_pos, sigma[::-1])
        assert hits == 0


def marginal_b(rho, d_a, d_b):
    """The B marginal: partial_trace keeps A, so swap the two factors first."""
    swapped = rho.reshape(d_a, d_b, d_a, d_b).transpose(1, 0, 3, 2).reshape(d_a * d_b, -1)
    return partial_trace(swapped, d_b, d_a)


class TestPartialTrace:
    def test_bell_state(self):
        psi = np.zeros(4)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi)
        assert np.allclose(partial_trace(rho, 2, 2), np.eye(2) / 2)

    def test_product_state(self):
        rng = np.random.default_rng(5)
        rho_a = random_mixed_density(2, rng)
        rho_b = random_mixed_density(3, rng)
        rho = np.kron(rho_a, rho_b)
        assert np.allclose(partial_trace(rho, 2, 3), rho_a, atol=1e-12)
        assert np.allclose(marginal_b(rho, 2, 3), rho_b, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), 2, 2)

    def test_stack_reduces_each_matrix(self):
        rng = np.random.default_rng(6)
        stack = np.array([random_mixed_density(6, rng) for _ in range(5)])
        reduced = partial_trace(stack, 2, 3)
        for rho, part in zip(stack, reduced):
            assert np.array_equal(part, partial_trace(rho, 2, 3))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]), st.sampled_from([2, 3]))
    def test_defining_property(self, seed, d_a, d_b):
        rng = np.random.default_rng(seed)
        rho = random_mixed_density(d_a * d_b, rng)
        g = rng.standard_normal((d_a, d_a)) + 1j * rng.standard_normal((d_a, d_a))
        x = (g + g.conj().T) / 2.0
        lhs = np.trace(partial_trace(rho, d_a, d_b) @ x)
        rhs = np.trace(rho @ np.kron(x, np.eye(d_b)))
        assert abs(lhs - rhs) < 1e-10

    def test_preserves_positivity_and_trace(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            rho = random_mixed_density(6, rng, rank=int(rng.integers(1, 7)))
            reduced = partial_trace(rho, 2, 3)
            assert abs(np.trace(reduced).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(reduced).min() > -1e-10


class TestSpectralInequality:
    def test_largest_marginal_eigenvalue_bound(self):
        verdict = check_spectral_inequality((1, 0), (1, 1, 0, 0), 2, 2, samples=2000, seed=1)
        assert not verdict.violated

    def test_trace_identity_never_violated(self):
        verdict = check_spectral_inequality((1, 1), (1, 1, 1, 1), 2, 2, samples=2000, seed=2)
        assert not verdict.violated

    def test_false_inequality_witnessed(self):
        verdict = check_spectral_inequality((1, 0), (0, 0, 0, 1), 2, 2, samples=100, seed=3)
        assert verdict.violated
        assert verdict.witness is not None
        assert verdict.witness["lhs"] > verdict.witness["rhs"]

    def test_deterministic_given_seed(self):
        a = check_spectral_inequality((1, 0), (0, 0, 0, 1), 2, 2, samples=100, seed=4)
        b = check_spectral_inequality((1, 0), (0, 0, 0, 1), 2, 2, samples=100, seed=4)
        assert a == b

    @pytest.mark.parametrize("pi,sigma,seed,first", [
        ((1, 0), (0, 0, 0, 1), 3, None),
        ((0, 1), (1, 0, 0, 0), 1, 351),  # beyond the first block of trials
    ])
    def test_witness_is_the_first_scalar_violation(self, pi, sigma, seed, first):
        expected = first_violation_by_loop(pi, sigma, 2, 2, samples=400, seed=seed)
        verdict = check_spectral_inequality(pi, sigma, 2, 2, samples=400, seed=seed)
        assert expected is not None
        if first is not None:
            assert expected["trial"] == first
        assert verdict.violated
        assert verdict.samples_checked == expected["trial"] + 1
        assert verdict.witness == expected

    def test_one_block_of_states(self):
        d = 4
        rhos = _sample_densities(range(TRIAL_BLOCK), d, *check_streams(8, 2))
        assert rhos.shape == (TRIAL_BLOCK, d, d)
        assert np.max(np.abs(rhos - rhos.conj().swapaxes(1, 2))) <= 1e-15
        assert np.max(np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)) <= 1e-12
        assert np.linalg.eigvalsh(rhos).min() >= -1e-15
        ranks = np.linalg.matrix_rank(rhos, tol=1e-10, hermitian=True)
        assert np.all(ranks[0::3] == d)
        assert np.all(ranks[1::3] == 1)
        assert set(ranks[2::3].tolist()) == {1, 2, 3, 4}

    def test_results_do_not_depend_on_the_block(self, monkeypatch):
        rho = random_hermitian(5, 3)

        def reports():
            hz = [hersch_zwahlen_check(rho, pi, trials=300, seed=5)
                  for pi in [(1, 0, 1, 0, 1), (0, 0, 1, 1, 0)]]
            ineq = [check_spectral_inequality((0, 1), (1, 0, 0, 0), 2, 2, samples=400, seed=1),
                    check_spectral_inequality((1, 0), (1, 1, 0, 0), 2, 2, samples=300, seed=1)]
            return hz, ineq

        by_block = {}
        for block in (7, 256):
            monkeypatch.setattr(schubert, "TRIAL_BLOCK", block)
            by_block[block] = reports()
        assert by_block[7] == by_block[256]
        assert by_block[7][1][0].samples_checked == 352

    def test_pure_state_marginal_spectra_match(self):
        # sanity of the sampler: marginals of pure states have equal nonzero spectra
        rng = np.random.default_rng(21)
        rho = random_pure_density(4, rng)
        lam_a = np.sort(np.linalg.eigvalsh(partial_trace(rho, 2, 2)))[::-1]
        lam_b = np.sort(np.linalg.eigvalsh(marginal_b(rho, 2, 2)))[::-1]
        assert np.allclose(lam_a, lam_b, atol=1e-12)
