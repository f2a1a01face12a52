"""Structural invariant suite, runnable as `quditcat selftest`.

Each check returns quietly on success and raises AssertionError with a
diagnostic message on failure; `run_selftest` prints one line per check
and reports the overall verdict.  The checks are deliberately cheap
enough to run on every install while still exercising every algebraic
identity the library is built on.
"""

from __future__ import annotations

import itertools

import numpy as np

from .coherent import SymmetricState, dscs_coefficients, spin_matrix
from .fock import FockBasis, shared_basis
from .husimi import (
    IntegrationSpec,
    dscs_wehrl_exact,
    haar_sample,
    wehrl_entropy,
)
from .lmg import LMGParams, build_hamiltonian
from .parity import all_parity_labels, character, sector_mask


def check_characters(max_D: int = 6) -> None:
    """Exhaustive character identities of Z2^(D-1) for D <= max_D."""
    for D in range(2, max_D + 1):
        labels = all_parity_labels(D)
        for b in labels:
            total = sum(character(c, b) for c in labels)
            expected = 2 ** (D - 1) if not any(b) else 0
            assert total == expected, f"character sum failed at D={D}, b={b}"
            for c1, c2 in itertools.product(labels, repeat=2):
                csum = tuple((x + y) % 2 for x, y in zip(c1, c2))
                assert character(c1, b) * character(c2, b) == character(csum, b), (
                    f"character product failed at D={D}"
                )
            assert character(tuple([0] * (D - 1)), b) == 1


def check_commutators(max_D: int = 4, max_N: int = 6, tol: float = 1e-12) -> None:
    """[S_ij, S_kl] = d_jk S_il - d_il S_kj as sparse matrices."""
    for D in range(2, max_D + 1):
        basis = FockBasis(D, max_N)
        ops = {(i, j): spin_matrix(basis, i, j) for i in range(D) for j in range(D)}
        for (i, j), (k, l) in itertools.product(ops, repeat=2):
            lhs = (ops[i, j] @ ops[k, l] - ops[k, l] @ ops[i, j]).toarray()
            rhs = np.zeros_like(lhs)
            if j == k:
                rhs += ops[i, l].toarray()
            if i == l:
                rhs -= ops[k, j].toarray()
            err = np.abs(lhs - rhs).max()
            assert err <= tol, f"commutator failed at D={D}, ({i}{j},{k}{l}): {err}"


def check_projectors(D: int = 4, N: int = 7) -> None:
    """Sector masks are idempotent, orthogonal, and complete, exactly."""
    basis = FockBasis(D, N)
    masks = [sector_mask(basis, c) for c in all_parity_labels(D)]
    total = np.zeros(basis.size, dtype=int)
    for a, ma in enumerate(masks):
        total += ma
        for b, mb in enumerate(masks):
            overlap_count = int(np.sum(ma & mb))
            if a == b:
                assert overlap_count == int(ma.sum())
            else:
                assert overlap_count == 0, "sectors overlap"
    assert np.all(total == 1), "sectors do not partition the basis"


def check_hamiltonian_parity(D: int = 3, N: int = 12, lam: float = 1.3) -> None:
    """[H, Pi_j] = 0 exactly: H never couples different parity sectors."""
    basis = FockBasis(D, N)
    H = build_hamiltonian(LMGParams(D, N, 1.0, lam), basis).toarray()
    for j in range(1, D):
        signs = np.where(basis.states[:, j] % 2 == 1, -1.0, 1.0)
        comm = H * signs[None, :] - signs[:, None] * H
        assert np.all(comm == 0.0), f"H couples parity sectors through level {j}"


def check_resolution_of_identity(
    seed: int = 424242, samples: int = 60_000, n_sigma: float = 5.0
) -> None:
    """Haar average of |z><z| reproduces the identity within n_sigma."""
    rng = np.random.default_rng(seed)
    for D, N in [(2, 3), (2, 4), (3, 2), (3, 4)]:
        basis = shared_basis(D, N)
        zs = haar_sample(D, rng, samples)
        coeffs = dscs_coefficients(basis, zs)
        outer = basis.size * np.einsum("si,sj->ij", coeffs, coeffs.conj()) / samples
        sq = basis.size**2 * np.einsum(
            "si,sj->ij", np.abs(coeffs) ** 2, np.abs(coeffs) ** 2
        ) / samples
        std = np.sqrt(np.maximum(sq - np.abs(outer) ** 2, 1e-30) / samples)
        err = np.abs(outer - np.eye(basis.size))
        worst = (err - n_sigma * std).max()
        assert worst <= 0.0, (
            f"resolution of identity off by {worst:.3e} beyond {n_sigma} sigma "
            f"at (D={D}, N={N})"
        )


def check_lieb_bound(
    D: int = 3, N: int = 8, n_states: int = 100, seed: int = 31, samples: int = 20_000
) -> None:
    """Random states never beat the coherent-state Wehrl entropy."""
    rng = np.random.default_rng(seed)
    basis = shared_basis(D, N)
    floor = dscs_wehrl_exact(D, N)
    for trial in range(n_states):
        vec = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        state = SymmetricState(basis, vec / np.linalg.norm(vec))
        spec = IntegrationSpec("haar_mc", samples=samples, seed=seed + trial, batch=5_000)
        value, se = wehrl_entropy(state, spec)
        assert value >= floor - 3.0 * se, (
            f"random state {trial} breaks the coherent-state entropy floor: "
            f"{value:.4f} < {floor:.4f} - 3*{se:.1e}"
        )


CHECKS = [
    ("character identities (D <= 6)", check_characters),
    ("spin commutation relations (D <= 4, N <= 6)", check_commutators),
    ("parity projector partition", check_projectors),
    ("Hamiltonian parity blocks", check_hamiltonian_parity),
    ("coherent-state resolution of identity", check_resolution_of_identity),
    ("Wehrl entropy floor on random states", check_lieb_bound),
]


def run_selftest() -> bool:
    """Run every invariant check; returns True when all pass."""
    ok = True
    for name, check in CHECKS:
        try:
            check()
            detail = ""
            tag = "PASS"
        except AssertionError as exc:
            detail = f": {exc}"
            tag = "FAIL"
            ok = False
        print(f"[{tag}] {name}{detail}")
    return ok
