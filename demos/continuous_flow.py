#!/usr/bin/env python3
"""Time averages of a Lindblad relaxation flow against the closed form.

A single decay operator K = sqrt(gamma) |0><1| generates the flow
d rho / dt = K rho K* - (1/2){K*K, rho}.  The excited population decays as
exp(-gamma t), so its time average over [0, a] is (1 - exp(-gamma a)) / (gamma a).
"""

import numpy as np

from neveukit import (
    FolnerScheme,
    SemigroupAction,
    TracialAlgebra,
    average,
    neveu_decompose,
    trace,
)


def relaxation_generator(algebra, gamma):
    k = np.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    kk = k.conj().T @ k
    eye = np.eye(2)
    # vec(A X B) = (B^T kron A) vec(X), one block so the vec layout is plain
    return np.kron(k.conj(), k) - 0.5 * (np.kron(eye, kk) + np.kron(kk.T, eye))


def main():
    gamma = 1.0
    algebra = TracialAlgebra.full_matrix(2)
    action = SemigroupAction(
        algebra,
        "schrodinger",
        FolnerScheme("r-plus-cube", d=1),
        [relaxation_generator(algebra, gamma)],
    )

    rho = algebra.operator([np.array([[0.2, 0.1], [0.1, 1.8]], dtype=complex)])
    excited = algebra.operator([np.diag([0.0, 1.0])])
    p1 = trace(rho @ excited).real

    print("   t    avg excited population   closed form")
    for t in (0.5, 1.0, 2.0, 4.0, 8.0):
        avg = average(action, rho, t)
        got = trace(avg @ excited).real
        want = p1 * (1.0 - np.exp(-gamma * t)) / (gamma * t)
        print(f"{t:5.1f}   {got:.12f}        {want:.12f}")

    dec = neveu_decompose(action)
    print()
    print(f"flow decomposition: e1 rank {dec.e1.rank}, e2 rank {dec.e2.rank}")
    with np.printoptions(precision=4, suppress=True):
        print("invariant density (everything relaxes to the ground state):")
        print(dec.invariant_density.block_mats[0].real)


if __name__ == "__main__":
    main()
