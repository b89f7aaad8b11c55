"""Built-in small game instances used by tests and the verify command."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .mfg_model import MajorParams, MinorTypeParams, MmMfgProblem
from .numerics import TimeGrid


def coupled_toy(M: int = 400, rho: float = 0.0, sigma: float = 0.25) -> MmMfgProblem:
    """Two coupled types: the default demonstration game.

    Moderate couplings keep the consistency map a contraction while leaving
    visible mean-field feedback in costs and gaps.
    """
    n = 2
    major = MajorParams(
        A0=[[0.1, 0.2], [0.0, -0.3]],
        F0=[[0.3, 0.0], [0.1, 0.2]],
        B0=[[1.0], [0.5]],
        b0=np.array([[0.2], [-0.1]]),
        sigma0=sigma * np.eye(n),
        Qhat0=0.5 * np.eye(n),
        Q0=np.eye(n),
        N0=[[0.05], [0.0]],
        R0=[[1.0]],
        H0=[[0.4, 0.0], [0.0, 0.3]],
        eta0=np.array([[0.3], [-0.2]]),
    )
    minors = [
        MinorTypeParams(
            Ak=[[-0.2, 0.1], [0.0, -0.4]],
            Fk=[[0.25, 0.0], [0.0, 0.2]],
            Gk=[[0.3, 0.0], [0.1, 0.2]],
            Bk=[[1.0], [0.3]],
            bk=np.array([[0.1], [0.05]]),
            sigmak=sigma * np.eye(n),
            Qhatk=0.4 * np.eye(n),
            Qk=np.eye(n),
            Nk=[[0.0], [0.05]],
            Rk=[[1.0]],
            Hk=[[0.3, 0.0], [0.0, 0.25]],
            Hhatk=[[0.2, 0.05], [0.0, 0.15]],
            etak=np.array([[0.2], [0.1]]),
        ),
        MinorTypeParams(
            Ak=[[0.0, -0.1], [0.2, -0.5]],
            Fk=[[0.2, 0.05], [0.0, 0.25]],
            Gk=[[0.25, 0.1], [0.0, 0.3]],
            Bk=[[0.8], [1.0]],
            bk=np.array([[-0.05], [0.1]]),
            sigmak=sigma * np.eye(n),
            Qhatk=0.3 * np.eye(n),
            Qk=1.2 * np.eye(n),
            Nk=[[0.05], [0.0]],
            Rk=[[1.2]],
            Hk=[[0.25, 0.05], [0.0, 0.3]],
            Hhatk=[[0.15, 0.0], [0.05, 0.2]],
            etak=np.array([[-0.1], [0.15]]),
        ),
    ]
    return MmMfgProblem(
        major=major,
        minors=minors,
        pi=[0.6, 0.4],
        grid=TimeGrid(1.0, M),
        rho=rho,
        init_cov_major=0.2 * np.eye(n),
        init_cov_minor=0.2 * np.eye(n),
    )


def decoupled_toy(M: int = 400, rho: float = 0.0, sigma: float = 0.25) -> MmMfgProblem:
    """coupled_toy with every cross-coupling zeroed.

    F0 = H0 = 0 and F_k = G_k = H_k = Hhat_k = 0, eta = 0, all left at
    their zero defaults: the major and each minor reduce to independent LQG
    problems, so one evaluation of the consistency map already lands on
    the fixed point.  Drifts b are kept nonzero so offsets stay exercised.
    """
    p = coupled_toy(M, rho, sigma)
    return replace(
        p, major=replace(p.major, F0=None, H0=None, eta0=None),
        minors=[replace(mn, Fk=None, Gk=None, Hk=None, Hhatk=None, etak=None)
                for mn in p.minors],
    )
