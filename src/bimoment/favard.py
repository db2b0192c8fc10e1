"""Constructive Favard-style reconstruction of a bimoment table.

Given recurrence data (gammas, triangular coefficient arrays, and the
degree-zero normalizations) there is exactly one bimoment table making
the generated polynomial sequences biorthogonal. It is the L·D·U
factorization of the table read backwards: the recurrences generate the
coefficient rows Cp = L⁻¹ and Cs = U⁻ᵀ of the monic sequences, the
gammas give the pairings h = diag(D), and mu = Cp⁻¹·diag(h)·Cs⁻ᵀ.
"""
from __future__ import annotations

import numpy as np

from .errors import ZeroGamma
from .tables import (PROV_RECURRENCE, BimomentTable, RecurrenceSystem, complex_from_pair,
                     table_from_factors)


def favard_reconstruct(rec: RecurrenceSystem, N: int) -> BimomentTable:
    """Unique size-N bimoment table biorthogonalizing the sequences of rec.

    Requires gamma_n != 0 != gamma_t_n for n < N and pi0, sigma0 != 0.
    Leading minors of the result satisfy
    Delta_n = (pi0*sigma0)^(-1) * prod_{k<=n-2} gamma_k*gamma_t_k.
    """
    if N > rec.order:
        raise ValueError(f"recurrence data stored to order {rec.order} < {N}")
    if complex(rec.pi0) == 0 or complex(rec.sigma0) == 0:
        raise ZeroGamma(-1, "pi0*sigma0")
    for n in range(N):
        for name in ("gamma", "gamma_t"):
            if complex(getattr(rec, name)[n]) == 0:
                raise ZeroGamma(n, name)
    mu = table_from_factors(*rec.factors(N))
    return BimomentTable(mu, np.full((N + 1, N + 1), PROV_RECURRENCE, dtype=np.int8))


def favard_verify(rec: RecurrenceSystem, table: BimomentTable) -> float:
    """Largest biorthogonality defect of table against rec.

    With the coefficient rows Cp, Cs of the sequences the recurrences
    generate, returns max_{n,m <= N} |(Cp·mu·Csᵀ)[n, m] - h_n delta_{nm}|
    / max(1, max|h|), the monic-frame residual (identically the
    normalized-sequence defect when all gammas are 1 and pi0*sigma0 = 1).
    """
    N = min(table.size, rec.order)
    Cp, h, Cs = rec.factors(N)
    defect = Cp @ table.entries[: N + 1, : N + 1] @ Cs.T - np.diag(h)
    return float(np.max(np.abs(defect))) / max(1.0, float(np.max(np.abs(h))))


def leading_minor_prediction(rec: RecurrenceSystem, n: int) -> complex:
    """(pi0*sigma0)^(-1) * prod_{k=0}^{n-2} gamma_k gamma_t_k, the value
    every Delta_n of the reconstructed table must take."""
    if n == 0:
        return 1.0 + 0j
    val = 1.0 / (complex(rec.pi0) * complex(rec.sigma0))
    for k in range(n - 1):
        val *= complex(rec.gamma[k]) * complex(rec.gamma_t[k])
    return val


# --- JSON serialization (external interface) ---

def _c2pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def recurrence_to_json_dict(rec: RecurrenceSystem) -> dict:
    return {
        "gamma": [_c2pair(g) for g in rec.gamma],
        "gamma_t": [_c2pair(g) for g in rec.gamma_t],
        "a": [[_c2pair(v) for v in row] for row in rec.a],
        "b": [[_c2pair(v) for v in row] for row in rec.b],
        "pi0": _c2pair(rec.pi0),
        "sigma0": _c2pair(rec.sigma0),
    }


def recurrence_from_json_dict(d: dict) -> RecurrenceSystem:
    return RecurrenceSystem(
        gamma=[complex_from_pair(v) for v in d["gamma"]],
        gamma_t=[complex_from_pair(v) for v in d["gamma_t"]],
        a=[[complex_from_pair(v) for v in row] for row in d["a"]],
        b=[[complex_from_pair(v) for v in row] for row in d["b"]],
        pi0=complex_from_pair(d["pi0"]),
        sigma0=complex_from_pair(d["sigma0"]),
    )
