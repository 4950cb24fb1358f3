"""Reproducible synthetic stream generators with retained ground truth.

Three variants:

  Stable        a fixed random subspace: L = U V with standard normal
                factors, plus a sparse matrix whose entries are nonzero
                independently with probability rho, uniform on [-1000, 1000].
  Drift         the first r0 basis columns drift: at sample t = t_p*i + j
                (0-based) the drifting block is
                U0[:, :r0] + sum_{k<=i} W_k + (j/t_p) * W_{i+1}
                with independent standard normal increments W_k; the
                remaining columns stay fixed.
  ChangePoints  independent fresh bases per piece (piece p has its own rank),
                drifting within each piece as above. cps are 1-based indices
                of the last sample of each piece but the final one.

Randomness comes from numpy's PCG64 generator seeded with the spec seed, so
identical specs give bit-identical output. The draw order is fixed:
bases (per piece: U0 then its drift increments), then burn-in coefficients,
then per-piece stream coefficients, then the burn-in sparse mask and values,
then the stream sparse mask and values. Mask and value arrays are drawn at
full size regardless of rho.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolation, is_count, is_real


@dataclass(frozen=True)
class Stable:
    r: int


@dataclass(frozen=True)
class Drift:
    r: int
    r0: int
    t_p: int


@dataclass(frozen=True)
class ChangePoints:
    ranks: tuple
    cps: tuple
    r0: int
    t_p: int


@dataclass(frozen=True)
class SimSpec:
    m: int
    t: int
    n_burnin: int
    rho: float
    seed: int
    variant: object

    def __post_init__(self):
        for name, low in (("m", 1), ("t", 0), ("n_burnin", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (is_count(value) and value >= low):
                raise ContractViolation(
                    f"SimSpec: {name} must be an int >= {low}, not {value!r}")
        if not (is_real(self.rho) and 0.0 <= self.rho < 1.0):
            raise ContractViolation(
                f"SimSpec: rho must be in [0, 1), not {self.rho!r}")


@dataclass
class GroundTruth:
    """Generated data plus everything needed to score an estimate.

    M = L + S holds exactly (S is added to L, never re-sampled into M).
    cps lists true change points, 1-based; U_trace holds the starting basis
    of each piece.
    """

    M: np.ndarray
    L: np.ndarray
    S: np.ndarray
    M_b: np.ndarray
    cps: list
    U_trace: list


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _sparse(rng, m, n, rho):
    mask = rng.random((m, n)) < rho
    values = rng.uniform(-1000.0, 1000.0, size=(m, n))
    return np.where(mask, values, 0.0)


def _piece_low_rank(U0, increments, V, r0, t_p):
    """Low-rank columns for one piece given its basis, drift increments and
    coefficient matrix V (r x length)."""
    m, r = U0.shape
    length = V.shape[1]
    L = np.empty((m, length))
    cum = np.zeros((m, r0))
    for t in range(length):
        i, j = divmod(t, t_p)
        if t > 0 and j == 0:
            cum += increments[i - 1]
        drift_block = U0[:, :r0] + cum + (j / t_p) * increments[i]
        v = V[:, t]
        L[:, t] = drift_block @ v[:r0] + U0[:, r0:] @ v[r0:]
    return L


def _gen_stable(spec, r):
    rng = _rng(spec.seed)
    U = rng.standard_normal((spec.m, r))
    V_b = rng.standard_normal((r, spec.n_burnin))
    V = rng.standard_normal((r, spec.t))
    S_b = _sparse(rng, spec.m, spec.n_burnin, spec.rho)
    S = _sparse(rng, spec.m, spec.t, spec.rho)
    L = U @ V
    return GroundTruth(M=L + S, L=L, S=S, M_b=U @ V_b + S_b, cps=[],
                       U_trace=[U])


def _gen_pieces(spec, ranks, cps, r0, t_p):
    """Pieces with fresh drifting bases split at cps; the burn-in block uses
    the first piece's starting basis, undrifted."""
    if not (0 <= r0 <= min(ranks) and t_p >= 1):
        raise ContractViolation(f"{type(spec.variant).__name__}: need "
                                "0 <= r0 <= every rank and t_p >= 1")
    bounds = [0, *cps, spec.t]
    lengths = [b2 - b1 for b1, b2 in zip(bounds, bounds[1:])]
    rng = _rng(spec.seed)
    bases = []
    increments = []
    for r_p, length in zip(ranks, lengths):
        bases.append(rng.standard_normal((spec.m, r_p)))
        n_inc = -(-length // t_p)  # ceil
        increments.append(
            [rng.standard_normal((spec.m, r0)) for _ in range(n_inc)])
    V_b = rng.standard_normal((ranks[0], spec.n_burnin))
    Vs = [rng.standard_normal((r_p, length))
          for r_p, length in zip(ranks, lengths)]
    S_b = _sparse(rng, spec.m, spec.n_burnin, spec.rho)
    S = _sparse(rng, spec.m, spec.t, spec.rho)

    L = np.hstack([
        _piece_low_rank(U0, inc, V, r0, t_p)
        for U0, inc, V in zip(bases, increments, Vs)
    ])
    return GroundTruth(M=L + S, L=L, S=S, M_b=bases[0] @ V_b + S_b, cps=cps,
                       U_trace=bases)


def generate(spec):
    """Generate the stream of spec's variant (see the module docstring); a
    drifting stream is one piece of the piecewise generator."""
    var = spec.variant
    if isinstance(var, Stable):
        if var.r < 0:
            raise ContractViolation("Stable: r must be >= 0")
        return _gen_stable(spec, var.r)
    if isinstance(var, Drift):
        return _gen_pieces(spec, [var.r], [], var.r0, var.t_p)
    if not isinstance(var, ChangePoints):
        raise ContractViolation(f"unknown variant: {var!r}")
    if len(var.ranks) != len(var.cps) + 1:
        raise ContractViolation(
            "ChangePoints: need exactly one more rank than change points")
    bounds = [0, *var.cps, spec.t]
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ContractViolation(
            "ChangePoints: cps must increase inside (0, T), leaving every "
            "piece >= 1 sample")
    return _gen_pieces(spec, list(var.ranks), list(var.cps), var.r0, var.t_p)


def full_stream_matrix(gt):
    """Burn-in block followed by the tracked stream, as one matrix."""
    return np.hstack([gt.M_b, gt.M])
