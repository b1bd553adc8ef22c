"""Deterministic sampling for the simulated particle-pair runs.

The generator is a 64-bit linear congruential generator with Knuth's MMIX
constants; together with top-53-bit float extraction and inverse-CDF
categorical sampling, counts are bit-reproducible for a given seed on any
platform:

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64
    u     <- (state >> 11) * 2^-53

`sample_counts` produces this stream in blocks of 2^12 draws by jump-ahead
(F. B. Brown, "Random number generation with arbitrary strides", Trans. Am.
Nucl. Soc. 71, 1994): k steps from state s give A_k * s + C_k mod 2^64, with
A_k = a^k and C_k = c (a^(k-1) + ... + 1), so one block is one wrapping
uint64 array expression.  The inverse CDF compares the integers m = state >> 11
with the thresholds ceil(c * 2^53) of the cumulative c, which is exact:
c <= m * 2^-53 exactly when ceil(c * 2^53) <= m.  Its counts equal those of
the per-draw stream of `Lcg64` bit for bit, and its memory is O(block), not
O(n_samples).
"""

import numpy as np

from .operators import _require_int
from .povm import OutcomeDistribution

__all__ = ["Lcg64", "sample_counts"]

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1
_INV_2_53 = 1.0 / (1 << 53)
_BLOCK = 1 << 12  # draws per block; small enough to stay in cache


class Lcg64:
    """Seeded 64-bit multiplicative-congruential-class generator."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        _require_int(seed, "seed")
        self.state = int(seed) & _MASK64

    def next_uint64(self) -> int:
        self.state = (LCG_MULTIPLIER * self.state + LCG_INCREMENT) & _MASK64
        return self.state

    def next_float(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits of the next state."""
        return (self.next_uint64() >> 11) * _INV_2_53


def _jump_table(size: int):
    """uint64 arrays (A_k, C_k), k = 1..size, such that k LCG steps take
    state s to A_k * s + C_k mod 2^64: A_k = a^k is a cumulative product and
    C_k = c (a^(k-1) + ... + 1) a cumulative sum.  Array arithmetic on uint64
    wraps silently, where a numpy scalar product warns."""
    mult = np.cumprod(np.full(size, LCG_MULTIPLIER, dtype=np.uint64))
    incr = np.cumsum(np.concatenate((np.ones(1, np.uint64), mult[:-1]))) * np.uint64(LCG_INCREMENT)
    return mult, incr


def sample_counts(probabilities, n_samples: int, seed: int) -> np.ndarray:
    """Histogram of n i.i.d. inverse-CDF draws from a finite distribution.

    The outcome order is the flat (row-major) order of `probabilities`; the
    returned counts keep that array's shape.  The array must pass the check
    of `OutcomeDistribution` (finite, entries >= -HERMITICITY_TOL, total 1
    within HERMITICITY_TOL), else ValidationError; negative round-off
    entries are clamped to zero for the cumulative only.
    """
    probs = OutcomeDistribution(probabilities).probabilities
    _require_int(n_samples, "n_samples", minimum=1)
    state = np.array([Lcg64(seed).state], dtype=np.uint64)  # the seed, checked and masked
    flat = np.clip(probs.reshape(-1), 0.0, None)
    thresholds = np.ceil(np.cumsum(flat) * 2.0**53).astype(np.uint64)
    top = len(flat) - 1
    mult, incr = _jump_table(min(n_samples, _BLOCK))
    counts = np.zeros(len(flat), dtype=np.intp)
    for start in range(0, n_samples, _BLOCK):
        size = min(_BLOCK, n_samples - start)
        states = mult[:size] * state
        states += incr[:size]
        indices = np.minimum(np.searchsorted(thresholds, states >> 11, side="right"), top)
        counts += np.bincount(indices, minlength=len(flat))
        state = states[-1:]
    return counts.reshape(probs.shape)
