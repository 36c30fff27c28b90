"""Two-universal hashing for key distillation.

Privacy amplification uses a binary Toeplitz matrix: the ``l x n`` matrix is
determined by ``n + l - 1`` seed bits with ``T[i][j] = seed[n - 1 + i - j]``,
and the output key is ``T @ key mod 2``.  Computing it as a convolution keeps
the construction obviously identical to that definition.

Error verification tags come from evaluating the key, read as polynomial
coefficients, at a random point of a prime field.  The prime and the point are
drawn from pre-shared randomness; :func:`random_prime` takes ``bits`` bits and
:func:`random_below` reports how many it took, so the caller can account for
them.  Primality is decided exactly: :func:`random_prime` refuses sizes whose
range reaches the bound below which the Miller-Rabin witness set is
deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .quantum_core import RandomStream

# Miller-Rabin with the first 13 primes as witnesses is exact for every
# n < _MR_EXACT_BELOW (Sorenson and Webster, Math. Comp. 86 (2017) 985).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def random_bits(rng: RandomStream, n: int) -> np.ndarray:
    """n uniform bits as a uint8 array, drawn in one getrandbits call."""
    if n < 0:
        raise DomainError(f"bit count must be >= 0, got {n}")
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    value = rng.getrandbits(n)
    text = format(value, f"0{n}b")
    return (np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")).astype(
        np.uint8
    )


# Above this operand-length product the quadratic convolution loses to FFT.
_DIRECT_CONV_LIMIT = 1 << 24


def toeplitz_hash(bits: np.ndarray, out_len: int, seed_bits: np.ndarray) -> np.ndarray:
    """Compress ``bits`` to ``out_len`` bits with the seeded Toeplitz matrix.

    Large inputs go through an FFT convolution; the coefficients are small
    integers (bounded by the key length, far below 2**53), so the transform
    round-trip is checked against rounding and falls back to the direct
    convolution if it ever came close to half a unit off.
    """
    n = len(bits)
    if out_len < 0:
        raise DomainError(f"output length must be >= 0, got {out_len}")
    if len(seed_bits) != n + out_len - 1:
        raise DomainError(
            f"Toeplitz seed needs {n + out_len - 1} bits, got {len(seed_bits)}"
        )
    if out_len == 0:
        return np.zeros(0, dtype=np.uint8)
    if n == 0:
        return np.zeros(out_len, dtype=np.uint8)
    if n * (n + out_len - 1) > _DIRECT_CONV_LIMIT:
        m = 1 << (2 * n + out_len - 2).bit_length()
        spectrum = np.fft.rfft(seed_bits.astype(np.float64), m)
        spectrum *= np.fft.rfft(bits.astype(np.float64), m)
        window = np.fft.irfft(spectrum, m)[n - 1 : n - 1 + out_len]
        rounded = np.rint(window)
        if float(np.abs(window - rounded).max()) <= 0.25:
            return (rounded.astype(np.int64) % 2).astype(np.uint8)
    conv = np.convolve(seed_bits.astype(np.int64), bits.astype(np.int64))
    return (conv[n - 1 : n - 1 + out_len] % 2).astype(np.uint8)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set: exact for n < 3.3e24.

    Above that bound a composite could pass, hence the name.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: RandomStream, bits: int) -> int:
    """A random prime in [2**bits, 2**(bits+1)), drawn with ``bits`` random bits.

    Raises DomainError unless 2 <= bits and the whole range lies below 3.3e24,
    where :func:`is_probable_prime` is exact (bits <= 80).
    """
    if bits < 2:
        raise DomainError(f"prime size must be >= 2 bits, got {bits}")
    if 1 << (bits + 1) > _MR_EXACT_BELOW:
        raise DomainError(
            f"{bits}-bit primes reach past {_MR_EXACT_BELOW}, where primality "
            "is no longer decided exactly"
        )
    candidate = (1 << bits) | rng.getrandbits(bits) | 1
    while True:
        if candidate >= (1 << (bits + 1)):
            candidate = (1 << bits) | 1
        if is_probable_prime(candidate):
            return candidate
        candidate += 2


def random_below(rng: RandomStream, n: int) -> tuple[int, int]:
    """A uniform integer in [0, n) and the number of random bits drawn for it.

    Rejection sampling on ``n.bit_length()``-bit draws, the same draws that
    ``random.Random.randrange(n)`` makes.
    """
    if n < 1:
        raise DomainError(f"range must be >= 1, got {n}")
    k = n.bit_length()
    drawn = k
    value = rng.getrandbits(k)
    while value >= n:
        value = rng.getrandbits(k)
        drawn += k
    return value, drawn


def poly_hash(bits: np.ndarray, modulus: int, point: int) -> int:
    """Evaluate the bit string as polynomial coefficients at ``point`` mod prime."""
    acc = 0
    for b in bits.tolist():
        acc = (acc * point + int(b)) % modulus
    return acc
