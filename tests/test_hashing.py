"""Hashing primitives vs naive matrix/Horner references."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qkd_sift.errors import DomainError
from qkd_sift.hashing import (
    is_probable_prime,
    poly_hash,
    random_below,
    random_bits,
    random_prime,
    toeplitz_hash,
)


def test_random_bits_deterministic_and_uint8():
    a = random_bits(random.Random(9), 64)
    b = random_bits(random.Random(9), 64)
    assert a.dtype == np.uint8
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= {0, 1}
    assert len(random_bits(random.Random(0), 0)) == 0
    with pytest.raises(DomainError):
        random_bits(random.Random(0), -1)


# -- Toeplitz ---------------------------------------------------------------


@settings(max_examples=100)
@given(st.data())
def test_toeplitz_equals_explicit_matrix(data):
    n = data.draw(st.integers(1, 40))
    out_len = data.draw(st.integers(0, 40))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    bits = random_bits(rng, n)
    seed = random_bits(rng, n + out_len - 1) if n + out_len - 1 > 0 else np.zeros(0, np.uint8)
    got = toeplitz_hash(bits, out_len, seed)
    t = oracles.toeplitz_matrix(seed, n, out_len)
    want = (t @ bits.astype(np.int64)) % 2
    assert np.array_equal(got, want.astype(np.uint8))


def test_toeplitz_is_linear_over_gf2():
    rng = random.Random(3)
    n, out_len = 200, 80
    seed = random_bits(rng, n + out_len - 1)
    a = random_bits(rng, n)
    b = random_bits(rng, n)
    ta = toeplitz_hash(a, out_len, seed)
    tb = toeplitz_hash(b, out_len, seed)
    tab = toeplitz_hash(a ^ b, out_len, seed)
    assert np.array_equal(tab, ta ^ tb)


def test_toeplitz_fft_path_matches_direct_path():
    # n * (n + out - 1) > 2^24 forces the FFT branch; compare against the
    # direct convolution computed here
    rng = random.Random(11)
    n, out_len = 5000, 2000
    assert n * (n + out_len - 1) > (1 << 24)
    bits = random_bits(rng, n)
    seed = random_bits(rng, n + out_len - 1)
    got = toeplitz_hash(bits, out_len, seed)
    conv = np.convolve(seed.astype(np.int64), bits.astype(np.int64))
    want = (conv[n - 1 : n - 1 + out_len] % 2).astype(np.uint8)
    assert np.array_equal(got, want)


def test_toeplitz_falls_back_to_the_direct_convolution(monkeypatch):
    # An FFT round trip half a unit from an integer is not trusted; the
    # patched transform is 0.4 off at one entry of the window.
    rng = random.Random(12)
    n, out_len = 4200, 40
    assert n * (n + out_len - 1) > (1 << 24)
    bits = random_bits(rng, n)
    seed = random_bits(rng, n + out_len - 1)
    irfft, convolve, direct = np.fft.irfft, np.convolve, []

    def off(*args):
        out = irfft(*args)
        out[n - 1 + 7] += 0.4
        return out

    def recorded(*args):
        direct.append(len(args[0]))
        return convolve(*args)

    monkeypatch.setattr(np.fft, "irfft", off)
    monkeypatch.setattr(np, "convolve", recorded)
    got = toeplitz_hash(bits, out_len, seed)
    assert direct == [len(seed)]
    want = oracles.toeplitz_matrix(seed, n, out_len).astype(np.int64) @ bits % 2
    assert got.dtype == np.uint8 and np.array_equal(got, want)


def test_toeplitz_degenerate_shapes():
    assert len(toeplitz_hash(np.ones(5, np.uint8), 0, np.ones(4, np.uint8))) == 0
    out = toeplitz_hash(np.zeros(0, np.uint8), 3, np.ones(2, np.uint8))
    assert np.array_equal(out, np.zeros(3, np.uint8))
    with pytest.raises(DomainError):
        toeplitz_hash(np.ones(5, np.uint8), 3, np.ones(6, np.uint8))  # seed too short


# -- primality + polynomial tags ----------------------------------------------


def test_primality_known_composites_and_primes():
    # Carmichael number and two strong pseudoprimes to small bases
    for n in (561, 3215031751, 25326001):
        assert not is_probable_prime(n)
    for n in (2, 3, 61, 2**61 - 1, 67280421310721):
        assert is_probable_prime(n)
    assert not is_probable_prime(1)
    assert not is_probable_prime(0)


def test_random_prime_in_range_and_prime():
    rng = random.Random(17)
    for bits in (8, 16, 40):
        p = random_prime(rng, bits)
        assert (1 << bits) <= p < (1 << (bits + 1))
        assert is_probable_prime(p)
    with pytest.raises(DomainError):
        random_prime(rng, 1)


def test_random_prime_wraps_to_the_bottom_of_its_range():
    class Draws:
        def getrandbits(self, k):
            assert k == 3
            return 7

    # 15 is the first candidate; 17 is past the range, so 9 and then 11.
    assert random_prime(Draws(), 3) == 11


def test_random_prime_deterministic():
    assert random_prime(random.Random(1), 32) == random_prime(random.Random(1), 32)


def test_random_prime_refuses_sizes_past_the_exact_witness_range():
    # The 13-prime witness set decides primality exactly below 3.3e24;
    # 80-bit primes stay below it, 81-bit ones may not.
    p = random_prime(random.Random(2), 80)
    assert (1 << 80) <= p < (1 << 81) < 3_317_044_064_679_887_385_961_981
    with pytest.raises(DomainError):
        random_prime(random.Random(2), 81)


def test_primality_is_exact_at_the_top_of_the_witness_range():
    # The least strong pseudoprime to all twelve bases 2..37 (a witness set
    # without 41 calls it prime), and a product of two primes near 2**40.
    assert not is_probable_prime(318_665_857_834_031_151_167_461)
    assert not is_probable_prime((2**40 - 87) * (2**40 - 167))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 1000, 2**37 + 5, 2**61 - 1])
def test_random_below_counts_the_draws_randrange_makes(n):
    for seed in range(20):
        rng, twin = random.Random(seed), random.Random(seed)
        value, drawn = random_below(rng, n)
        assert value == twin.randrange(n)
        assert rng.getstate() == twin.getstate()
        k = n.bit_length()
        assert drawn >= k and drawn % k == 0
    with pytest.raises(DomainError):
        random_below(random.Random(0), 0)


@settings(max_examples=50)
@given(st.integers(0, 2**32), st.integers(4, 64))
def test_poly_hash_matches_powers_oracle(seed, n_bits):
    rng = random.Random(seed)
    bits = random_bits(rng, n_bits)
    modulus = random_prime(rng, 32)
    point = rng.randrange(modulus)
    assert poly_hash(bits, modulus, point) == oracles.poly_eval(bits, modulus, point)


def test_poly_hash_detects_single_bit_flip():
    # a tag over a prime modulus larger than the degree always separates
    # strings at Hamming distance 1 (difference is point^k, nonzero mod p)
    rng = random.Random(23)
    bits = random_bits(rng, 100)
    modulus = random_prime(rng, 40)
    point = 1 + rng.randrange(modulus - 1)
    base = poly_hash(bits, modulus, point)
    for k in (0, 50, 99):
        flipped = bits.copy()
        flipped[k] ^= 1
        assert poly_hash(flipped, modulus, point) != base
