"""Generator correctness against the published reference sequences."""

import pytest

from intsnn.rng import (
    MASK64,
    TWO64,
    Xoshiro256StarStar,
    bernoulli_threshold,
    derive_seed,
    float_key,
    splitmix64,
)

# First five SplitMix64 outputs per seed, from the reference C implementation.
SPLITMIX_VECTORS = {
    0x0: [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ],
    0x1: [
        0x910A2DEC89025CC1,
        0xBEEB8DA1658EEC67,
        0xF893A2EEFB32555E,
        0x71C18690EE42C90B,
        0x71BB54D8D101B5B9,
    ],
    0x123456789ABCDEF0: [
        0x161922C645CE50E8,
        0xAD760CAFA1697B60,
        0x3501FF44902CA50D,
        0x417CB9A826D831DF,
        0x99AF6F9B0C4476B6,
    ],
}

# First eight xoshiro256** outputs with the state seeded via SplitMix64,
# from the reference C implementation.
XOSHIRO_VECTORS = {
    0x0: [
        0x99EC5F36CB75F2B4,
        0xBF6E1F784956452A,
        0x1A5F849D4933E6E0,
        0x6AA594F1262D2D2C,
        0xBBA5AD4A1F842E59,
        0xFFEF8375D9EBCACA,
        0x6C160DEED2F54C98,
        0x8920AD648FC30A3F,
    ],
    0x1: [
        0xB3F2AF6D0FC710C5,
        0x853B559647364CEA,
        0x92F89756082A4514,
        0x642E1C7BC266A3A7,
        0xB27A48E29A233673,
        0x24C123126FFDA722,
        0x123004EF8DF510E6,
        0x61954DCC47B1E89D,
    ],
    0x123456789ABCDEF0: [
        0xE01D6FAFC557F1B9,
        0xBD627EBE4406B404,
        0x2C23132B578B57DB,
        0x2E8B319D4D1F276A,
        0x608D57ACF53888E4,
        0x9F44D4FE68BDC399,
        0x2BF98C082C7CD85A,
        0x42F3AA03D402664C,
    ],
}


@pytest.mark.parametrize("seed", sorted(SPLITMIX_VECTORS))
def test_splitmix64_reference_vectors(seed):
    state = seed
    outputs = []
    for _ in range(5):
        state, z = splitmix64(state)
        outputs.append(z)
    assert outputs == SPLITMIX_VECTORS[seed]


@pytest.mark.parametrize("seed", sorted(XOSHIRO_VECTORS))
def test_xoshiro_reference_vectors(seed):
    gen = Xoshiro256StarStar(seed)
    assert [gen.next_u64() for _ in range(8)] == XOSHIRO_VECTORS[seed]


def test_raw_block_matches_next_u64():
    a = Xoshiro256StarStar(42)
    b = Xoshiro256StarStar(42)
    assert a.raw_block(100) == [b.next_u64() for _ in range(100)]
    assert a.getstate() == b.getstate()
    assert a.raw_block(0) == []


def test_state_round_trip():
    gen = Xoshiro256StarStar(7)
    gen.next_u64()
    snapshot = gen.getstate()
    first = [gen.next_u64() for _ in range(5)]
    gen.setstate(snapshot)
    assert [gen.next_u64() for _ in range(5)] == first


def test_uniform_int_bounds_and_degenerate_span():
    gen = Xoshiro256StarStar(3)
    values = [gen.uniform_int(-5, 5) for _ in range(500)]
    assert all(-5 <= v <= 5 for v in values)
    assert {gen.uniform_int(9, 9) for _ in range(10)} == {9}
    with pytest.raises(ValueError):
        gen.uniform_int(2, 1)
    with pytest.raises(ValueError):
        gen.uniform_int(0, TWO64)  # span of 2**64 + 1


def test_uniform_int_full_64_bit_span():
    gen = Xoshiro256StarStar(5)
    ref = Xoshiro256StarStar(5)
    # span == 2**64 never rejects: each draw is the raw output shifted.
    lo = -(1 << 63)
    assert [gen.uniform_int(lo, (1 << 63) - 1) for _ in range(4)] == [
        lo + ref.next_u64() for _ in range(4)
    ]


def test_uniform_int_unbiased_small_span():
    gen = Xoshiro256StarStar(2024)
    counts = [0, 0, 0]
    n = 30000
    for _ in range(n):
        counts[gen.uniform_int(0, 2)] += 1
    # 4 sigma band around n/3 for a fair three-sided die
    for c in counts:
        assert abs(c - n / 3) < 400


def test_uniform_int_rejection_consumes_extra_draw():
    # Craft the state so the first raw output is 2**64 - 1, the single
    # value rejected for span 3; solved by inverting the ** scrambler.
    s1 = 0x4FC71C71C71C71C7
    state = (7, s1, 11, 13)
    probe = Xoshiro256StarStar(0)
    probe.setstate(state)
    assert probe.next_u64() == TWO64 - 1
    second = probe.next_u64()
    assert second < TWO64 - (TWO64 % 3)

    gen = Xoshiro256StarStar(0)
    gen.setstate(state)
    assert gen.uniform_int(0, 2) == second % 3
    assert gen.getstate() == probe.getstate()


def test_uniform_ints_matches_sequential():
    for seed, lo, hi in [(1, 0, 2), (2, -4, 4), (3, 5, 5), (4, 0, (1 << 50))]:
        bulk_gen = Xoshiro256StarStar(seed)
        seq_gen = Xoshiro256StarStar(seed)
        bulk = bulk_gen.uniform_ints(lo, hi, 64)
        seq = [seq_gen.uniform_int(lo, hi) for _ in range(64)]
        assert bulk == seq
        assert bulk_gen.getstate() == seq_gen.getstate()


def test_uniform_ints_half_rejected_span_refills():
    # span 2**63 + 1 rejects every raw draw >= 2**63 + 1, about half of
    # them, so each call runs several refills of the missing draws.
    hi = 1 << 63
    for seed in range(20):
        bulk_gen = Xoshiro256StarStar(seed)
        seq_gen = Xoshiro256StarStar(seed)
        bulk = bulk_gen.uniform_ints(0, hi, 16)
        assert bulk == [seq_gen.uniform_int(0, hi) for _ in range(16)]
        assert bulk_gen.getstate() == seq_gen.getstate()


def test_uniform_ints_preserves_rejection_semantics():
    state = (7, 0x4FC71C71C71C71C7, 11, 13)  # first draw rejected for span 3
    bulk_gen = Xoshiro256StarStar(0)
    bulk_gen.setstate(state)
    seq_gen = Xoshiro256StarStar(0)
    seq_gen.setstate(state)
    assert bulk_gen.uniform_ints(0, 2, 4) == [
        seq_gen.uniform_int(0, 2) for _ in range(4)
    ]
    assert bulk_gen.getstate() == seq_gen.getstate()


def test_uniform_ints_validation():
    gen = Xoshiro256StarStar(0)
    assert gen.uniform_ints(0, 3, 0) == []
    with pytest.raises(ValueError):
        gen.uniform_ints(1, 0, 3)
    with pytest.raises(ValueError):
        gen.uniform_ints(0, 3, -1)


def test_derive_seed_distinct_and_order_sensitive():
    assert derive_seed(99) == 99  # empty path returns the master
    assert derive_seed(99, 1, 2) != derive_seed(99, 2, 1)
    assert derive_seed(99, 1) != derive_seed(100, 1)
    seen = {derive_seed(5, a, b) for a in range(30) for b in range(30)}
    assert len(seen) == 900
    assert all(0 <= s <= MASK64 for s in seen)


def test_float_key_distinguishes_values():
    assert float_key(0.1) != float_key(0.2)
    assert float_key(0.5) == float_key(0.5)
    assert float_key(0.0) != float_key(-0.0)  # distinct bit patterns
    assert float_key(1.0) == 0x3FF0000000000000


def test_bernoulli_threshold_endpoints():
    assert bernoulli_threshold(0.0) == 0
    assert bernoulli_threshold(1.0) == TWO64
    assert bernoulli_threshold(0.5) == 1 << 63
    with pytest.raises(ValueError):
        bernoulli_threshold(-0.1)
    with pytest.raises(ValueError):
        bernoulli_threshold(1.5)
