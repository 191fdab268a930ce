import numpy as np

from draftwire.seeding import (
    MASK64,
    ROLE_DRAFT_MODEL,
    ROLE_DRAFT_SAMPLING,
    ROLE_VERIFICATION,
    ROLE_WORKER_MODEL_BASE,
    derive_seed,
    keyed_normals,
    philox_key,
    stable_prefix_hash,
    stream,
)


class TestStablePrefixHash:
    def test_empty_prefix_is_offset_basis(self):
        assert stable_prefix_hash(()) == 0xCBF29CE484222325

    def test_frozen_values(self):
        # pinned so a wire peer in any language can re-derive checksums
        assert stable_prefix_hash((0,)) == 0x4D9B3706054C33F4
        assert stable_prefix_hash((0, 0)) == 0xC929ECF47FC6C3B1
        assert stable_prefix_hash((1, 2, 3)) == 0x373C362E9E0BE86A

    def test_stable_across_calls(self):
        assert stable_prefix_hash((5, 6, 7)) == stable_prefix_hash((5, 6, 7))

    def test_order_sensitive(self):
        assert stable_prefix_hash((1, 2)) != stable_prefix_hash((2, 1))

    def test_length_sensitive(self):
        assert stable_prefix_hash((0,)) != stable_prefix_hash((0, 0))
        assert stable_prefix_hash(()) != stable_prefix_hash((0,))

    def test_extension_property(self):
        # hashing is prefix-incremental: extending replays the same steps
        base = stable_prefix_hash((9, 8))
        full = stable_prefix_hash((9, 8, 7))
        resumed = (base * 0x00000100000001B3 + ((7 + 0x9E3779B97F4A7C15) & MASK64)) & MASK64
        assert full == resumed

    def test_output_range(self):
        rng = np.random.default_rng(90)
        for _ in range(200):
            toks = [int(t) for t in rng.integers(0, 2**32, size=rng.integers(0, 10))]
            h = stable_prefix_hash(toks)
            assert 0 <= h <= MASK64

    def test_no_trivial_collisions(self):
        seen = set()
        for a in range(40):
            for b in range(40):
                seen.add(stable_prefix_hash((a, b)))
        assert len(seen) == 1600

    def test_accepts_numpy_ints(self):
        assert stable_prefix_hash(np.array([1, 2, 3], dtype=np.uint32)) == \
            stable_prefix_hash((1, 2, 3))


class TestDeriveSeed:
    def test_role_separation(self):
        roles = [ROLE_DRAFT_SAMPLING, ROLE_VERIFICATION,
                 ROLE_DRAFT_MODEL, ROLE_WORKER_MODEL_BASE,
                 ROLE_WORKER_MODEL_BASE + 1]
        outs = {derive_seed(42, r) for r in roles}
        assert len(outs) == len(roles)

    def test_seed_separation(self):
        outs = {derive_seed(s, ROLE_DRAFT_MODEL) for s in range(200)}
        assert len(outs) == 200

    def test_deterministic(self):
        assert derive_seed(7, ROLE_VERIFICATION) == derive_seed(7, ROLE_VERIFICATION)


class TestStreams:
    def test_reproducible(self):
        a = stream(3, ROLE_DRAFT_SAMPLING).random(8)
        b = stream(3, ROLE_DRAFT_SAMPLING).random(8)
        assert np.array_equal(a, b)

    def test_roles_do_not_interleave(self):
        a = stream(3, ROLE_DRAFT_SAMPLING).random(8)
        b = stream(3, ROLE_VERIFICATION).random(8)
        assert not np.array_equal(a, b)

    def test_seed_matters(self):
        a = stream(3, ROLE_DRAFT_SAMPLING).random(8)
        b = stream(4, ROLE_DRAFT_SAMPLING).random(8)
        assert not np.array_equal(a, b)


class TestKeyedNormals:
    def test_counter_based_reproducibility(self):
        a = keyed_normals(11, 97, 16)
        b = keyed_normals(11, 97, 16)
        assert np.array_equal(a, b)

    def test_context_sensitivity(self):
        assert not np.array_equal(keyed_normals(11, 97, 16), keyed_normals(11, 98, 16))

    def test_length(self):
        assert keyed_normals(1, 2, 5).shape == (5,)

    def test_roughly_standard_normal(self):
        vals = keyed_normals(123, 456, 100_000)
        assert abs(vals.mean()) < 0.02
        assert abs(vals.std() - 1.0) < 0.02


class TestPhiloxKey:
    """The key each word pair has always produced, now built explicitly."""

    def test_words_on_one_side_of_2_63_are_exact(self):
        assert philox_key(7, ROLE_DRAFT_SAMPLING).tolist() == [7, ROLE_DRAFT_SAMPLING]
        assert philox_key(2**63 + 5, 2**64 - 3).tolist() == [2**63 + 5, 2**64 - 3]
        assert philox_key(-3, 2**63).tolist() == [2**64 - 3, 2**63]  # taken mod 2^64

    def test_mixed_pair_rounds_both_words_to_float64(self):
        assert philox_key(1, 2**63 + 5).tolist() == [1, 2**63]
        assert philox_key(2**62 + 1, 2**63 + 4096).tolist() == [2**62, 2**63 + 4096]
        # so distinct pairs share a key, and a draw
        assert philox_key(1, 2**63 + 5).tolist() == philox_key(1, 2**63 + 6).tolist()
        assert np.array_equal(keyed_normals(1, 2**63 + 5, 8), keyed_normals(1, 2**63 + 6, 8))

    def test_word_rounding_to_2_64_becomes_zero_without_a_warning(self):
        # the suite turns RuntimeWarnings into errors
        assert philox_key(2**64 - 1, 1).tolist() == [0, 1]
        assert philox_key(-1, 3).tolist() == [0, 3]
        assert keyed_normals(2**64 - 1, 1, 4).shape == (4,)

    def test_frozen_first_draws(self):
        # pinned: each transcript depends on these keys
        cases = {(7, ROLE_DRAFT_SAMPLING): 18298162392815567537,
                 (2**63 + 5, 2**64 - 3): 14748286394177324159,
                 (1, 2**63 + 5): 8146125056042697546,
                 (2**64 - 1, 1): 15003734204198539638}
        for (a, b), first in cases.items():
            assert int(np.random.Philox(key=philox_key(a, b)).random_raw()) == first

    def test_streams_and_normals_use_the_key(self):
        key = philox_key(5, 2**63 + 9)
        want = np.random.Generator(np.random.Philox(key=key))
        assert np.array_equal(stream(5, 2**63 + 9).random(4), want.random(4))
        want = np.random.Generator(np.random.Philox(key=key))
        assert np.array_equal(keyed_normals(5, 2**63 + 9, 4), want.standard_normal(4))
