"""Placement hashing: determinism and distribution quality.

Every client must resolve identical owners from the path alone (§III-B);
these tests pin the digests and check the uniformity that wide-striping
relies on.
"""

import os

import pytest
from hypothesis import given, strategies as st

from repro import FSConfig, GekkoFSCluster
from repro.common import hashing
from repro.common.hashing import fnv1a_64, hash_chunk, hash_path


class TestFnv1a:
    def test_known_vectors(self):
        # Canonical FNV-1a 64-bit test vectors.
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8

    def test_stable_across_calls(self):
        assert fnv1a_64(b"/some/path") == fnv1a_64(b"/some/path")

    @given(st.binary(max_size=64))
    def test_fits_in_64_bits(self, data):
        assert 0 <= fnv1a_64(data) < 2**64

    def test_seed_chaining_equals_concatenation(self):
        whole = fnv1a_64(b"abcdef")
        chained = fnv1a_64(b"def", seed=fnv1a_64(b"abc"))
        assert whole == chained


class TestPathHashing:
    def test_distinct_paths_differ(self):
        assert hash_path("/a") != hash_path("/b")

    def test_chunk_ids_spread(self):
        digests = {hash_chunk("/file", cid) for cid in range(64)}
        assert len(digests) == 64

    def test_chunk_hash_depends_on_path(self):
        assert hash_chunk("/a", 0) != hash_chunk("/b", 0)

    def test_negative_chunk_rejected(self):
        with pytest.raises(ValueError):
            hash_chunk("/a", -1)

    def test_metadata_balance_over_daemons(self):
        """10k flat-namespace paths modulo 16 daemons stay within ±20 %."""
        counts = [0] * 16
        for i in range(10_000):
            counts[hash_path(f"/dir/file{i:06d}") % 16] += 1
        expected = 10_000 / 16
        assert min(counts) > expected * 0.8
        assert max(counts) < expected * 1.2

    def test_chunk_balance_for_one_large_file(self):
        """Wide-striping: one file's chunks spread evenly (§III-B)."""
        counts = [0] * 8
        for cid in range(8_000):
            counts[hash_chunk("/big.dat", cid) % 8] += 1
        expected = 8_000 / 8
        assert min(counts) > expected * 0.8
        assert max(counts) < expected * 1.2

    @given(st.text(min_size=1, max_size=64))
    def test_unicode_paths_hash(self, path):
        assert 0 <= hash_path(path) < 2**64


#: (path, hash_path, hash_chunk for chunk ids 0, 1, 4097) as computed before
#: hash_path was memoised: placement is a wire-level contract between every
#: client of a deployment, so these may never move.
GOLDEN = [
    ('/', 0xAF63A24C860189FE, (0x59CD815B783835BE, 0x78C8486483277FDF, 0xCDF00109A064AD8F)),
    ('/a', 0x07D66707B49CD92D, (0x1BF2DEB3220200CD, 0xFCF817AA1712B6AC, 0x521FD04F344FE45C)),
    ('/gkfs', 0xD20F6511DE0EE223, (0xE60B3E7369F64483, 0xC710776A5F06FA62, 0x1C38300F7C442812)),
    ('/dir/file000000', 0x15EAC9CE92E4C788, (0xF7278940A9230888, 0x16225049B41252A9, 0x6B4A08EED14F8059)),
    ('/dir/file000001', 0x15EACACE92E4C93B, (0x8A91DE9E3DBDFE9B, 0x6B97179532CEB47A, 0xC0BED03A500BE22A)),
    ('/big.dat', 0x323D11960A5CA9DF, (0xD38440526C3D5BBF, 0xB4897949614E119E, 0x5F61C0A44410E3EE)),
    ('/mdtest/rank0/file.00000042', 0x230A6744B45417C7, (0xDE27566A867F96A7, 0xBF2C8F617B904C86, 0x6A04D6BC5E531ED6)),
    ('/ior/shared.dat', 0x58643696722E1A1F, (0x31CFF08CA46F53FF, 0x12D52983998009DE, 0xBDAD70DE7C42DC2E)),
    ('/ior/rank3/data.0', 0x966828F35B5C61D3, (0x845FFC440D2C9A33, 0x6565353B023D5012, 0x103D7C95E5002262)),
    ('/checkpoints/step-000100/model.pt', 0x6AA784C48925B604, (0x2788F26FAA359E84, 0x4683B978B524E8A5, 0xF15C00D397E7BAF5)),
    ('/x' * 32, 0xA65A100DF92698A5, (0x2D2CD99E3A245F45, 0x0E3212952F351524, 0x6359CB3A4C7242D4)),
    ('/with space/and.dot', 0x4461A87C8C4087DF, (0x1EB54DFD4AC8F9BF, 0xFFBA86F43FD9AF9E, 0xAA92CE4F229C81EE)),
    ('/ünïcødé/путь/文件', 0xBF43B48806C7875C, (0x643FFD4B83BD0ADC, 0x833AC4548EAC54FD, 0xD8627CF9ABE982AD)),
    ('/a/b/c/d/e/f/g/h', 0x5F1E2D38E5CD58DD, (0xCF2CC1B6937B567D, 0xB031FAAD888C0C5C, 0x5B0A42086B4EDEAC)),
    ('/tmp.swp~', 0xA5B3F7F39BB7EA2F, (0x06CAB5EAB447C60F, 0xE7CFEEE1A9587BEE, 0x3CF7A786C695A99E)),
    ('/UPPER/lower', 0xFFA76E6CFB42268C, (0x021213DCF75F700C, 0x210CDAE6024EBA2D, 0xCBE52240E5118C7D)),
    ('/0', 0x07D69607B49D290A, (0x2C788AE16A752E4A, 0x4B7351EA7564786B, 0xF64B994558274ABB)),
    ('/0123456789' * 4, 0xD8925E1842638E15, (0xF4C3548CCD8262B5, 0xD5C88D83C2931894, 0x80A0D4DEA555EAE4)),
    ('/trailing/', 0xAD0A668EFCF5767B, (0x773514AAFAB8D3DB, 0x583A4DA1EFC989BA, 0xAD6206470D06B76A)),
    ('/emoji/🦎', 0x8656C163E4005834, (0x5B9B3360DE1666B4, 0x7A95FA69E905B0D5, 0xCFBDB30F0642DE85)),
]


class TestPlacementIsPinned:
    @pytest.mark.parametrize("path,digest,chunk_digests", GOLDEN)
    def test_golden_digests(self, path, digest, chunk_digests):
        hash_path.cache_clear()
        for _ in range(2):  # computed, then served from the memo
            assert hash_path(path) == digest
            assert tuple(hash_chunk(path, cid) for cid in (0, 1, 4097)) == chunk_digests


class TestChunkDigestMemo:
    """``hash_chunk`` is memoised with a bound, as ``hash_path`` is: a chunk's
    placement stays the byte loop's, bit for bit, and the memo stays small."""

    PATHS = [f"/sweep/file{i:04d}" for i in range(40)] + [path for path, _, _ in GOLDEN]
    CHUNK_IDS = (0, 1, 2, 7, 255, 256, 4096, 65537, 2**32 + 5, 2**63 - 1)

    def test_memoised_digests_are_the_byte_loops_over_a_sweep(self):
        hash_chunk.cache_clear()
        for _ in range(2):  # computed, then served from the memo
            for path in self.PATHS:
                path_digest = fnv1a_64(path.encode("utf-8"))
                for cid in self.CHUNK_IDS:
                    expected = fnv1a_64(cid.to_bytes(8, "little"), seed=path_digest)
                    assert hash_chunk(path, cid) == expected, (path, cid)
        swept = len(self.PATHS) * len(self.CHUNK_IDS)
        assert hash_chunk.cache_info().hits == swept  # the second pass was all memo

    def test_the_memo_stays_within_its_bound(self):
        hash_chunk.cache_clear()
        bound = hash_chunk.cache_info().maxsize
        assert bound is not None
        for cid in range(bound + 100):
            hash_chunk("/bounded", cid)
        assert hash_chunk.cache_info().currsize == bound
        hash_chunk.cache_clear()


class TestPathIsHashedOnce:
    """The byte loop over a path is the cost: count its runs per client call."""

    @pytest.fixture
    def path_hashes(self, monkeypatch):
        """Runs of ``fnv1a_64`` over ``/hot.bin`` since the last ``clear()``."""
        runs = []

        def counted(data, seed=None):
            if bytes(data) == b"/hot.bin":
                runs.append(seed)
            return fnv1a_64(data) if seed is None else fnv1a_64(data, seed)

        monkeypatch.setattr(hashing, "fnv1a_64", counted)
        hash_path.cache_clear()
        yield runs
        hash_path.cache_clear()

    def test_one_stat_hashes_its_path_at_most_once(self, path_hashes):
        with GekkoFSCluster(2) as fs:
            client = fs.client(0)
            client.close(client.creat("/gkfs/hot.bin"))
            hash_path.cache_clear()
            path_hashes.clear()
            client.stat("/gkfs/hot.bin")
            assert len(path_hashes) <= 1
            client.stat("/gkfs/hot.bin")
            assert len(path_hashes) <= 1  # and the second one not at all

    def test_repeated_pwrite_to_an_open_file_never_rehashes(self, path_hashes):
        with GekkoFSCluster(2, FSConfig(chunk_size=4096)) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/hot.bin", os.O_CREAT | os.O_RDWR)
            client.pwrite(fd, b"w" * 3 * 4096, 0)
            path_hashes.clear()
            for i in range(5):  # striped: three chunks each, new chunk ids too
                client.pwrite(fd, b"w" * 3 * 4096, i * 4096)
            assert path_hashes == []
            client.close(fd)


class TestPowerOfTwoPlacement:
    """At ``2**k`` daemons a file's chunk placement is a per-file permutation
    of ``chunk_id mod 2**k`` (the module docstring derives it)."""

    PATHS = [f"/dir{i}/file{i * 7}.dat" for i in range(40)] + ["/", "/ior/shared.dat"]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_every_aligned_run_covers_every_daemon(self, k):
        n = 2 ** k
        for path in self.PATHS:
            for start in range(0, 2048, n):
                assert {hash_chunk(path, start + i) % n for i in range(n)} == set(range(n))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_below_256_placement_is_a_function_of_the_low_bits(self, k):
        n = 2 ** k
        for path in self.PATHS:
            for cid in range(256):
                assert hash_chunk(path, cid) % n == hash_chunk(path, cid % n) % n

    @pytest.mark.parametrize("k", range(1, 6))
    def test_up_to_32_daemons_chunk_c_sits_on_owner_xor_c(self, k):
        n = 2 ** k
        for path in self.PATHS:
            owner = hash_path(path) % n
            assert [hash_chunk(path, cid) % n for cid in range(256)] == [
                owner ^ (cid % n) for cid in range(256)
            ]
