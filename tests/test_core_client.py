"""Client library: the POSIX-ish call surface and relaxed semantics."""

import os

import pytest

from repro.common.errors import (
    BadFileDescriptorError,
    ExistsError,
    InvalidArgumentError,
    IsADirectoryError_,
    NotADirectoryError_,
    NotEmptyError,
    NotFoundError,
    UnsupportedError,
)
from repro.core import FSConfig, GekkoFSCluster
from repro.core.filemap import FD_BASE


class TestRouting:
    def test_mountpoint_recognition(self, client):
        assert client.is_gekkofs_path("/gkfs")
        assert client.is_gekkofs_path("/gkfs/a/b")
        assert not client.is_gekkofs_path("/gkfsx/a")
        assert not client.is_gekkofs_path("/tmp/x")

    def test_fds_start_above_kernel_range(self, client):
        fd = client.creat("/gkfs/f")
        assert fd >= FD_BASE
        client.close(fd)

    def test_double_slash_rejected(self, client):
        with pytest.raises(InvalidArgumentError):
            client.open("/gkfs//bad", os.O_CREAT)


class TestOpenClose:
    def test_open_missing_without_create(self, client):
        with pytest.raises(NotFoundError):
            client.open("/gkfs/nope")

    def test_create_then_reopen(self, client):
        fd = client.creat("/gkfs/f")
        client.close(fd)
        fd2 = client.open("/gkfs/f")
        client.close(fd2)

    def test_o_excl_conflict(self, client):
        client.close(client.creat("/gkfs/f"))
        with pytest.raises(ExistsError):
            client.open("/gkfs/f", os.O_CREAT | os.O_EXCL | os.O_WRONLY)

    def test_o_creat_without_excl_opens_existing(self, client):
        fd = client.creat("/gkfs/f")
        client.write(fd, b"data")
        client.close(fd)
        fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDONLY)
        assert client.read(fd, 10) == b"data"
        client.close(fd)

    def test_o_trunc_discards_contents(self, client):
        fd = client.creat("/gkfs/f")
        client.write(fd, b"old contents")
        client.close(fd)
        client.close(client.open("/gkfs/f", os.O_WRONLY | os.O_TRUNC))
        assert client.stat("/gkfs/f").size == 0

    def test_open_dir_for_write_is_eisdir(self, client):
        client.mkdir("/gkfs/d")
        with pytest.raises(IsADirectoryError_):
            client.open("/gkfs/d", os.O_WRONLY)

    def test_close_unknown_fd(self, client):
        with pytest.raises(BadFileDescriptorError):
            client.close(FD_BASE + 999)

    def test_double_close(self, client):
        fd = client.creat("/gkfs/f")
        client.close(fd)
        with pytest.raises(BadFileDescriptorError):
            client.close(fd)


class TestReadWrite:
    def test_roundtrip_small(self, client):
        fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
        assert client.write(fd, b"hello") == 5
        client.lseek(fd, 0)
        assert client.read(fd, 5) == b"hello"
        client.close(fd)

    def test_roundtrip_multichunk(self, small_chunk_cluster):
        client = small_chunk_cluster.client(0)
        data = bytes(range(256)) * 3  # 768 bytes over 64-byte chunks
        fd = client.open("/gkfs/big", os.O_CREAT | os.O_RDWR)
        client.write(fd, data)
        assert client.pread(fd, len(data), 0) == data
        client.close(fd)

    def test_pwrite_pread_at_chunk_boundary(self, small_chunk_cluster):
        client = small_chunk_cluster.client(0)
        fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
        client.pwrite(fd, b"ABCD", 62)  # straddles the 64-byte boundary
        assert client.pread(fd, 4, 62) == b"ABCD"
        client.close(fd)

    def test_read_clamped_to_size(self, client):
        fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
        client.write(fd, b"12345")
        assert client.pread(fd, 100, 0) == b"12345"
        assert client.pread(fd, 10, 5) == b""
        assert client.pread(fd, 10, 99) == b""
        client.close(fd)

    def test_holes_read_as_zeros(self, small_chunk_cluster):
        client = small_chunk_cluster.client(0)
        fd = client.open("/gkfs/sparse", os.O_CREAT | os.O_RDWR)
        client.pwrite(fd, b"end", 200)  # chunks 0-2 are holes
        data = client.pread(fd, 203, 0)
        assert data == b"\x00" * 200 + b"end"
        client.close(fd)

    def test_sequential_reads_advance_position(self, client):
        fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
        client.write(fd, b"abcdef")
        client.lseek(fd, 0)
        assert client.read(fd, 2) == b"ab"
        assert client.read(fd, 2) == b"cd"
        assert client.read(fd, 99) == b"ef"
        client.close(fd)

    def test_write_on_readonly_fd(self, client):
        client.close(client.creat("/gkfs/f"))
        fd = client.open("/gkfs/f", os.O_RDONLY)
        with pytest.raises(BadFileDescriptorError):
            client.write(fd, b"x")
        client.close(fd)

    def test_read_on_writeonly_fd(self, client):
        fd = client.creat("/gkfs/f")
        with pytest.raises(BadFileDescriptorError):
            client.read(fd, 1)
        client.close(fd)

    def test_append_mode(self, client):
        fd = client.open("/gkfs/log", os.O_CREAT | os.O_WRONLY | os.O_APPEND)
        client.write(fd, b"one")
        client.write(fd, b"two")
        client.close(fd)
        fd = client.open("/gkfs/log")
        assert client.read(fd, 10) == b"onetwo"
        client.close(fd)

    def test_overwrite_middle(self, client):
        fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
        client.write(fd, b"aaaaaaaa")
        client.pwrite(fd, b"XX", 3)
        assert client.pread(fd, 8, 0) == b"aaaXXaaa"
        assert client.stat("/gkfs/f").size == 8  # overwrite must not grow
        client.close(fd)

    def test_negative_offsets_rejected(self, client):
        fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
        with pytest.raises(InvalidArgumentError):
            client.pwrite(fd, b"x", -1)
        with pytest.raises(InvalidArgumentError):
            client.pread(fd, 1, -1)
        client.close(fd)


class TestLseek:
    def test_seek_set_cur_end(self, client):
        fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
        client.write(fd, b"0123456789")
        assert client.lseek(fd, 2, os.SEEK_SET) == 2
        assert client.lseek(fd, 3, os.SEEK_CUR) == 5
        assert client.lseek(fd, -4, os.SEEK_END) == 6
        assert client.read(fd, 2) == b"67"
        client.close(fd)

    def test_seek_before_start_rejected(self, client):
        fd = client.creat("/gkfs/f")
        with pytest.raises(InvalidArgumentError):
            client.lseek(fd, -1, os.SEEK_SET)
        client.close(fd)

    def test_bad_whence(self, client):
        fd = client.creat("/gkfs/f")
        with pytest.raises(InvalidArgumentError):
            client.lseek(fd, 0, 42)
        client.close(fd)

    def test_seek_past_eof_then_write_makes_hole(self, client):
        fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
        client.lseek(fd, 100, os.SEEK_SET)
        client.write(fd, b"tail")
        assert client.stat("/gkfs/f").size == 104
        client.close(fd)


class TestMetadataOps:
    def test_stat_missing(self, client):
        with pytest.raises(NotFoundError):
            client.stat("/gkfs/ghost")

    def test_stat_reports_size_mode_type(self, client):
        fd = client.open("/gkfs/f", os.O_CREAT | os.O_WRONLY, 0o600)
        client.write(fd, b"xyz")
        client.close(fd)
        md = client.stat("/gkfs/f")
        assert (md.size, md.mode, md.is_dir) == (3, 0o600, False)

    def test_fstat(self, client):
        fd = client.creat("/gkfs/f")
        client.write(fd, b"ab")
        assert client.fstat(fd).size == 2
        client.close(fd)

    def test_exists(self, client):
        assert not client.exists("/gkfs/f")
        client.close(client.creat("/gkfs/f"))
        assert client.exists("/gkfs/f")

    def test_unlink_removes_data_everywhere(self, small_chunk_cluster):
        client = small_chunk_cluster.client(0)
        fd = client.open("/gkfs/f", os.O_CREAT | os.O_WRONLY)
        client.write(fd, b"z" * 500)  # chunks across all daemons
        client.close(fd)
        client.unlink("/gkfs/f")
        assert not client.exists("/gkfs/f")
        assert small_chunk_cluster.used_bytes() == 0

    def test_unlink_missing(self, client):
        with pytest.raises(NotFoundError):
            client.unlink("/gkfs/ghost")

    def test_unlink_directory_is_eisdir(self, client):
        client.mkdir("/gkfs/d")
        with pytest.raises(IsADirectoryError_):
            client.unlink("/gkfs/d")

    def test_truncate_shrink_and_grow(self, client):
        fd = client.creat("/gkfs/f")
        client.write(fd, b"0123456789")
        client.close(fd)
        client.truncate("/gkfs/f", 4)
        assert client.stat("/gkfs/f").size == 4
        fd = client.open("/gkfs/f")
        assert client.read(fd, 100) == b"0123"
        client.close(fd)
        client.truncate("/gkfs/f", 8)  # grow: hole at the end
        fd = client.open("/gkfs/f")
        assert client.read(fd, 100) == b"0123" + b"\x00" * 4
        client.close(fd)

    def test_ftruncate_needs_writable(self, client):
        client.close(client.creat("/gkfs/f"))
        fd = client.open("/gkfs/f", os.O_RDONLY)
        with pytest.raises(BadFileDescriptorError):
            client.ftruncate(fd, 0)
        client.close(fd)

    def test_truncate_negative_rejected(self, client):
        client.close(client.creat("/gkfs/f"))
        with pytest.raises(InvalidArgumentError):
            client.truncate("/gkfs/f", -5)


class TestDirectories:
    def test_mkdir_listdir(self, client):
        client.mkdir("/gkfs/d")
        client.close(client.creat("/gkfs/d/f1"))
        client.mkdir("/gkfs/d/sub")
        assert client.listdir("/gkfs/d") == [("f1", False), ("sub", True)]

    def test_mkdir_existing(self, client):
        client.mkdir("/gkfs/d")
        with pytest.raises(ExistsError):
            client.mkdir("/gkfs/d")

    def test_mkdir_root_is_exists(self, client):
        with pytest.raises(ExistsError):
            client.mkdir("/gkfs")

    def test_listdir_on_file_is_enotdir(self, client):
        client.close(client.creat("/gkfs/f"))
        with pytest.raises(NotADirectoryError_):
            client.listdir("/gkfs/f")

    def test_rmdir_empty(self, client):
        client.mkdir("/gkfs/d")
        client.rmdir("/gkfs/d")
        assert not client.exists("/gkfs/d")

    def test_rmdir_nonempty(self, client):
        client.mkdir("/gkfs/d")
        client.close(client.creat("/gkfs/d/f"))
        with pytest.raises(NotEmptyError):
            client.rmdir("/gkfs/d")

    def test_rmdir_file_is_enotdir(self, client):
        client.close(client.creat("/gkfs/f"))
        with pytest.raises(NotADirectoryError_):
            client.rmdir("/gkfs/f")

    def test_rmdir_root_rejected(self, client):
        with pytest.raises(InvalidArgumentError):
            client.rmdir("/gkfs")

    def test_opendir_readdir_stream(self, client):
        client.mkdir("/gkfs/d")
        for name in ("a", "b"):
            client.close(client.creat(f"/gkfs/d/{name}"))
        fd = client.opendir("/gkfs/d")
        assert client.readdir(fd) == ("a", False)
        assert client.readdir(fd) == ("b", False)
        assert client.readdir(fd) is None
        client.close(fd)

    def test_opendir_snapshot_is_fixed(self, client):
        """Eventual consistency: entries created after opendir() are not
        guaranteed to appear in that stream (§III-A)."""
        client.mkdir("/gkfs/d")
        fd = client.opendir("/gkfs/d")
        client.close(client.creat("/gkfs/d/late"))
        assert client.readdir(fd) is None
        client.close(fd)

    def test_flat_namespace_skips_phantom_parents(self, client):
        """Files created under never-mkdir'd parents exist and are readable,
        but don't appear in listings of the phantom parent (flat namespace)."""
        client.close(client.creat("/gkfs/no_dir/f"))
        assert client.exists("/gkfs/no_dir/f")
        assert not client.exists("/gkfs/no_dir")
        assert client.listdir("/gkfs") == []


class TestUnsupported:
    def test_rename(self, client):
        with pytest.raises(UnsupportedError):
            client.rename("/gkfs/a", "/gkfs/b")

    def test_link(self, client):
        with pytest.raises(UnsupportedError):
            client.link("/gkfs/a", "/gkfs/b")

    def test_symlink(self, client):
        with pytest.raises(UnsupportedError):
            client.symlink("/gkfs/a", "/gkfs/b")

    def test_chmod(self, client):
        with pytest.raises(UnsupportedError):
            client.chmod("/gkfs/a", 0o777)


class TestPassthrough:
    def test_file_io_outside_mount_goes_to_os(self, client, tmp_path):
        target = str(tmp_path / "native.txt")
        fd = client.open(target, os.O_CREAT | os.O_WRONLY, 0o644)
        assert fd < FD_BASE  # a real kernel descriptor
        client.write(fd, b"native bytes")
        client.close(fd)
        assert (tmp_path / "native.txt").read_bytes() == b"native bytes"

    def test_stat_outside_mount(self, client, tmp_path):
        (tmp_path / "x").write_bytes(b"1234")
        md = client.stat(str(tmp_path / "x"))
        assert md.size == 4
        assert not md.is_dir

    def test_listdir_outside_mount(self, client, tmp_path):
        (tmp_path / "f").write_bytes(b"")
        (tmp_path / "d").mkdir()
        assert client.listdir(str(tmp_path)) == [("d", True), ("f", False)]

    def test_fstat_and_ftruncate_on_a_kernel_descriptor(self, client, tmp_path):
        """Every fd call routes a descriptor ``open`` returned for a
        passthrough path to the kernel — fstat and ftruncate included."""
        fd = client.open(str(tmp_path / "native"), os.O_CREAT | os.O_RDWR)
        assert fd < FD_BASE
        client.write(fd, b"123456")
        assert client.lseek(fd, 0, os.SEEK_END) == 6
        md = client.fstat(fd)
        assert (md.size, md.is_dir) == (6, False)
        client.ftruncate(fd, 1)
        assert client.fstat(fd).size == 1
        assert client.pread(fd, 10, 0) == b"1"
        client.close(fd)
        assert (tmp_path / "native").read_bytes() == b"1"
        dir_fd = client.open(str(tmp_path), os.O_RDONLY)
        assert client.fstat(dir_fd).is_dir
        client.close(dir_fd)

    def test_convenience_calls_route_like_their_primitives(self, client, tmp_path):
        """read_bytes, copy from a node-local source and a directory
        stream over a node-local directory are forwarded, as write_bytes
        and listdir are."""
        native = tmp_path / "native"
        native.write_bytes(b"local bytes")
        (tmp_path / "sub").mkdir()
        assert client.read_bytes(str(native)) == b"local bytes"
        assert client.copy(str(native), "/gkfs/imported") == 11
        assert client.read_bytes("/gkfs/imported") == b"local bytes"
        assert client.copy("/gkfs/imported", str(tmp_path / "back")) == 11
        assert (tmp_path / "back").read_bytes() == b"local bytes"
        fd = client.opendir(str(tmp_path))
        streamed = []
        while (entry := client.readdir(fd)) is not None:
            streamed.append(entry)
        client.close(fd)
        assert streamed == [("back", False), ("native", False), ("sub", True)]

    def test_rename_of_two_local_paths_ignores_the_emulation_gate(self, client, tmp_path):
        assert not client.config.rename_emulation
        (tmp_path / "a").write_bytes(b"x")
        client.rename(str(tmp_path / "a"), str(tmp_path / "b"))
        assert os.listdir(tmp_path) == ["b"]
        with pytest.raises(UnsupportedError):
            client.rename("/gkfs/a", str(tmp_path / "c"))

    def test_emulated_rename_across_namespaces_is_einval(self, tmp_path):
        config = FSConfig(chunk_size=4096, rename_emulation=True)
        with GekkoFSCluster(num_nodes=2, config=config) as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/a", b"x")
            (tmp_path / "b").write_bytes(b"y")
            with pytest.raises(InvalidArgumentError):
                client.rename("/gkfs/a", str(tmp_path / "c"))
            with pytest.raises(InvalidArgumentError):
                client.rename(str(tmp_path / "b"), "/gkfs/c")
            assert client.read_bytes("/gkfs/a") == b"x"
            assert not client.exists("/gkfs/c")
            assert sorted(os.listdir(tmp_path)) == ["b"]


class TestStatfs:
    def test_aggregates_all_daemons(self, client):
        fd = client.creat("/gkfs/f")
        client.write(fd, b"x" * 1000)
        client.close(fd)
        snap = client.statfs()
        assert snap["daemons"] == 4
        assert snap["used_bytes"] == 1000
        assert snap["metadata_records"] == 2  # root + the file
