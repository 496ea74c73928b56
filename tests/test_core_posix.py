"""errno-convention POSIX shim."""

import errno
import os

import pytest

from repro.core.filemap import FD_BASE
from repro.core.posix import PosixShim, StatBuf


@pytest.fixture
def shim(cluster):
    return PosixShim(cluster.client(0))


class TestReturnConventions:
    def test_success_returns_value_and_clears_errno(self, shim):
        fd = shim.open("/gkfs/f", os.O_CREAT | os.O_WRONLY)
        assert fd >= 0
        assert shim.errno == 0
        assert shim.close(fd) == 0

    def test_failure_returns_minus_one_and_sets_errno(self, shim):
        assert shim.open("/gkfs/missing") == -1
        assert shim.errno == errno.ENOENT

    def test_errno_cleared_by_next_success(self, shim):
        shim.open("/gkfs/missing")
        fd = shim.open("/gkfs/f", os.O_CREAT | os.O_WRONLY)
        assert shim.errno == 0
        shim.close(fd)

    def test_strerror_compatible(self, shim):
        shim.open("/gkfs/missing")
        assert os.strerror(shim.errno)  # a real errno value


class TestIo:
    def test_write_read_cycle(self, shim):
        fd = shim.open("/gkfs/io", os.O_CREAT | os.O_RDWR)
        assert shim.write(fd, b"shimmed") == 7
        assert shim.lseek(fd, 0) == 0
        assert shim.read(fd, 7) == b"shimmed"
        assert shim.pread(fd, 3, 4) == b"med"
        assert shim.pwrite(fd, b"X", 0) == 1
        assert shim.fsync(fd) == 0
        assert shim.ftruncate(fd, 2) == 0
        shim.close(fd)

    def test_fstat_and_ftruncate_on_a_kernel_descriptor(self, shim, tmp_path):
        fd = shim.open(str(tmp_path / "native"), os.O_CREAT | os.O_RDWR)
        assert 0 <= fd < FD_BASE
        assert shim.write(fd, b"123456") == 6
        assert shim.fstat(fd).st_size == 6
        assert shim.ftruncate(fd, 1) == 0
        st = shim.fstat(fd)
        assert (st.st_size, st.is_dir(), shim.errno) == (1, False, 0)
        assert shim.close(fd) == 0

    def test_read_on_bad_fd(self, shim):
        assert shim.read(999_999, 10) == -1
        assert shim.errno == errno.EBADF

    def test_write_on_readonly(self, shim):
        fd = shim.open("/gkfs/ro", os.O_CREAT | os.O_WRONLY)
        shim.close(fd)
        fd = shim.open("/gkfs/ro", os.O_RDONLY)
        assert shim.write(fd, b"x") == -1
        assert shim.errno == errno.EBADF
        shim.close(fd)


class TestStat:
    def test_stat_fills_statbuf(self, shim):
        fd = shim.open("/gkfs/s", os.O_CREAT | os.O_WRONLY, 0o640)
        shim.write(fd, b"12345")
        shim.close(fd)
        st = shim.stat("/gkfs/s")
        assert isinstance(st, StatBuf)
        assert st.st_size == 5
        assert st.st_mode & 0o7777 == 0o640
        assert st.st_mode & 0o100000  # S_IFREG
        assert not st.is_dir()

    def test_stat_directory_mode_bits(self, shim):
        shim.mkdir("/gkfs/d")
        st = shim.stat("/gkfs/d")
        assert st.is_dir()
        assert st.st_mode & 0o040000

    def test_stat_missing_returns_none(self, shim):
        assert shim.stat("/gkfs/none") is None
        assert shim.errno == errno.ENOENT

    def test_fstat(self, shim):
        fd = shim.open("/gkfs/fs", os.O_CREAT | os.O_WRONLY)
        shim.write(fd, b"abc")
        assert shim.fstat(fd).st_size == 3
        shim.close(fd)

    def test_access(self, shim):
        assert shim.access("/gkfs") == 0
        assert shim.access("/gkfs/nope") == -1
        assert shim.errno == errno.ENOENT


class TestDirectories:
    def test_mkdir_rmdir(self, shim):
        assert shim.mkdir("/gkfs/d1") == 0
        assert shim.rmdir("/gkfs/d1") == 0

    def test_mkdir_exists(self, shim):
        shim.mkdir("/gkfs/d2")
        assert shim.mkdir("/gkfs/d2") == -1
        assert shim.errno == errno.EEXIST

    def test_rmdir_nonempty(self, shim):
        shim.mkdir("/gkfs/d3")
        shim.close(shim.open("/gkfs/d3/f", os.O_CREAT | os.O_WRONLY))
        assert shim.rmdir("/gkfs/d3") == -1
        assert shim.errno == errno.ENOTEMPTY

    def test_readdir_stream(self, shim):
        shim.mkdir("/gkfs/d4")
        shim.close(shim.open("/gkfs/d4/only", os.O_CREAT | os.O_WRONLY))
        fd = shim.opendir("/gkfs/d4")
        assert shim.readdir(fd) == ("only", False)
        assert shim.readdir(fd) is None
        assert shim.errno == 0  # end-of-stream, not an error
        shim.close(fd)

    def test_unlink(self, shim):
        shim.close(shim.open("/gkfs/u", os.O_CREAT | os.O_WRONLY))
        assert shim.unlink("/gkfs/u") == 0
        assert shim.unlink("/gkfs/u") == -1
        assert shim.errno == errno.ENOENT


class TestUnsupportedSurface:
    def test_rename_enotsup(self, shim):
        assert shim.rename("/gkfs/a", "/gkfs/b") == -1
        assert shim.errno == errno.ENOTSUP

    def test_link_enotsup(self, shim):
        assert shim.link("/gkfs/a", "/gkfs/b") == -1
        assert shim.errno == errno.ENOTSUP

    def test_symlink_enotsup(self, shim):
        assert shim.symlink("/gkfs/a", "/gkfs/b") == -1
        assert shim.errno == errno.ENOTSUP

    def test_chmod_enotsup(self, shim):
        assert shim.chmod("/gkfs/a", 0o777) == -1
        assert shim.errno == errno.ENOTSUP

    def test_truncate(self, shim):
        fd = shim.open("/gkfs/t", os.O_CREAT | os.O_WRONLY)
        shim.write(fd, b"0123456789")
        shim.close(fd)
        assert shim.truncate("/gkfs/t", 4) == 0
        assert shim.stat("/gkfs/t").st_size == 4


class TestNodeLocalErrno:
    """A call the client forwards to the kernel keeps the C convention:
    the kernel's errno, never an escaping ``OSError``."""

    def test_open_and_stat_of_a_missing_local_file(self, shim, tmp_path):
        missing = str(tmp_path / "missing")
        assert shim.open(missing) == -1
        assert shim.errno == errno.ENOENT
        assert shim.stat(missing) is None
        assert shim.errno == errno.ENOENT
        assert shim.access(missing) == -1

    def test_unlink_of_a_local_directory(self, shim, tmp_path):
        assert shim.unlink(str(tmp_path)) == -1
        assert shim.errno in (errno.EISDIR, errno.EPERM)  # Linux says EISDIR
        assert shim.rmdir(str(tmp_path / "missing")) == -1
        assert shim.errno == errno.ENOENT

    def test_bad_local_descriptor(self, shim, tmp_path):
        fd = shim.open(str(tmp_path / "f"), os.O_CREAT | os.O_WRONLY)
        assert shim.close(fd) == 0
        assert shim.read(fd, 1) == -1
        assert shim.errno == errno.EBADF
        assert shim.fstat(fd) is None
        assert shim.errno == errno.EBADF
        assert shim.close(fd) == -1
        assert shim.errno == errno.EBADF

    def test_local_success_clears_errno(self, shim, tmp_path):
        shim.open(str(tmp_path / "missing"))
        assert shim.mkdir(str(tmp_path / "d")) == 0
        assert shim.errno == 0
        fd = shim.opendir(str(tmp_path))
        assert shim.readdir(fd) == ("d", True)
        assert shim.readdir(fd) is None
        assert shim.errno == 0
        assert shim.rename(str(tmp_path / "d"), str(tmp_path / "e")) == 0
        assert shim.stat(str(tmp_path / "e")).is_dir()
