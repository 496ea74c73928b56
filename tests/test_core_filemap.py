"""User-space fd table: allocation, recycling, routing."""

import bisect
import os
import random

import pytest

from repro.common.errors import BadFileDescriptorError
from repro.core.filemap import FD_BASE, OpenFile, OpenFileMap


def entry(path="/f", flags=os.O_RDONLY):
    return OpenFile(path=path, flags=flags)


class TestAllocation:
    def test_first_fd_is_base(self):
        fm = OpenFileMap()
        assert fm.add(entry()) == FD_BASE

    def test_fds_increment(self):
        fm = OpenFileMap()
        assert [fm.add(entry()) for _ in range(3)] == [FD_BASE, FD_BASE + 1, FD_BASE + 2]

    def test_lowest_free_fd_recycled(self):
        fm = OpenFileMap()
        fds = [fm.add(entry()) for _ in range(3)]
        fm.remove(fds[0])
        fm.remove(fds[1])
        assert fm.add(entry()) == fds[0]
        assert fm.add(entry()) == fds[1]

    def test_reuse_order_matches_a_sorted_model_over_10000_descriptors(self):
        fm, rng = OpenFileMap(), random.Random(29)
        free, next_fd, held = [], FD_BASE, []
        for _ in range(10_000):
            held.append(fm.add(entry()))
            next_fd += 1
        for step in range(30_000):
            if held and (step % 3 or rng.random() < 0.5):
                fd = held.pop(rng.randrange(len(held)))
                fm.remove(fd)
                bisect.insort(free, fd)
            else:
                if free:
                    expected = free.pop(0)
                else:
                    expected, next_fd = next_fd, next_fd + 1
                got = fm.add(entry())
                assert got == expected, step
                held.append(got)
        assert len(fm) == len(held)

    def test_len_tracks_open(self):
        fm = OpenFileMap()
        fd = fm.add(entry())
        assert len(fm) == 1
        fm.remove(fd)
        assert len(fm) == 0


class TestLookup:
    def test_get_returns_entry(self):
        fm = OpenFileMap()
        fd = fm.add(entry("/x"))
        assert fm.get(fd).path == "/x"

    def test_get_unknown_raises_ebadf(self):
        with pytest.raises(BadFileDescriptorError):
            OpenFileMap().get(FD_BASE)

    def test_remove_twice_raises_ebadf(self):
        fm = OpenFileMap()
        fd = fm.add(entry())
        fm.remove(fd)
        with pytest.raises(BadFileDescriptorError):
            fm.remove(fd)

    def test_owns_distinguishes_kernel_fds(self):
        fm = OpenFileMap()
        fd = fm.add(entry())
        assert fm.owns(fd)
        assert not fm.owns(3)  # a kernel fd routes to the node-local FS

    def test_open_paths(self):
        fm = OpenFileMap()
        fm.add(entry("/b"))
        fm.add(entry("/a"))
        fm.add(entry("/a"))
        assert fm.open_paths() == ["/a", "/b"]


class TestOpenFileFlags:
    @pytest.mark.parametrize(
        "flags,readable,writable",
        [
            (os.O_RDONLY, True, False),
            (os.O_WRONLY, False, True),
            (os.O_RDWR, True, True),
        ],
    )
    def test_access_modes(self, flags, readable, writable):
        e = entry(flags=flags)
        assert e.readable is readable
        assert e.writable is writable

    def test_append_flag(self):
        assert entry(flags=os.O_WRONLY | os.O_APPEND).append
        assert not entry(flags=os.O_WRONLY).append

    def test_position_starts_at_zero(self):
        assert entry().position == 0
