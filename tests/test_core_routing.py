"""The routing declaration against the kernel, call by call.

Every routed client call is run on a node-local path or descriptor in
one temp tree, and the matching ``os.*`` call on an identical twin tree.
Both must return the same result (or fail with the same errno) and leave
their trees the same.
"""

import os
import shutil
from pathlib import Path
from stat import S_ISDIR

import pytest

from repro.core.client import GekkoFSClient


def _fd_call(open_, close, root, fn, flags=os.O_RDWR):
    fd = open_(f"{root}/f", flags)
    try:
        return fn(fd)
    finally:
        close(fd)


def _attrs(st):
    return (S_ISDIR(st.st_mode), st.st_size, st.st_mode & 0o7777)


def _md(md):
    return (md.is_dir, md.size, md.mode)


def _stream(client, path):
    fd = client.opendir(path)
    entries = []
    while (entry := client.readdir(fd)) is not None:
        entries.append(entry)
    client.close(fd)
    return entries


#: (routed call, the client on tree ``r``, its os.* twin on tree ``r``)
ROWS = [
    ("open", lambda c, r: c.close(c.open(f"{r}/n", os.O_CREAT | os.O_WRONLY, 0o600)),
     lambda r: os.close(os.open(f"{r}/n", os.O_CREAT | os.O_WRONLY, 0o600))),
    ("open", lambda c, r: c.open(f"{r}/missing"), lambda r: os.open(f"{r}/missing", os.O_RDONLY)),
    ("creat", lambda c, r: c.close(c.creat(f"{r}/f")),
     lambda r: os.close(os.open(f"{r}/f", os.O_WRONLY | os.O_CREAT | os.O_TRUNC))),
    ("close", lambda c, r: c.close(999), lambda r: os.close(999)),
    ("read", lambda c, r: _fd_call(c.open, c.close, r, lambda fd: c.read(fd, 4)),
     lambda r: _fd_call(os.open, os.close, r, lambda fd: os.read(fd, 4))),
    ("write", lambda c, r: _fd_call(c.open, c.close, r, lambda fd: c.write(fd, b"ab")),
     lambda r: _fd_call(os.open, os.close, r, lambda fd: os.write(fd, b"ab"))),
    ("pread", lambda c, r: _fd_call(c.open, c.close, r, lambda fd: c.pread(fd, 4, 3)),
     lambda r: _fd_call(os.open, os.close, r, lambda fd: os.pread(fd, 4, 3))),
    ("pwrite", lambda c, r: _fd_call(c.open, c.close, r, lambda fd: c.pwrite(fd, b"Z", 12)),
     lambda r: _fd_call(os.open, os.close, r, lambda fd: os.pwrite(fd, b"Z", 12))),
    ("pwrite", lambda c, r: _fd_call(c.open, c.close, r, lambda fd: c.pwrite(fd, b"Z", 0), os.O_RDONLY),
     lambda r: _fd_call(os.open, os.close, r, lambda fd: os.pwrite(fd, b"Z", 0), os.O_RDONLY)),
    ("lseek", lambda c, r: _fd_call(c.open, c.close, r, lambda fd: c.lseek(fd, -2, os.SEEK_END)),
     lambda r: _fd_call(os.open, os.close, r, lambda fd: os.lseek(fd, -2, os.SEEK_END))),
    ("fsync", lambda c, r: _fd_call(c.open, c.close, r, c.fsync),
     lambda r: _fd_call(os.open, os.close, r, os.fsync)),
    ("stat", lambda c, r: _md(c.stat(f"{r}/d")), lambda r: _attrs(os.stat(f"{r}/d"))),
    ("stat", lambda c, r: c.stat(f"{r}/missing"), lambda r: os.stat(f"{r}/missing")),
    ("fstat", lambda c, r: _fd_call(c.open, c.close, r, lambda fd: _md(c.fstat(fd))),
     lambda r: _fd_call(os.open, os.close, r, lambda fd: _attrs(os.fstat(fd)))),
    ("exists", lambda c, r: (c.exists(f"{r}/f"), c.exists(f"{r}/missing")),
     lambda r: (os.path.exists(f"{r}/f"), os.path.exists(f"{r}/missing"))),
    ("unlink", lambda c, r: c.unlink(f"{r}/f"), lambda r: os.unlink(f"{r}/f")),
    ("unlink", lambda c, r: c.unlink(f"{r}/d"), lambda r: os.unlink(f"{r}/d")),
    ("truncate", lambda c, r: c.truncate(f"{r}/f", 3), lambda r: os.truncate(f"{r}/f", 3)),
    ("ftruncate", lambda c, r: _fd_call(c.open, c.close, r, lambda fd: c.ftruncate(fd, 20)),
     lambda r: _fd_call(os.open, os.close, r, lambda fd: os.ftruncate(fd, 20))),
    ("mkdir", lambda c, r: c.mkdir(f"{r}/e", 0o700), lambda r: os.mkdir(f"{r}/e", 0o700)),
    ("mkdir", lambda c, r: c.mkdir(f"{r}/d"), lambda r: os.mkdir(f"{r}/d")),
    ("rmdir", lambda c, r: c.rmdir(f"{r}/d"), lambda r: os.rmdir(f"{r}/d")),
    ("listdir", lambda c, r: c.listdir(r),
     lambda r: sorted((e.name, e.is_dir()) for e in os.scandir(r))),
    ("listdir_plus", lambda c, r: [(n, _md(md)) for n, md in c.listdir_plus(r)],
     lambda r: sorted((e.name, _attrs(e.stat())) for e in os.scandir(r))),
    ("opendir", lambda c, r: _stream(c, r),
     lambda r: sorted((e.name, e.is_dir()) for e in os.scandir(r))),
    ("opendir", lambda c, r: _stream(c, f"{r}/missing"), lambda r: os.scandir(f"{r}/missing")),
    ("read_bytes", lambda c, r: c.read_bytes(f"{r}/f"), lambda r: Path(f"{r}/f").read_bytes()),
    ("read_bytes", lambda c, r: c.read_bytes(f"{r}/d"), lambda r: Path(f"{r}/d").read_bytes()),
    ("write_bytes", lambda c, r: c.write_bytes(f"{r}/w", b"new"),
     lambda r: Path(f"{r}/w").write_bytes(b"new")),
    ("copy", lambda c, r: c.copy(f"{r}/f", f"{r}/cp", buffer_size=4),
     lambda r: os.path.getsize(shutil.copyfile(f"{r}/f", f"{r}/cp"))),
    ("rename", lambda c, r: c.rename(f"{r}/f", f"{r}/moved"),
     lambda r: os.rename(f"{r}/f", f"{r}/moved")),
    ("link", lambda c, r: c.link(f"{r}/f", f"{r}/hard"), lambda r: os.link(f"{r}/f", f"{r}/hard")),
    ("symlink", lambda c, r: c.symlink("f", f"{r}/soft"), lambda r: os.symlink("f", f"{r}/soft")),
    ("chmod", lambda c, r: c.chmod(f"{r}/f", 0o600), lambda r: os.chmod(f"{r}/f", 0o600)),
]


def _outcome(fn, root):
    try:
        return "ok", fn(root)
    except OSError as err:
        return "errno", err.errno


def _tree(root):
    shape = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        rel = os.path.relpath(dirpath, root)
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                shape.append((rel, name, f.read(), os.lstat(path).st_mode & 0o7777))
        shape.append((rel, sorted(dirnames)))
    return shape


def _make_tree(root):
    os.mkdir(root)
    with open(f"{root}/f", "wb") as f:
        f.write(b"0123456789")
    os.mkdir(f"{root}/d")


@pytest.mark.parametrize(
    "name,call,twin", ROWS, ids=[f"{row[0]}-{i}" for i, row in enumerate(ROWS)]
)
def test_routed_call_matches_the_kernel(client, tmp_path, name, call, twin):
    mine, theirs = str(tmp_path / "mine"), str(tmp_path / "twin")
    _make_tree(mine)
    _make_tree(theirs)
    assert _outcome(lambda r: call(client, r), mine) == _outcome(twin, theirs)
    assert _tree(mine) == _tree(theirs)


def test_every_routed_call_has_a_row():
    """The table follows the declaration: a call that gains a route
    gains a row (private routed helpers run under the convenience rows)."""
    routed = {
        name
        for name, member in vars(GekkoFSClient).items()
        if hasattr(member, "__wrapped__") and not name.startswith("_")
    }
    assert routed <= {row[0] for row in ROWS}
