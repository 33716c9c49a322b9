"""How sweeprun reads and writes a per-simulation file.

A sweep reads or writes one small file per simulation: `run` writes each
config and batch script, `collect` reads each output. At 10^4-10^5 files the
cost per file is what counts, and on a small text file almost none of it is
the disk. Measured on an ext4 VM (2 vCPUs, Python 3.11):

* ``Path(p).read_text(...)`` of a 20-byte output: 16.9 us;
  ``open(p, "rb", buffering=0).read()``: 4.3-5.8 us;
  ``os.open`` / ``os.read`` / ``os.close``: 2.5-3.6 us (collect_grid in
  ``bench/`` ran faster with the raw calls in 6 of 6 alternated pairs).
* ``Path(p).write_text(...)`` of a 786-byte config over an existing file:
  36-51 us; a raw ``os.open(O_TRUNC)`` write: 14-17 us; the same write
  in place, cut to length afterwards: 6-8 us.

Most of the difference is pathlib and ``TextIOWrapper`` set-up. The last
8 us are ext4's ``auto_da_alloc``: a file truncated to zero and written
again starts writeback when it is closed
(https://docs.kernel.org/admin-guide/ext4.html). So `rewrite` never opens
with ``O_TRUNC``: it writes the new bytes over the old ones from the start
and then cuts the file to their length, which gives the same bytes on disk.
Neither function fsyncs, so after an OS crash a file may hold old or partial
content; a run is then repeated with ``--overwrite``.

The mapping, summary, CSV and report are documents: each is checked by
``require_documents`` before a command's first write, then written whole to
a temporary file and renamed (``write_atomic``). The summary and the report
end in a list with one entry per job or issue, which a `Listing` spools to
disk as it grows. Callers reach these functions through the module, so
replacing one attribute reaches them all.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Callable, TypeVar

from .errors import SweepRunError

_CHUNK = 1 << 16

_T = TypeVar("_T")


def read_bytes(path: str) -> bytes:
    """The whole content of the file at `path`. Raises OSError as ``open``
    does; a directory raises it (EISDIR) on the first read."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _CHUNK):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def rewrite(path: str, text: str) -> None:
    """Make the file at `path` hold `text` as UTF-8, created with mode
    0o666 & ~umask if absent. An existing file keeps its mode and is written
    in place from its start, then cut to the new length if it was longer; a
    symlink is written through. A FIFO or device is written, never cut."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = os.write(fd, data)
        while written < len(data):
            written += os.write(fd, data[written:])
        if os.fstat(fd).st_size > len(data):  # a FIFO or a device has size 0
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def require_documents(documents: dict[str, Path], *, read: tuple[str, ...] = ()) -> dict[str, str]:
    """Check where each document (option -> path) will be written, following
    links as `write_atomic` does: it must be reachable or absent (a symlink
    loop is neither), in an existing directory (so must a link's target), and
    not a directory, and no two may be one file once links and '..' are
    resolved. Unless its option is in `read` (a document only read) or it is
    written in place, the temporary file `write_atomic` makes for it must have
    a name its directory allows. Raises SweepRunError naming the option;
    returns {resolved: option}."""
    taken: dict[str, str] = {}
    for option, path in documents.items():
        try:
            os.stat(path)
        except (FileNotFoundError, NotADirectoryError):  # absent; its directory is checked below
            pass
        except OSError as exc:
            raise SweepRunError(f"{option} {path}: {exc.strerror}") from None
        resolved = os.path.realpath(path)
        for directory in (path.parent, os.path.dirname(resolved)):
            if not os.path.isdir(directory):
                raise SweepRunError(f"{option}: no directory {directory} to write {path} in")
        if os.path.isdir(path):
            raise SweepRunError(f"{option}: {path} is a directory, not a file to write")
        if resolved in taken:
            raise SweepRunError(
                f"{taken[resolved]} and {option} are the same file, {resolved}; give each its own path"
            )
        destination = _renamed_onto(path)
        if option not in read and destination is not None:
            size = len(os.fsencode(_temporary(destination).name))
            limit = os.pathconf(destination.parent, "PC_NAME_MAX")
            if 0 <= limit < size:
                raise SweepRunError(
                    f"{option}: {path} is too long a name to write: its temporary file's name "
                    f"would have {size} bytes, over the {limit} its directory allows"
                )
        taken[resolved] = option
    return taken


def _renamed_onto(path: Path) -> Path | None:
    """What `write_atomic` renames its temporary file onto: `path`, or a link's final
    target if that is a regular file or absent; None where it writes in place."""
    if path.is_symlink() and (path.is_file() or not path.exists()):
        target = Path(os.path.realpath(path))
        if target.is_file() or not os.path.lexists(target):  # not a link in a loop
            return target
    if path.is_symlink() or (path.exists() and not path.is_file()):
        return None
    return path


def _temporary(path: Path) -> Path:
    return path.with_name(f".tmp.{os.urandom(4).hex()}.{path.name}")


def write_atomic(path: Path, write: Callable[[Path], _T]) -> _T:
    """Call `write` on a new temporary sibling of `path`, then rename it onto
    `path`, so a process that fails or dies halfway leaves the previous
    document (or none), never a truncated one. Nothing is fsynced, so an OS
    crash can still lose the write. A symlink whose final target is a regular
    file or absent is followed, and the rename replaces that target, so the
    link stays a link; if the target's directory cannot be written, the
    target is written in place. A special file (such as /dev/stdout), or a
    link to one, is written in place, as the rename would replace it or fail.
    Returns what `write` returns."""
    destination = _renamed_onto(path)
    if destination is None:
        return write(path)
    temporary = _temporary(destination)
    try:
        os.close(os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    except PermissionError:
        if destination is path:
            raise
        return write(destination)
    try:
        if destination.exists():
            shutil.copymode(destination, temporary)
        result = write(temporary)
        os.replace(temporary, destination)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return result


class Listing:
    """The entries of a JSON document's last value, a list, spooled to an
    unlinked temporary file as each is added, so that `write` writes the
    document byte for byte as json.dumps(document, indent=2) + "\n" without
    holding the list. The spool is made in the system's temporary directory,
    not the document's, which may be /dev."""

    def __init__(self):
        self._spool = tempfile.TemporaryFile()
        # write-only text: a readable one resets its decoder on every write
        self._entries = open(self._spool.fileno(), "w", encoding="ascii", closefd=False)
        self.count = 0  # the entries added

    def __enter__(self) -> "Listing":
        return self

    def __exit__(self, *exc_info) -> None:
        self._entries.close()
        self._spool.close()

    def add(self, record) -> None:
        """Add an entry: a JSON object of the fields of `record`, a dataclass
        of text and numbers, in their order, leaving out those that are None
        (at least one must be left). Text is escaped to ASCII, as json.dumps does."""
        pairs = ",".join([
            f"\n      {_quote(k)}: {_quote(v) if type(v) is str else json.dumps(v)}"
            for k, v in vars(record).items() if v is not None
        ])
        self._entries.write(f",\n    {{{pairs}\n    }}")
        self.count += 1

    def write(self, path: Path, document: dict) -> None:
        """Write `document`, whose last value is an empty list, with the
        entries in that list, through `write_atomic`."""
        self._entries.flush()
        head = json.dumps(document, indent=2)

        def copy(target: Path):
            with target.open("wb") as out:  # json.dumps and the entries are ASCII
                if not self.count:
                    out.write(f"{head}\n".encode())
                    return
                out.write(head.removesuffix("]\n}").encode())
                self._spool.seek(1)  # past the first entry's ','
                shutil.copyfileobj(self._spool, out)
                out.write(b"\n  ]\n}\n")

        write_atomic(path, copy)
