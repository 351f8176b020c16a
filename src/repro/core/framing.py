"""The crash-safe frame log: the one module that knows the frame layout.

One framing, four consumers: PBIO record files (:mod:`repro.core.files`,
read and appended), ``pbio-fsck``, the format-service on-disk cache
(:mod:`repro.fmtserv.cache`) and the durable-delivery write-ahead log and
ack cursors (:mod:`repro.net.durable`).  Every such file is a 12-byte
header (``8s magic | u16 version | 2 pad``, big-endian) followed by
frames::

    u32 length | payload | u32 crc32(payload) | u32 length-echo

each emitted with a *single* ``write`` call, so a process killed
mid-append tears at most the frame in flight.  The CRC detects in-place
corruption; the trailing length echo is an independent second copy of
the framing, so a scanner can distinguish "payload damaged" (echo
agrees, CRC fails) from "framing untrustworthy" (echo disagrees too).
v1 (``u32 length | payload``) remains readable for the seed file format.

This module owns three things, and consumers keep only their policy:

* :func:`walk` — the one frame walker, with one verdict per frame;
* :func:`pack_header` / :func:`check_header` — the shared file header;
* :func:`open_log` — open-and-heal for append-only logs.
"""

from __future__ import annotations

import os
import struct
from typing import BinaryIO, Callable, Iterator, Mapping, NamedTuple
from zlib import crc32

from .errors import MessageError

#: Current frame discipline version (the crash-safe one).
FRAME_VERSION = 2

MSG_LEN = struct.Struct(">I")
V2_TRAILER = struct.Struct(">II")  # crc32(payload), length echo
FILE_HEADER = struct.Struct(">8sHxx")  # magic, version, pad


class FileKind(NamedTuple):
    """One family of headered frame files.

    ``versions`` maps each header version a reader accepts to the frame
    version its body uses (the newest is what new files get).  The two
    nouns name the family in header errors: ``not a <noun>: ...`` and
    ``unsupported <version_noun> version N``.
    """

    magic: bytes
    versions: Mapping[int, int]
    noun: str
    version_noun: str


def pack_frame(payload: bytes, *, version: int = FRAME_VERSION) -> bytes:
    """One frame around ``payload`` in the given framing version.

    v2 is the crash-safe framing (``u32 len | payload | u32 crc32 |
    u32 len-echo``).  Emit the result with a single ``write`` call to
    keep the torn-tail guarantee.
    """
    payload = bytes(payload)
    frame = MSG_LEN.pack(len(payload)) + payload
    if version >= 2:
        frame += V2_TRAILER.pack(crc32(payload), len(payload))
    return frame


def pack_header(kind: FileKind, version: int | None = None) -> bytes:
    """The 12-byte header of a ``kind`` file (newest version by default)."""
    return FILE_HEADER.pack(kind.magic, max(kind.versions) if version is None else version)


def check_header(raw, kind: FileKind) -> int:
    """Validate the header at the start of ``raw``; return its version.

    Raises :class:`~repro.core.errors.MessageError` for a short header,
    a foreign magic or a version ``kind`` does not know.
    """
    if len(raw) < FILE_HEADER.size:
        raise MessageError(f"not a {kind.noun}: truncated header")
    magic, version = FILE_HEADER.unpack_from(raw, 0)
    if magic != kind.magic:
        raise MessageError(f"not a {kind.noun}: bad magic {magic!r}")
    if version not in kind.versions:
        raise MessageError(f"unsupported {kind.version_noun} version {version}")
    return version


def byte_reader(data, pos: int = 0) -> Callable[[int], memoryview]:
    """A ``read(n)`` over in-memory bytes from ``pos``: zero-copy slices,
    short at the end like a stream's."""
    view = memoryview(data)

    def read(n: int) -> memoryview:
        nonlocal pos
        chunk = view[pos : pos + n]
        pos += len(chunk)
        return chunk

    return read


def walk(
    read: Callable[[int], bytes],
    *,
    version: int = FRAME_VERSION,
    max_size: int | None = None,
    start: int = 0,
) -> Iterator[tuple[int, int, str, object]]:
    """Walk the frames ``read`` returns; yield ``(offset, end, verdict, payload)``.

    ``read(n)`` returns up to ``n`` bytes (a stream's ``read``, a slice
    of an mmap, :func:`byte_reader`); ``offset`` counts from ``start``.
    Verdicts:

    * ``ok`` — a complete frame whose CRC matches (v1: any complete frame);
    * ``corrupt`` — complete, CRC mismatch, length echo agrees: the
      framing is still aligned, so the walk continues;
    * ``misaligned`` — CRC mismatch *and* the echo disagrees: the length
      prefix itself is suspect, so the next "boundary" would be a guess;
    * ``oversize`` — the length exceeds ``max_size`` (hostile or
      corrupted prefix): nothing is read or allocated for it;
    * ``torn`` — the data ends inside the frame (a crash mid-append).

    The walk stops after any verdict other than ``ok`` or ``corrupt``; a
    clean end at a frame boundary yields nothing.  ``payload`` is the
    frame's payload for ``ok``.  For damage it is a diagnostic instead:
    the part cut short (``torn``), the stored and computed CRCs
    (``corrupt``, ``misaligned``) or the declared length (``oversize``).
    """
    offset = start
    while True:
        raw_len = read(MSG_LEN.size)
        if not raw_len:
            return
        if len(raw_len) != MSG_LEN.size:
            yield offset, offset + len(raw_len), "torn", "length prefix"
            return
        (n,) = MSG_LEN.unpack(raw_len)
        if max_size is not None and n > max_size:
            yield offset, offset + MSG_LEN.size, "oversize", n
            return
        payload = read(n)
        end = offset + MSG_LEN.size + len(payload)
        if len(payload) != n:
            yield offset, end, "torn", "message body"
            return
        if version >= 2:
            trailer = read(V2_TRAILER.size)
            end += len(trailer)
            if len(trailer) != V2_TRAILER.size:
                yield offset, end, "torn", "record trailer"
                return
            crc, echo = V2_TRAILER.unpack(trailer)
            computed = crc32(payload)
            # A matching CRC wins even when the echo disagrees: only the
            # redundant echo bytes were damaged, the record is fine.
            if computed != crc:
                detail = f"stored {crc:#010x}, computed {computed:#010x}"
                if echo != n:
                    yield offset, end, "misaligned", detail
                    return
                yield offset, end, "corrupt", detail
                offset = end
                continue
        yield offset, end, "ok", payload
        offset = end


def open_log(
    path: str,
    kind: FileKind,
    *,
    create: bool = True,
    max_size: int | None = None,
    on_payload: Callable[[bytes], None] | None = None,
    on_damage: Callable[[str], None] | None = None,
) -> tuple[BinaryIO, int]:
    """Open an append-only frame log, healing a torn tail; return
    ``(stream, version)`` with the stream positioned for the next append.

    A missing file is created with a fresh header (when ``create``).  An
    existing one has its header checked, every intact payload handed to
    ``on_payload`` in order and every damaged frame's verdict to
    ``on_damage`` — which may raise to refuse the file, leaving it
    untouched.  Finally the file is truncated after its last intact
    frame, so the next append starts at a clean frame boundary.
    """
    if create and not os.path.exists(path):
        stream = open(path, "w+b")
        stream.write(pack_header(kind))
        stream.flush()
        return stream, max(kind.versions)
    stream = open(path, "r+b")
    try:
        version = check_header(stream.read(FILE_HEADER.size), kind)
        cut = FILE_HEADER.size
        for _offset, end, verdict, payload in walk(
            stream.read, version=kind.versions[version], max_size=max_size, start=cut
        ):
            if verdict == "ok":
                cut = end
                if on_payload is not None:
                    on_payload(payload)
            elif on_damage is not None:
                on_damage(verdict)
        stream.truncate(cut)
        stream.seek(cut)
    except BaseException:
        stream.close()
        raise
    return stream, version
