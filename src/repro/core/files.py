"""PBIO files: self-describing binary record files.

PBIO began life as *Portable Binary I/O* — the same NDR idea applied to
files: records are written in the writer's natural representation, and
the file carries the format meta-information so any reader on any
machine can decode it later.  This module provides that capability:

* :class:`PbioFileWriter` — append records (native bytes or value dicts)
  of any registered format; each format's meta-block is emitted before
  its first record.
* :class:`PbioFileReader` — iterate records, decoding to the *reader's*
  machine; or scan lazily (``iter_raw``) and decode selectively.

The file is literally a stream of PBIO messages (format messages and
data messages) prefixed by a small file header — so the wire and file
representations are one format, as in the original system.

File versions
-------------

**v1** frames each message as ``u32 length | payload`` — the seed
format, still read (and writable via ``version=1``) for compatibility.

**v2** (the default) appends a crash-safety trailer to every frame::

    u32 length | payload | u32 crc32(payload) | u32 length-echo

The CRC detects in-place corruption (bit rot, torn writes that landed
mid-record); the trailing length echo gives a second, independent copy
of the framing so a scanner (:mod:`repro.tools.fsck_tool`) can resync
after damage by searching forward for the next offset that parses as an
intact frame.  A process killed mid-append leaves at most one incomplete
frame at the tail, which readers detect as *torn* rather than misparsing
it as data, and which :meth:`PbioFileWriter.append` truncates before it
writes.  The framing itself — the walker, the header and the heal — lives
in :mod:`repro.core.framing`; this module keeps the file policy.

Readers take a ``recover`` policy:

* ``"raise"`` (default) — any damage raises :class:`MessageError`;
* ``"skip"``  — corrupt records are skipped (framing permitting) and a
  torn tail ends iteration cleanly: everything intact is recovered;
* ``"stop"``  — iteration ends cleanly at the first damaged frame.

Damage is counted on the reader context's unified metrics:
``file.corrupt_records`` (CRC mismatches), ``file.torn_tails``
(incomplete trailing frames) and ``file.recovered_records`` (records
successfully delivered *after* damage was first observed — i.e. records
a v1 reader would have lost).
"""

from __future__ import annotations

import io
import mmap
import os
from typing import Any, BinaryIO, Iterator

from repro.abi import RecordSchema

from . import encoder as enc
from .context import FormatHandle, IOContext
from .errors import MessageError, PbioError
from .framing import FILE_HEADER, FileKind, check_header, open_log, pack_frame, pack_header, walk
from .runtime.pool import Lease

FILE_MAGIC = b"PBIOFILE"
FILE_VERSION = 2
#: PBIO files: the header version *is* the frame version.
PBIO_KIND = FileKind(FILE_MAGIC, {1: 1, 2: 2}, "PBIO file", "PBIO file")

#: Reader damage policies (see module docstring).
RECOVER_POLICIES = ("raise", "skip", "stop")


class PbioFileWriter:
    """Writes a self-describing record file on behalf of one IOContext.

    ``version`` selects the frame format: 2 (default) adds the per-record
    CRC trailer, 1 reproduces the legacy framing byte for byte.  The
    writer is append-only by construction — it never seeks backwards, so
    a crash can damage at most the frame being written.
    """

    def __init__(
        self,
        ctx: IOContext,
        stream: BinaryIO,
        *,
        version: int = FILE_VERSION,
        _header_written: bool = False,
    ):
        if version not in PBIO_KIND.versions:
            raise ValueError(f"unsupported PBIO file version {version}")
        self.ctx = ctx
        self.version = version
        self._stream = stream
        self._announced: set[int] = set()
        self._records_written = 0
        if not _header_written:
            stream.write(pack_header(PBIO_KIND, version))

    @classmethod
    def open(cls, ctx: IOContext, path: str, *, version: int = FILE_VERSION) -> "PbioFileWriter":
        return cls(ctx, open(path, "wb"), version=version)

    @classmethod
    def append(cls, ctx: IOContext, path: str) -> "PbioFileWriter":
        """Reopen an existing file for appending (at its recorded version).

        Formats are re-announced before their first appended record —
        harmless to readers, which absorb repeated announcements.  A torn
        tail left by a crash mid-append is truncated first, so the new
        records start at a clean frame boundary.  Damage that leaves the
        framing untrustworthy mid-file raises :class:`MessageError` and
        leaves the file untouched: salvage it with ``pbio-fsck --repair``.
        """
        limits = ctx.limits

        def refuse(verdict: str) -> None:
            if verdict in ("misaligned", "oversize"):
                raise MessageError(
                    f"cannot append to {path}: {verdict} frame mid-file; "
                    f"salvage it with pbio-fsck --repair first"
                )

        stream, version = open_log(
            path,
            PBIO_KIND,
            create=False,
            max_size=limits.max_message_size if limits is not None else None,
            on_damage=refuse,
        )
        return cls(ctx, stream, version=version, _header_written=True)

    def write_native(self, handle: FormatHandle, native) -> None:
        """Append one record already in native binary form."""
        if handle.format_id not in self._announced:
            self._emit(self.ctx.announce(handle))
            self._announced.add(handle.format_id)
        self._emit(self.ctx.encode_native(handle, native))
        self._records_written += 1

    def write(self, handle: FormatHandle, record: dict[str, Any]) -> None:
        """Append one record given as a value dict."""
        self.write_native(handle, handle.codec.encode(record))

    def append_batch_native(self, handle: FormatHandle, natives) -> None:
        """Append many native-form records as one durable region.

        All frames — the announcement included, when this file has not
        seen the format yet — are joined into a *single* ``write``, then
        flushed and fsynced, so the batch costs one syscall plus one
        durability barrier instead of N of each.  A crash mid-batch
        leaves one contiguous torn region at the tail, which the v2
        framing detects frame by frame as usual.
        """
        frames: list[bytes] = []
        version = self.version
        if handle.format_id not in self._announced:
            frames.append(pack_frame(self.ctx.announce(handle), version=version))
            self._announced.add(handle.format_id)
        encode = self.ctx.encode_native
        frames.extend(
            pack_frame(encode(handle, native), version=version) for native in natives
        )
        self._stream.write(b"".join(frames))
        self._records_written += len(natives)
        self._stream.flush()
        try:
            os.fsync(self._stream.fileno())
        except (OSError, AttributeError, io.UnsupportedOperation):
            pass  # in-memory / pipe-backed streams have no durable backing

    def append_batch(self, handle: FormatHandle, records) -> None:
        """Append many value-dict records as one durable region."""
        codec = handle.codec
        self.append_batch_native(handle, [codec.encode(r) for r in records])

    def _emit(self, message: bytes) -> None:
        # One write per frame: an interrupted append tears at most the
        # frame in flight, never an already-complete predecessor.
        self._stream.write(pack_frame(message, version=self.version))

    @property
    def records_written(self) -> int:
        return self._records_written

    def flush(self) -> None:
        self._stream.flush()

    def close(self) -> None:
        self._stream.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class _MapSource:
    """Holds one read-only mmap of a PBIO file plus its master view.

    Deliberately a separate object: the unmap callback must not close
    over the reader (a ``self``-capturing closure inside a
    :class:`~repro.core.runtime.pool.Lease` keeps the reader — and
    therefore the lease — alive through the finalizer registry, so the
    map would never unmap).
    """

    __slots__ = ("mm", "stream", "view", "pos")

    def __init__(self, mm: mmap.mmap, stream: BinaryIO):
        self.mm = mm
        self.stream = stream
        self.view: memoryview | None = memoryview(mm)
        self.pos = 0

    def read(self, n: int) -> memoryview:
        """The next ``n`` bytes as a zero-copy slice of the map (short at
        EOF, like a stream's read)."""
        view = self.view
        if view is None:
            raise ValueError("I/O operation on closed PBIO reader")
        chunk = view[self.pos : self.pos + n]
        self.pos += len(chunk)
        return chunk


def _close_map(source: _MapSource) -> None:
    source.view = None  # release the master export first
    try:
        source.mm.close()
    except BufferError:
        # A frame view escaped without its lease (iter_raw caller kept a
        # raw memoryview).  The map stays pinned by that export and
        # unmaps when it dies — deferred, never unsafe.
        pass
    source.stream.close()


class PbioFileReader:
    """Reads a PBIO file, decoding records to the reader's machine.

    The reader context must ``expect()`` the record formats it wants
    decoded; unknown record types can still be enumerated via
    :meth:`iter_raw` and inspected with the reflection API.

    ``recover`` selects the damage policy (v2 files): ``"raise"``
    (default), ``"skip"`` or ``"stop"`` — see the module docstring.
    Frame lengths are bounded by the context's
    :class:`~repro.core.safety.DecodeLimits` before any allocation, so a
    corrupted (or hostile) length prefix cannot demand gigabytes.

    ``mapped=True`` (via :meth:`open`) memory-maps the file instead of
    streaming it: after the ``open(2)``/``mmap(2)`` pair the scan issues
    *zero read syscalls* — every frame is a :class:`memoryview` slice of
    the map, CRC-checked lazily as the scan reaches it, and
    ``read_batch(lend=True)`` decodes records as leased
    :class:`~repro.abi.views.RecordView` objects pointing straight into
    the page cache.  The map unmaps when the reader is closed *and* the
    last leased view has died, whichever comes later.
    """

    def __init__(
        self,
        ctx: IOContext,
        stream: BinaryIO,
        *,
        recover: str = "raise",
        _map: "_MapSource | None" = None,
    ):
        if recover not in RECOVER_POLICIES:
            raise ValueError(f"recover must be one of {RECOVER_POLICIES}, not {recover!r}")
        self.ctx = ctx
        self._stream = stream
        self._recover = recover
        self._damaged = False
        self._map = _map
        self._lease: Lease | None = None
        read = stream.read
        if _map is not None:
            self._lease = Lease(lambda: _close_map(_map), metrics=ctx.metrics)
            read = _map.read
        self.version = check_header(read(FILE_HEADER.size), PBIO_KIND)
        limits = ctx.limits
        # One walk per reader, resumed by every iter_raw / read_batch.
        # It holds only the byte source, never the reader itself.
        self._frames = walk(
            read,
            version=PBIO_KIND.versions[self.version],
            max_size=limits.max_message_size if limits is not None else None,
        )

    @classmethod
    def open(
        cls,
        ctx: IOContext,
        path: str,
        *,
        recover: str = "raise",
        mapped: bool = False,
    ) -> "PbioFileReader":
        stream = open(path, "rb")
        try:
            if not mapped:
                return cls(ctx, stream, recover=recover)
            try:
                mm = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:
                # Zero-length files cannot be mapped — and are not PBIO
                # files either; report them exactly like the stream path.
                raise MessageError("not a PBIO file: truncated header") from None
            try:
                return cls(ctx, stream, recover=recover, _map=_MapSource(mm, stream))
            except Exception:
                mm.close()
                raise
        except Exception:
            stream.close()
            raise

    # -- framing -------------------------------------------------------------

    def _raise_frame_error(self, verdict: str, detail) -> None:
        """The ``recover="raise"`` error for one damage verdict of the walk."""
        if verdict == "torn":
            raise MessageError(f"truncated PBIO file ({detail})")
        if verdict == "oversize":
            self.ctx.limits.check_message_size(detail)  # raises LimitError
        raise MessageError(f"corrupt PBIO file: record CRC mismatch ({detail})")

    def _damage(self, metric: str = "file.corrupt_records") -> bool:
        """Count one damaged frame or record (``skip`` / ``stop``); True
        when the reader reads on past it."""
        self._damaged = True
        self.ctx.metrics.inc(metric)
        return self._recover == "skip"

    def iter_raw(self) -> Iterator[bytes]:
        """Yield every *data* message, absorbing format messages.

        Mapped readers yield ``memoryview`` slices of the map; copy
        (``bytes(m)``) anything kept past the reader's lifetime.
        """
        for _offset, _end, verdict, message in self._frames:
            if verdict != "ok":
                if self._recover == "raise":
                    self._raise_frame_error(verdict, message)
                # Under skip a corrupt frame is dropped and the walk goes
                # on (its echo vouches for the alignment); the walk itself
                # ends after every other verdict.
                if not self._damage("file.torn_tails" if verdict == "torn" else "file.corrupt_records"):
                    return
                continue
            try:
                kind = enc.message_kind(message)
                if kind == enc.MSG_FORMAT:
                    # The context retains format meta; never hand it a
                    # borrowed slice of the map.
                    self.ctx.receive(
                        message if type(message) is bytes else bytes(message)
                    )
                    continue
                if kind != enc.MSG_DATA:
                    # Token announcements / format requests are link-level
                    # control messages; a self-contained file must carry
                    # full meta, so their presence here is damage.
                    raise MessageError(
                        f"unexpected message type {kind} in PBIO file"
                    )
            except PbioError:
                # A CRC-valid frame that is not a well-formed PBIO
                # message (v1 corruption, or a writer bug): damage.
                if self._recover == "raise":
                    raise
                if not self._damage():
                    return
                continue
            if self._damaged:
                self.ctx.metrics.inc("file.recovered_records")
            yield message

    def __iter__(self) -> Iterator[dict[str, Any]]:
        """Yield every record decoded to a value dict."""
        for message in self.iter_raw():
            try:
                yield self.ctx.decode(message)
            except PbioError:
                if self._recover == "raise":
                    raise
                if not self._damage():
                    return

    def read_all(self) -> list[dict[str, Any]]:
        return list(self)

    def read_batch(
        self, max_records: int | None = None, *, lend: bool = False
    ) -> list:
        """Read up to ``max_records`` records through the batch pipeline.

        Frames are scanned with the usual crash-safe ladder
        (:meth:`iter_raw` absorbs announcements and applies the
        ``recover`` policy to framing damage), then all collected data
        messages decode in one :meth:`DecodePipeline.decode_batch` pass —
        consecutive same-format records share a single columnar
        conversion.  Decode failures follow ``recover`` exactly like
        ``__iter__``: ``"raise"`` propagates, ``"skip"`` drops the bad
        record (counted as ``file.corrupt_records``), ``"stop"`` truncates
        the result at the first bad record.

        ``lend=True`` returns :class:`~repro.abi.views.RecordView`
        objects instead of dicts.  On a mapped reader the zero-copy
        format (record layout already native) decodes to views *into the
        map itself* under the reader's lease — no payload bytes are
        copied anywhere between the page cache and field access.  Call
        ``view.detach()`` before storing a view past the processing
        loop.
        """
        messages: list = []
        for message in self.iter_raw():
            messages.append(message)
            if max_records is not None and len(messages) >= max_records:
                break
        if not messages:
            return []
        decode_batch = self.ctx.pipeline.decode_batch
        if self._recover == "raise":
            return decode_batch(
                messages, on_error="raise", lend=lend, lease=self._lease
            )
        results = decode_batch(
            messages, on_error="skip", lend=lend, lease=self._lease
        )
        out: list = []
        for value in results:
            if value is None:
                if not self._damage():
                    break
                continue
            out.append(value)
        return out

    def close(self) -> None:
        if self._map is not None:
            # Drop this reader's hold on the map lease; the unmap runs
            # now, or when the last leased view dies — whichever is
            # later.  The lease callback closes the stream too.
            self._lease = None
            return
        self._stream.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_records(
    ctx: IOContext,
    path: str,
    schema: RecordSchema,
    records: list[dict[str, Any]],
    *,
    version: int = FILE_VERSION,
) -> None:
    """Convenience: write one schema's records to ``path``."""
    with PbioFileWriter.open(ctx, path, version=version) as writer:
        handle = ctx.register_format(schema)
        for record in records:
            writer.write(handle, record)


def read_records(
    ctx: IOContext, path: str, schema: RecordSchema, *, recover: str = "raise"
) -> list[dict[str, Any]]:
    """Convenience: read all records of ``schema`` from ``path``."""
    ctx.expect(schema)
    with PbioFileReader.open(ctx, path, recover=recover) as reader:
        return reader.read_all()


def file_to_buffer(
    ctx: IOContext,
    schema: RecordSchema,
    records: list[dict[str, Any]],
    *,
    version: int = FILE_VERSION,
) -> bytes:
    """Build an in-memory PBIO file (testing / transmission as a blob)."""
    buf = io.BytesIO()
    writer = PbioFileWriter(ctx, buf, version=version)
    handle = ctx.register_format(schema)
    for record in records:
        writer.write(handle, record)
    return buf.getvalue()
