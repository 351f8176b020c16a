"""pbio-fsck: verify and repair PBIO record files.

Usage::

    pbio-fsck data.pbio                 # scan, report per-frame verdicts
    pbio-fsck --quiet data.pbio         # summary line only
    pbio-fsck --repair clean.pbio data.pbio   # copy intact frames to a new file
    pbio-fsck --truncate data.pbio      # drop a torn tail in place

Exit codes: 0 — file clean; 1 — damage found (and, with ``--repair`` /
``--truncate``, repaired); 2 — not a PBIO file or usage error.

The v2 frame format (``u32 len | payload | u32 crc32 | u32 len-echo``)
makes three verdicts decidable per frame:

* ``ok``      — CRC matches the payload;
* ``corrupt`` — complete frame, CRC mismatch (bit rot / torn overwrite);
* ``torn``    — the file ends inside the frame (crash mid-append).

The frames come from the one walker, :func:`repro.core.framing.walk`.
When a frame's length prefix and echo disagree *and* the CRC fails
(``misaligned``), or its length is absurd (``oversize``), the framing
itself is untrustworthy; the scanner then resynchronizes by searching
forward for the next offset that parses as a valid frame (length sane,
CRC matches, echo agrees) and reports the gap as ``framing`` damage.
v1 files (no trailer) are scanned for framing consistency and torn
tails only — content damage is undetectable there, which is the
argument for v2.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections import Counter

from repro.core.errors import MessageError
from repro.core.files import PBIO_KIND
from repro.core.framing import FILE_HEADER, byte_reader, check_header, walk

#: Scanning resync never considers candidate frames larger than this —
#: a corrupted length prefix must not make the scanner "validate" an
#: absurd span by luck.
MAX_SCAN_FRAME = 1 << 30


@dataclasses.dataclass(frozen=True)
class FrameReport:
    """One scanned frame (or damaged region)."""

    offset: int  # file offset of the length prefix (or damage start)
    length: int  # bytes the frame (or damaged region) spans
    verdict: str  # "ok" | "corrupt" | "torn" | "framing"
    #: the payload of an ``ok`` frame (a view into the scanned bytes)
    payload: memoryview | None = dataclasses.field(default=None, repr=False, compare=False)

    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclasses.dataclass
class FsckReport:
    version: int
    frames: list[FrameReport]
    file_size: int

    @property
    def ok(self) -> list[FrameReport]:
        return [f for f in self.frames if f.verdict == "ok"]

    @property
    def damaged(self) -> list[FrameReport]:
        return [f for f in self.frames if f.verdict != "ok"]

    @property
    def clean(self) -> bool:
        return not self.damaged

    @property
    def intact_prefix_end(self) -> int:
        """File offset up to which every frame is intact — the truncation
        point that drops a torn tail without losing good records."""
        return next((f.offset for f in self.frames if f.verdict != "ok"), self.file_size)


class NotPbioFile(ValueError):
    pass


def _resync(data: bytes, pos: int, version: int) -> int:
    """The next offset >= pos+1 where an intact frame parses (or EOF)."""
    for candidate in range(pos + 1, len(data)):
        frames = walk(byte_reader(data, candidate), version=version, max_size=MAX_SCAN_FRAME)
        if next(frames)[2] == "ok":
            return candidate
    return len(data)


def scan_region(data: bytes, start: int = 0, version: int = 2) -> list[FrameReport]:
    """Walk a framed region of ``data`` from ``start``, one verdict per frame.

    Header-agnostic, so every framed file format built on
    :mod:`repro.core.framing` — PBIO record files, publisher WAL
    segments, ack cursor stores — shares one damage taxonomy (``ok`` /
    ``corrupt`` / ``torn`` / ``framing``) and one resynchronization
    strategy: where the walker stops on untrustworthy framing, the scan
    resumes at the next intact frame.
    """
    frames: list[FrameReport] = []
    pos = start
    while pos < len(data):
        for offset, end, verdict, payload in walk(
            byte_reader(data, pos), version=version, max_size=MAX_SCAN_FRAME, start=pos
        ):
            if verdict in ("misaligned", "oversize"):
                end = _resync(data, offset, version)
                verdict = "framing"
            frames.append(
                FrameReport(offset, end - offset, verdict, payload if verdict == "ok" else None)
            )
            pos = end
    return frames


def scan_bytes(data: bytes) -> FsckReport:
    """Scan an in-memory PBIO file image."""
    try:
        version = check_header(data, PBIO_KIND)
    except MessageError as exc:
        raise NotPbioFile(str(exc)) from None
    frames = scan_region(data, FILE_HEADER.size, PBIO_KIND.versions[version])
    return FsckReport(version=version, frames=frames, file_size=len(data))


def repair_bytes(data: bytes, report: FsckReport | None = None) -> bytes:
    """A new file image containing only the intact frames of ``data``."""
    if report is None:
        report = scan_bytes(data)
    out = bytearray(data[: FILE_HEADER.size])
    for frame in report.ok:
        out += data[frame.offset : frame.end]
    return bytes(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbio-fsck", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("path", help="PBIO file to check")
    parser.add_argument("--quiet", action="store_true", help="summary only, no per-frame report")
    parser.add_argument(
        "--repair", metavar="OUT", default=None, help="write intact frames to a new file OUT"
    )
    parser.add_argument(
        "--truncate",
        action="store_true",
        help="truncate the file in place at the end of its intact prefix",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.repair and args.truncate:
        print("--repair and --truncate are mutually exclusive", file=sys.stderr)
        return 2
    try:
        with open(args.path, "rb") as stream:
            data = stream.read()
        report = scan_bytes(data)
    except FileNotFoundError:
        print(f"no such file: {args.path}", file=sys.stderr)
        return 2
    except NotPbioFile as exc:
        print(exc, file=sys.stderr)
        return 2
    if not args.quiet:
        for frame in report.frames:
            print(f"{frame.offset:#010x}  {frame.length:8d}  {frame.verdict}")
    counts = Counter(frame.verdict for frame in report.frames)
    print(
        f"{args.path}: v{report.version}, {report.file_size} bytes, "
        f"{counts['ok']} ok, {counts['corrupt']} corrupt, "
        f"{counts['torn']} torn, {counts['framing']} framing"
    )
    if report.clean:
        return 0
    if args.repair:
        repaired = repair_bytes(data, report)
        with open(args.repair, "wb") as out:
            out.write(repaired)
        print(f"repaired: {len(report.ok)} intact frame(s) -> {args.repair}")
    elif args.truncate:
        cut = report.intact_prefix_end
        with open(args.path, "r+b") as stream:
            stream.truncate(cut)
        print(f"truncated: {args.path} now {cut} bytes")
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
