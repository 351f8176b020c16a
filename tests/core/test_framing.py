"""The one crash-safe frame walker, and agreement of everything built on it.

``repro.core.framing.walk`` is the only code that decodes the frame
layout.  The damage-agreement tests below cut and flip bytes in a v2
PBIO image, a v1 image and a WAL segment, and check that every consumer
— the walker itself, ``PbioFileReader(recover="skip")`` streamed and
mapped, ``pbio-fsck``'s scan and open-and-heal — recovers the same
intact payloads up to the first frame whose framing is untrustworthy.
"""

import io
import os
import struct

import pytest

from repro.abi import X86, RecordSchema
from repro.core import IOContext, MessageError
from repro.core import encoder as enc
from repro.core.files import PBIO_KIND, PbioFileReader, file_to_buffer
from repro.core.framing import (
    FILE_HEADER,
    FileKind,
    byte_reader,
    check_header,
    open_log,
    pack_frame,
    pack_header,
    walk,
)
from repro.core.safety import DEFAULT_LIMITS
from repro.net.durable import WAL_KIND, PublisherWAL
from repro.tools import fsck_tool

SIMPLE = RecordSchema.from_pairs("rec", [("i", "int"), ("d", "double"), ("name", "char[8]")])
RECORDS = [{"i": k, "d": k * 1.5, "name": b"r%d" % k} for k in range(3)]
MAX_SIZE = DEFAULT_LIMITS.max_message_size
UNTRUSTWORTHY = ("misaligned", "oversize", "torn")


def frames_of(blob, version):
    return list(walk(byte_reader(blob, FILE_HEADER.size), version=version, start=FILE_HEADER.size))


class TestWalk:
    def test_clean_frames_are_ok_with_offsets(self):
        payloads = [b"alpha", b"", b"gamma" * 10]
        blob = b"".join(pack_frame(p) for p in payloads)
        frames = list(walk(byte_reader(blob)))
        assert [(f[2], bytes(f[3])) for f in frames] == [("ok", p) for p in payloads]
        assert frames[0][0] == 0 and frames[-1][1] == len(blob)
        assert all(a[1] == b[0] for a, b in zip(frames, frames[1:]))

    def test_v1_frames_have_no_trailer(self):
        blob = pack_frame(b"x", version=1) + pack_frame(b"yz", version=1)
        assert len(blob) == 4 + 1 + 4 + 2
        assert [bytes(f[3]) for f in walk(byte_reader(blob), version=1)] == [b"x", b"yz"]

    def test_corrupt_frame_keeps_walking(self):
        blob = bytearray(pack_frame(b"first") + pack_frame(b"second"))
        blob[5] ^= 0xFF  # payload byte of the first frame; its echo still agrees
        verdicts = [f[2] for f in walk(byte_reader(blob))]
        assert verdicts == ["corrupt", "ok"]
        first = next(walk(byte_reader(blob)))
        assert first[3].startswith("stored 0x")

    def test_echo_damage_alone_is_still_ok(self):
        blob = bytearray(pack_frame(b"payload"))
        blob[-1] ^= 0xFF  # only the redundant echo is hit; the CRC still matches
        assert [f[2] for f in walk(byte_reader(blob))] == ["ok"]

    def test_misaligned_frame_stops_the_walk(self):
        blob = bytearray(pack_frame(b"first") + pack_frame(b"second"))
        blob[3] ^= 0x01  # length prefix: CRC fails and the echo disagrees
        assert [f[2] for f in walk(byte_reader(blob))] == ["misaligned"]

    def test_oversize_frame_stops_before_reading_it(self):
        reads = []

        def read(n, inner=byte_reader(struct.pack(">I", 1 << 30) + b"x" * 64)):
            reads.append(n)
            return inner(n)

        frames = list(walk(read, max_size=1024))
        assert [(f[2], f[3]) for f in frames] == [("oversize", 1 << 30)]
        assert reads == [4]  # nothing was read (or allocated) for the body

    @pytest.mark.parametrize(
        "cut, part", [(2, "length prefix"), (7, "message body"), (14, "record trailer")]
    )
    def test_torn_tail_names_the_part_cut_short(self, cut, part):
        blob = pack_frame(b"payload")[:cut]
        assert list(walk(byte_reader(blob))) == [(0, cut, "torn", part)]


class TestHeader:
    KIND = FileKind(b"TESTKIND", {1: 2}, "test file", "test")

    def test_round_trip(self):
        header = pack_header(self.KIND)
        assert len(header) == FILE_HEADER.size == 12
        assert check_header(header, self.KIND) == 1

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"TEST", "not a test file: truncated header"),
            (b"OTHERKND\x00\x01\x00\x00", "not a test file: bad magic b'OTHERKND'"),
            (b"TESTKIND\x00\x07\x00\x00", "unsupported test version 7"),
        ],
    )
    def test_rejections_name_the_kind(self, raw, message):
        with pytest.raises(MessageError) as info:
            check_header(raw, self.KIND)
        assert str(info.value) == message


# -- damage agreement -----------------------------------------------------------


def damaged_images(blob, version):
    """Every truncation of ``blob``, plus one-byte flips inside each frame:
    a payload byte, the low length byte and (v2) the echo's low byte."""
    for cut in range(FILE_HEADER.size, len(blob)):
        yield f"cut@{cut}", blob[:cut], True
    for offset, end, _verdict, _payload in frames_of(blob, version):
        for pos in {offset + 3, (offset + 4 + end) // 2} | ({end - 1} if version >= 2 else set()):
            flipped = bytearray(blob)
            flipped[pos] ^= 0x5A
            yield f"flip@{pos}", bytes(flipped), False


def oracle(blob, version):
    """The walker's intact payloads and damage counts for one image."""
    frames = list(
        walk(
            byte_reader(blob, FILE_HEADER.size),
            version=version,
            max_size=MAX_SIZE,
            start=FILE_HEADER.size,
        )
    )
    intact = [bytes(f[3]) for f in frames if f[2] == "ok"]
    torn = sum(f[2] == "torn" for f in frames)
    corrupt = sum(f[2] in ("corrupt", "misaligned", "oversize") for f in frames)
    return frames, intact, torn, corrupt


def data_messages(payloads):
    """The payloads ``iter_raw`` yields: well-formed data messages."""
    out = []
    for payload in payloads:
        try:
            if enc.message_kind(payload) == enc.MSG_DATA:
                out.append(payload)
        except MessageError:
            pass
    return out


def fsck_prefix(blob):
    """fsck's verdicts and intact payloads before its first untrustworthy frame."""
    report = fsck_tool.scan_bytes(blob)
    verdicts, intact = [], []
    for frame in report.frames:
        if frame.verdict in ("framing", "torn"):
            verdicts.append(frame.verdict)
            break
        verdicts.append(frame.verdict)
        if frame.verdict == "ok":
            intact.append(bytes(frame.payload))
    return verdicts, intact


def healed(path, kind):
    payloads = []
    stream, _version = open_log(path, kind, on_payload=lambda p: payloads.append(bytes(p)))
    stream.close()
    return payloads, os.path.getsize(path)


@pytest.fixture(scope="module")
def pbio_images():
    ctx = IOContext(X86, context_id=0x5EED)
    return {v: file_to_buffer(ctx, SIMPLE, RECORDS, version=v) for v in (1, 2)}


@pytest.mark.parametrize("version", [2, 1])
def test_pbio_consumers_agree_on_every_damage(pbio_images, version, tmp_path):
    blob = pbio_images[version]
    path = str(tmp_path / "image.pbio")
    checked = 0
    for name, image, truncated in damaged_images(blob, version):
        frames, intact, torn, corrupt = oracle(image, version)
        stop = {"misaligned": "framing", "oversize": "framing", "torn": "torn"}
        want_verdicts = [stop.get(f[2], f[2]) for f in frames]
        assert fsck_prefix(image) == (want_verdicts, intact), name

        for mapped in (False, True):
            ctx = IOContext(X86)
            ctx.expect(SIMPLE)
            if mapped:
                with open(path, "wb") as out:
                    out.write(image)
                reader = PbioFileReader.open(ctx, path, recover="skip", mapped=True)
            else:
                reader = PbioFileReader(ctx, io.BytesIO(image), recover="skip")
            with reader:
                got = [bytes(m) for m in reader.iter_raw()]
            assert got == data_messages(intact), (name, mapped)
            if version >= 2 or truncated:
                # v1 carries no CRC: payload damage surfaces only as
                # message-level rejections, which the framing cannot count.
                assert ctx.metrics.value("file.torn_tails") == torn, (name, mapped)
                assert ctx.metrics.value("file.corrupt_records") == corrupt, (name, mapped)

        with open(path, "wb") as out:
            out.write(image)
        last_ok = max((f[1] for f in frames if f[2] == "ok"), default=FILE_HEADER.size)
        assert healed(path, PBIO_KIND) == (intact, last_ok), name
        checked += 1
    assert checked > len(blob) - FILE_HEADER.size


def test_wal_segment_consumers_agree_on_every_damage(tmp_path):
    wal_dir = str(tmp_path / "wal")
    with PublisherWAL(wal_dir) as wal:
        wal.announce(enc.pack_header(enc.MSG_FORMAT, 1, 1, 4) + b"meta")
        for seq in range(1, 4):
            wal.append(enc.encode_data_seq(1, 1, seq, b"record-%d" % seq))
    segment = os.path.join(wal_dir, "wal-00000001.seg")
    with open(segment, "rb") as stream:
        blob = stream.read()
    path = str(tmp_path / "copy.seg")
    for name, image, _truncated in damaged_images(blob, 2):
        frames, intact, _torn, _corrupt = oracle(image, 2)
        report = fsck_tool.scan_region(image, FILE_HEADER.size, 2)
        prefix = []
        for frame in report:
            if frame.verdict in ("framing", "torn"):
                break
            if frame.verdict == "ok":
                prefix.append(bytes(frame.payload))
        assert prefix == intact, name
        with open(path, "wb") as out:
            out.write(image)
        last_ok = max((f[1] for f in frames if f[2] == "ok"), default=FILE_HEADER.size)
        assert healed(path, WAL_KIND) == (intact, last_ok), name
