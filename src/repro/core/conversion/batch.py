"""Columnar batch conversion: N same-format records in one pass.

The scalar DCG converter already amortizes per-*field* dispatch into
per-*run* operations; a stream of same-format records still pays one
Python call, one destination allocation and one op-loop per record.
:class:`BatchConverter` lifts the whole plan one axis higher: the N
concatenated payloads are viewed as a ``(n, src_size)`` uint8 matrix,
and every plan op becomes a strided *column* operation — a 2-D slice
copy for COPY/CHARS, a ``view(dtype).astype(dtype)`` for element runs —
so the per-record cost is pure C loop, whatever N is.

Byte-identity with the scalar converter is load-bearing (the batch
decode path must be indistinguishable from a per-message loop), so the
lifting is deliberately conservative:

* ``STRING`` plans (variable-size output) and VAX float plans are not
  expressible as fixed-stride columns — :func:`build_batch_converter`
  returns ``None`` and callers loop the scalar converter;
* ``CVT_FLOAT_INT`` is excluded even though numpy could express it: the
  scalar short-run lowering is ``int(v) & mask`` (raises on NaN/inf,
  truncates toward zero), while ``astype`` semantics for out-of-range
  floats are platform-defined — close enough to be tempting, different
  enough to break byte-identity on hostile input;
* everything else (COPY, CHARS, ZERO, SWAP, CVT_INT, CVT_FLOAT,
  CVT_INT_FLOAT) has provably identical struct/numpy semantics —
  ``test_shape_both_lowerings_agree`` in the threshold ablation and the
  batch property suite pin this down.

Column views are legal because a ``(n, src_size)`` slice ``[:, a:b]``
keeps the last axis contiguous (stride 1), which is all
``ndarray.view(dtype)`` requires; ``astype`` then handles the
byte-order/size/kind change for all rows at once.
"""

from __future__ import annotations

import numpy as np

from repro.abi import PrimKind

from .plan import ConversionPlan, OpKind
from .vectorized import np_dtype

_U8 = np.dtype(np.uint8)

#: Fixed-region size (bytes) above which :class:`VarBatchConverter`
#: gathers/scatters record heads with per-record memcpys instead of a
#: fancy-index pass — the ``(n, size)`` ``int64`` index matrix costs 8 B
#: per payload byte and loses to ``memcpy`` past a few hundred bytes
#: (measured ~4.5x at 2 KB heads on this container).
_LOOP_GATHER_MIN = 256

#: Fixed-region size above which the var-length columnar pass is not
#: built at all.  The scalar converter is itself numpy-vectorized per
#: record, so once the fixed head holds hundreds of elements its
#: dispatch overhead is amortized and the columnar pass's extra
#: gather/scatter of every head byte turns into pure loss (measured
#: break-even ~1.5 KB, 0.87x at 2 KB heads).
_VAR_BATCH_MAX_HEAD = 1024

#: Op kinds the columnar lifting expresses (see module docstring for
#: why CVT_FLOAT_INT and STRING are deliberately absent).
_LIFTABLE = frozenset(
    {
        OpKind.COPY,
        OpKind.CHARS,
        OpKind.ZERO,
        OpKind.SWAP,
        OpKind.CVT_INT,
        OpKind.CVT_FLOAT,
        OpKind.CVT_INT_FLOAT,
    }
)


class BatchConverter:
    """Converts N concatenated same-format payloads with strided numpy ops.

    Build via :func:`build_batch_converter` (which vets the plan); call
    :meth:`convert` with the concatenated source payloads.  The result
    is the concatenation of the N converted records — byte-identical to
    running the scalar converter N times and joining the outputs.
    """

    __slots__ = ("src_size", "dst_size", "_copies", "_elems")

    def __init__(self, plan: ConversionPlan, copies, elems):
        self.src_size = plan.wire.record_size
        self.dst_size = plan.native.record_size
        #: byte-column moves: (dst_lo, dst_hi, src_lo, src_hi)
        self._copies = copies
        #: element-column converts: (dst_lo, dst_hi, src_lo, src_hi, sdt, ddt)
        self._elems = elems

    def convert(self, concat, n: int) -> bytes:
        """Convert ``n`` records packed back to back in ``concat``.

        ``concat`` must be exactly ``n * src_size`` bytes (callers
        validate frame lengths before concatenating).
        """
        if n == 0:
            return b""
        src = np.frombuffer(concat, _U8).reshape(n, self.src_size)
        dst = np.zeros((n, self.dst_size), _U8)
        for d0, d1, s0, s1 in self._copies:
            dst[:, d0:d1] = src[:, s0:s1]
        with np.errstate(over="ignore", invalid="ignore"):
            for d0, d1, s0, s1, sdt, ddt in self._elems:
                dst[:, d0:d1] = (
                    src[:, s0:s1].view(sdt).astype(ddt).view(_U8)
                )
        return dst.tobytes()



class VarBatchConverter:
    """Columnar conversion for *string-bearing* plans (var-length output).

    The scalar converter's string lowering is a per-record Python loop:
    unpack the pointer, ``src.index(0, ptr)`` to find the NUL, append the
    segment to a tail list.  This class lifts all of it to offset-table
    passes over the concatenation of N payloads:

    1. gather the fixed regions into an ``(n, src_size)`` matrix and run
       the usual column ops;
    2. one pass builds the length/offset tables — pointers are read as
       unsigned columns, every NUL terminator is found with a single
       ``searchsorted`` against the sorted zero positions of the search
       buffer, and dst pointers are an exclusive cumulative sum of the
       segment lengths (exactly the scalar ``tail_len`` accumulator);
    3. one strided pass moves all tail bytes at once (ragged
       gather/scatter via ``repeat``/``cumsum`` index arithmetic).

    Records with small fixed regions are gathered with one fancy-index
    pass over the joined payloads.  Above ``_LOOP_GATHER_MIN`` fixed
    bytes that index matrix (8 B of ``int64`` per payload byte) costs
    more than it saves: the heads are instead memcpy'd row-by-row and
    only the var-length tails are joined, which also keeps the NUL scan
    off the fixed bytes (a float column full of 0.0 is all zero bytes).
    In tail-coordinate mode a live pointer into the fixed region (never
    produced by an encoder) punts to the scalar loop.

    Byte-identity with the scalar loop is preserved by *validating* in
    the same pass: a pointer outside its payload, or one whose first NUL
    at-or-after it falls outside the payload, is precisely the case where
    the scalar ``src.index`` raises — :meth:`convert_var` then returns
    ``None`` and the caller falls back to the scalar loop, which isolates
    the hostile frame per-record.
    """

    __slots__ = ("src_size", "dst_size", "_copies", "_elems", "_strings")

    def __init__(self, plan: ConversionPlan, copies, elems, strings):
        self.src_size = plan.wire.record_size
        self.dst_size = plan.native.record_size
        self._copies = copies
        self._elems = elems
        #: string ops in plan order: (dst_off, src_off, src ptr dtype,
        #: dst ptr dtype) — plan order is the scalar tail-append order.
        self._strings = strings

    def convert_var(self, payloads) -> list[memoryview] | None:
        """Convert ``payloads`` (one var-length record each); ``None`` if
        any record would make the scalar converter raise (caller falls
        back to the per-record loop, which isolates the bad frame).

        Returns zero-copy views into one freshly converted blob; callers
        that need owned bytes pay the memcpy themselves."""
        n = len(payloads)
        if n == 0:
            return []
        ssz, dsz = self.src_size, self.dst_size
        lens = np.fromiter(map(len, payloads), np.int64, count=n)
        if int(lens.min()) < ssz:
            return None
        loop_mode = ssz >= _LOOP_GATHER_MIN
        if loop_mode:
            # Heads row-by-row; only the tails are joined, so the NUL
            # scan never touches fixed bytes.  Segment coordinates are
            # tail-relative: live pointer floor is the fixed size.  The
            # copies go through raw memoryview slice assignment — per
            # record that is one wrap and two memcpys, several times
            # cheaper than ``np.frombuffer`` pairs.
            tlens = lens - ssz
            seg_limit = np.cumsum(tlens)
            seg_base = seg_limit - tlens
            src_flat = np.empty(n * ssz, _U8)
            src = src_flat.reshape(n, ssz)
            buf = np.empty(int(seg_limit[-1]), _U8)
            smv = src_flat.data
            tmv = buf.data
            o = b = 0
            for p in payloads:
                mv = memoryview(p)
                smv[o : o + ssz] = mv[:ssz]
                o += ssz
                if len(mv) > ssz:
                    e = b + len(mv) - ssz
                    tmv[b:e] = mv[ssz:]
                    b = e
            ptr_floor = ssz
        else:
            buf = np.frombuffer(b"".join(payloads), _U8)
            seg_limit = np.cumsum(lens)
            seg_base = seg_limit - lens
            src = buf[seg_base[:, None] + np.arange(ssz)]
            ptr_floor = 0

        dst = np.zeros((n, dsz), _U8)
        for d0, d1, s0, s1 in self._copies:
            dst[:, d0:d1] = src[:, s0:s1]
        with np.errstate(over="ignore", invalid="ignore"):
            for d0, d1, s0, s1, sdt, ddt in self._elems:
                dst[:, d0:d1] = src[:, s0:s1].view(sdt).astype(ddt).view(_U8)

        # -- pass 1: length/offset tables ------------------------------
        k = len(self._strings)
        ulens = lens.astype(np.uint64)
        rel = np.zeros((k, n), np.int64)
        live = np.zeros((k, n), bool)
        ok = np.ones((k, n), bool)
        for j, (_d0, s0, sdt, _ddt) in enumerate(self._strings):
            ptr = src[:, s0 : s0 + sdt.itemsize].view(sdt).reshape(n)
            lv = ptr != 0
            inb = ptr < ulens  # unsigned compare: huge pointers stay huge
            p64 = ptr.astype(np.int64)
            if ptr_floor:
                # wrapped/huge pointers went negative above; the floor
                # check also catches live pointers into the fixed head,
                # which tail coordinates cannot express
                inb &= p64 >= ptr_floor
            ok[j] = ~lv | inb
            r = p64 - ptr_floor
            r[~inb] = 0  # clamped; such records already failed `ok`
            rel[j] = r
            live[j] = lv
        absp = rel + seg_base[np.newaxis, :]
        zeros = np.flatnonzero(buf == 0)
        if zeros.size:
            pos = np.searchsorted(zeros, absp)
            found = pos < zeros.size
            end_abs = zeros[np.where(found, pos, 0)]
            ok &= ~live | (found & (end_abs < seg_limit[np.newaxis, :]))
        else:
            ok &= ~live
            end_abs = absp
        if not ok.all():
            return None
        seg_len = np.where(live, end_abs - absp + 1, 0)

        # dst pointer = native record size + tail bytes appended by the
        # *earlier* string ops of the same record (scalar tail_len).
        csum = np.cumsum(seg_len, axis=0)
        dst_ptr = np.where(live, dsz + csum - seg_len, 0)
        for j, (d0, _s0, _sdt, ddt) in enumerate(self._strings):
            w = ddt.itemsize
            dst[:, d0 : d0 + w] = dst_ptr[j].astype(ddt).view(_U8).reshape(n, w)

        # -- pass 2: one strided move of every tail byte ----------------
        tail_per_rec = seg_len.sum(axis=0)
        out_lens = dsz + tail_per_rec
        out_ends = np.cumsum(out_lens)
        out_starts = out_ends - out_lens
        out = np.empty(int(out_ends[-1]), _U8)
        starts_list = out_starts.tolist()
        total = int(tail_per_rec.sum())

        # Encoders append live segments back-to-back in op order, so a
        # well-formed record's segments tile its tail exactly: each live
        # pointer sits at the exclusive running sum of segment lengths
        # and every tail byte is referenced.  Then each tail is already
        # one contiguous, output-ordered run in ``buf`` and two memcpys
        # assemble the record — worth it once tails average a few dozen
        # bytes, where the per-byte repeat/arange index arithmetic below
        # (~25 ns/B here) loses to straight slice copies.
        contiguous = False
        if total >= 48 * n:
            # rel is tail-relative when ptr_floor == ssz, record-relative
            # when 0; the expected pointer is the exclusive running sum
            # of segment lengths in the same coordinates.
            expect = csum - seg_len + (ssz - ptr_floor)
            contiguous = bool((~live | (rel == expect)).all()) and bool(
                (tail_per_rec == lens - ssz).all()
            )
        blob = out.data
        dmv = dst.reshape(-1).data
        bmv = buf.data
        if contiguous:
            if not ptr_floor and dsz == ssz:
                # Framing unchanged (same record size, tails tile): the
                # joined input IS the output except for the heads — one
                # block memcpy, then re-scatter the converted heads.
                np.copyto(out, buf)
                out[out_starts[:, None] + np.arange(dsz)] = dst
                return [
                    blob[s : s + l] for s, l in zip(starts_list, out_lens.tolist())
                ]
            tail_at = (seg_base if ptr_floor else seg_base + ssz).tolist()
            d = 0
            for s, ts, tl in zip(starts_list, tail_at, tail_per_rec.tolist()):
                e = s + dsz
                blob[s:e] = dmv[d : d + dsz]
                d += dsz
                if tl:
                    blob[e : e + tl] = bmv[ts : ts + tl]
            return [blob[s : s + l] for s, l in zip(starts_list, out_lens.tolist())]

        if dsz >= _LOOP_GATHER_MIN:
            d = 0
            for s in starts_list:
                blob[s : s + dsz] = dmv[d : d + dsz]
                d += dsz
        else:
            out[out_starts[:, None] + np.arange(dsz)] = dst
        seg_l = seg_len.T.ravel()  # record-major: tails stay in record order
        if total:
            seg_s = absp.T.ravel()
            seg_id = np.repeat(np.arange(n * k), seg_l)
            seg_cum = np.cumsum(seg_l)
            within = np.arange(total) - np.repeat(seg_cum - seg_l, seg_l)
            tail_bytes = buf[seg_s[seg_id] + within]
            tail_cum = np.cumsum(tail_per_rec)
            tpos = np.repeat(out_starts + dsz, tail_per_rec) + (
                np.arange(total) - np.repeat(tail_cum - tail_per_rec, tail_per_rec)
            )
            out[tpos] = tail_bytes
        return [blob[s : s + l] for s, l in zip(starts_list, out_lens.tolist())]


def _op_dtypes(op, plan: ConversionPlan):
    """(src dtype, dst dtype) for one liftable element op, or None."""
    se, de = plan.src_endian, plan.dst_endian
    k = op.kind
    if k is OpKind.SWAP:
        # The scalar lowering swaps through unsigned codes whatever the
        # element kind — raw byte reversal, bit-pattern preserving.
        return (
            np_dtype(se, PrimKind.UNSIGNED, op.src_size),
            np_dtype(de, PrimKind.UNSIGNED, op.dst_size),
        )
    if k is OpKind.CVT_INT:
        kind = PrimKind.INTEGER if op.signed else PrimKind.UNSIGNED
        return (np_dtype(se, kind, op.src_size), np_dtype(de, kind, op.dst_size))
    if k is OpKind.CVT_FLOAT:
        return (
            np_dtype(se, PrimKind.FLOAT, op.src_size),
            np_dtype(de, PrimKind.FLOAT, op.dst_size),
        )
    if k is OpKind.CVT_INT_FLOAT:
        kind = PrimKind.INTEGER if op.signed else PrimKind.UNSIGNED
        return (
            np_dtype(se, kind, op.src_size),
            np_dtype(de, PrimKind.FLOAT, op.dst_size),
        )
    return None


def build_batch_converter(plan: ConversionPlan) -> BatchConverter | None:
    """A :class:`BatchConverter` for ``plan``, or ``None`` if the plan is
    not expressible as fixed-stride column operations (strings, VAX
    floats, float->int casts) — callers then loop the scalar converter."""
    if plan.has_strings or plan.has_vax_floats:
        return None
    copies: list[tuple[int, int, int, int]] = []
    elems: list[tuple] = []
    for op in plan.ops:
        if op.kind not in _LIFTABLE:
            return None
        if op.kind is OpKind.ZERO:
            continue  # destination matrix is freshly zeroed
        if op.kind is OpKind.COPY:
            copies.append((op.dst_off, op.dst_off + op.dst_size, op.src_off, op.src_off + op.src_size))
            continue
        if op.kind is OpKind.CHARS:
            m = min(op.src_size, op.dst_size)
            copies.append((op.dst_off, op.dst_off + m, op.src_off, op.src_off + m))
            continue
        dtypes = _op_dtypes(op, plan)
        if dtypes is None or dtypes[0] is None or dtypes[1] is None:
            return None
        sdt, ddt = dtypes
        elems.append(
            (
                op.dst_off,
                op.dst_off + op.dst_size * op.count,
                op.src_off,
                op.src_off + op.src_size * op.count,
                sdt,
                ddt,
            )
        )
    return BatchConverter(plan, tuple(copies), tuple(elems))


def build_var_batch_converter(plan: ConversionPlan) -> VarBatchConverter | None:
    """A :class:`VarBatchConverter` for a string-bearing ``plan``, or
    ``None`` when some *other* op in the plan is not liftable (VAX
    floats, float->int casts) — callers then loop the scalar converter."""
    if not plan.has_strings or plan.has_vax_floats:
        return None
    if plan.wire.record_size > _VAR_BATCH_MAX_HEAD:
        return None
    copies: list[tuple[int, int, int, int]] = []
    elems: list[tuple] = []
    strings: list[tuple] = []
    for op in plan.ops:
        if op.kind is OpKind.STRING:
            sdt = np_dtype(plan.src_endian, PrimKind.UNSIGNED, op.src_size)
            ddt = np_dtype(plan.dst_endian, PrimKind.UNSIGNED, op.dst_size)
            if sdt is None or ddt is None:
                return None
            strings.append((op.dst_off, op.src_off, sdt, ddt))
            continue
        if op.kind not in _LIFTABLE:
            return None
        if op.kind is OpKind.ZERO:
            continue
        if op.kind is OpKind.COPY:
            copies.append((op.dst_off, op.dst_off + op.dst_size, op.src_off, op.src_off + op.src_size))
            continue
        if op.kind is OpKind.CHARS:
            m = min(op.src_size, op.dst_size)
            copies.append((op.dst_off, op.dst_off + m, op.src_off, op.src_off + m))
            continue
        dtypes = _op_dtypes(op, plan)
        if dtypes is None or dtypes[0] is None or dtypes[1] is None:
            return None
        sdt, ddt = dtypes
        elems.append(
            (
                op.dst_off,
                op.dst_off + op.dst_size * op.count,
                op.src_off,
                op.src_off + op.src_size * op.count,
                sdt,
                ddt,
            )
        )
    return VarBatchConverter(plan, tuple(copies), tuple(elems), tuple(strings))
