"""The correctness oracle: every delivered record against its reference.

``records_equal`` is the authority for value dicts.  It compares arrays
through ``np.allclose``, which costs more than decoding the record, so
an exact check runs first: a record whose every array has the dtype the
receiver's layout gives it and the reference's exact bytes, and whose
every other field compares equal, is equal; anything else is decided by
``records_equal``.  Views are checked by the bytes of their fixed part
against the reference's native image, plus a few scalar fields.
"""

from __future__ import annotations

import numpy as np

from repro.abi import StructLayout, records_equal
from repro.abi.types import NUMPY_CODES

#: scalar fields a lend-mode consumer reads from every view
VIEW_FIELDS = ("node_id", "timestep", "mass")


class _Array:
    __slots__ = ("dtype", "data")

    def __init__(self, dtype: np.dtype, data: bytes) -> None:
        self.dtype = dtype
        self.data = data


class DictOracle:
    """Checks decoded dicts of one record type on one receiving layout."""

    def __init__(self, refs: list[dict], layout: StructLayout) -> None:
        self.refs = refs
        self._exact = [self._canonical(r, layout) for r in refs]

    @staticmethod
    def _canonical(ref: dict, layout: StructLayout) -> dict:
        out = {}
        for name, value in ref.items():
            if isinstance(value, np.ndarray):
                f = layout[name]
                dtype = np.dtype(layout.machine.numpy_endian + NUMPY_CODES[(f.kind, f.elem_size)])
                value = _Array(dtype, np.asarray(value, dtype=dtype).tobytes())
            out[name] = value
        return out

    def check(self, i: int, got) -> bool:
        if not isinstance(got, dict):
            return False
        return self._exact_equal(self._exact[i], got) or records_equal(self.refs[i], got)

    @staticmethod
    def _exact_equal(exact: dict, got: dict) -> bool:
        if len(got) != len(exact):
            return False
        for name, want in exact.items():
            value = got.get(name)
            if type(want) is _Array:
                if (
                    not isinstance(value, np.ndarray)
                    or value.dtype != want.dtype
                    or value.tobytes() != want.data
                ):
                    return False
            elif value != want:
                return False
        return True


class ViewOracle:
    """Checks lend-mode views against the native image on the receiver."""

    def __init__(self, refs: list[dict], natives: list[bytes], layout: StructLayout) -> None:
        size = layout.size
        self._fixed = [n[:size] for n in natives]
        self._fields = [tuple(r[f] for f in VIEW_FIELDS) for r in refs]

    def check(self, i: int, view) -> bool:
        try:
            # bytes(): memoryview == bytes compares element by element
            return bytes(view.raw_bytes()) == self._fixed[i] and all(
                view[f] == want for f, want in zip(VIEW_FIELDS, self._fields[i])
            )
        except (AttributeError, KeyError, TypeError, ValueError):
            return False
