"""NumPy helpers for bulk element conversion.

The DCG backend lowers long homogeneous element runs onto numpy: a single
``frombuffer -> byteswap/astype -> tobytes`` pipeline runs at C speed,
which is the Python-world equivalent of the tight native loops Vcode's
generated code achieves in the paper.

The struct/numpy crossover was measured on CI-class x86-64 hardware with
``benchmarks/bench_ablation_numpy_threshold.py`` (best-of-7, 2000 inner
iterations per point): for a ``double[n]`` byte-order swap the batched
struct pack/unpack wins up to n ~ 22 (n=16: struct 0.94 us vs numpy
1.11 us) and numpy wins from n ~ 24 on, staying flat (~1.1 us) out to
8192 elements while struct grows linearly; for an int32 -> int64
widening run struct's advantage stretches further, to n ~ 48 (n=32:
struct 0.94 us vs numpy 1.14 us), because numpy pays an extra temporary
for the cross-dtype astype.  The threshold below sits between the two
measured crossovers, so neither lowering is ever more than ~20% off its
op-specific optimum.
"""

from __future__ import annotations

import numpy as np

from repro.abi.types import NUMPY_CODES, PrimKind

#: Element counts at or above this use numpy in generated converters.
#: Measured crossover band: ~22 (8-byte swaps) to ~48 (widening int
#: converts); 32 splits it — see the module docstring for the numbers.
NUMPY_THRESHOLD = 32


def np_dtype(endian: str, kind: PrimKind, size: int) -> np.dtype | None:
    """numpy dtype for an element, or None if not representable."""
    code = NUMPY_CODES.get((kind, size))
    if code is None or code.startswith("S"):
        return None
    prefix = ">" if endian in (">", "big") else "<"
    return np.dtype(prefix + code)


def convert_run(
    src,
    src_off: int,
    count: int,
    src_dtype: np.dtype,
    dst_dtype: np.dtype,
) -> bytes:
    """General size/kind conversion of a homogeneous run, vectorized.

    ``astype`` reproduces C conversion semantics: truncation on integer
    narrowing, sign extension on widening, saturation-free wraparound,
    inf on float narrowing overflow.
    """
    arr = np.frombuffer(src, dtype=src_dtype, count=count, offset=src_off)
    with np.errstate(over="ignore", invalid="ignore"):
        return arr.astype(dst_dtype).tobytes()
