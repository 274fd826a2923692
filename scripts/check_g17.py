"""Check evolve's numpy formatter against Python's "%.17g" on 10**6 doubles.

    PYTHONPATH=src python scripts/check_g17.py

Half the doubles are raw 64-bit patterns. The other half have magnitudes
log-uniform on [1e-320, 1e308] and random signs: 52 random mantissa bits
times a power of two built from its bit pattern, so the only float
operation is one IEEE multiplication. The seed is fixed and the draws are
integers, so every CPU checks the same doubles, and the formatter's
digits come from IEEE +, -, * and floor alone (log10 is only a guess it
corrects). Exits 1 at the first value whose text differs, and prints the
share of values the formatter handed to Python: those outside its range
[1e-280, 1e280), not finite or 0 aside, and those near a rounding tie.
"""

import sys

import numpy as np

from wigner_tunnel import cli

N = 10 ** 6
SEED = 20_171_027


def doubles(rng, n):
    raw = rng.integers(0, 2 ** 64, n // 2, dtype=np.uint64).view(np.float64)
    m = n - n // 2
    mantissa = (rng.integers(0, 2 ** 52, m, dtype=np.uint64)
                | np.uint64(1023 << 52)).view(np.float64)             # in [1, 2)
    j = rng.integers(-1063, 1023, m)                                  # 2**-1063 > 1e-320
    power = np.where(j >= -1022, (j + 1023) << 52,                   # normal 2**j
                     np.int64(1) << np.clip(j + 1074, 0, 62)).view(np.float64)
    sign = np.where(rng.integers(0, 2, m) == 1, -1.0, 1.0)
    return np.concatenate([raw, sign * mantissa * power])


def main():
    x = doubles(np.random.default_rng(SEED), N)
    slow = 0
    for start in range(0, N, cli._BLOCK):
        block = x[start:start + cli._BLOCK]
        fields, fell_back = cli._g17_fields(block)
        slow += fell_back.size
        texts = [row.tobytes().replace(cli._PAD, b"").decode() for row in fields]
        for v, text in zip(block.tolist(), texts):
            if text != "%.17g" % v:
                print(f"mismatch at {v!r} ({np.float64(v).view(np.uint64):#018x}): "
                      f"{text!r} != {'%.17g' % v!r}")
                return 1
    a = np.abs(x)
    outside = int(np.count_nonzero(~((a >= 1e-280) & (a < 1e280)) & (a != 0)))
    print(f"{N} doubles match %.17g. Python formatted {slow} ({slow / N:.3%}): "
          f"{outside} outside the range or not finite, {slow - outside} near a tie "
          f"({(slow - outside) / N:.4%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
