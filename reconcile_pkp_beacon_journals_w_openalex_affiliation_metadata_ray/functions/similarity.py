"""From-scratch string-similarity kernels.

The reference scores pairs with rapidfuzz's ``fuzz.ratio``
(`check...openalex.py:163,232`), which is *InDel* (insert/delete only,
i.e. LCS-based) normalized similarity x100 — NOT plain Levenshtein.
``indel_ratio`` here reproduces that definition exactly; it is the
score used wherever the reference used ``fuzz.ratio``.

Additional matchers required by the north star (BASELINE.json):
Jaro-Winkler, token-set Jaccard, plain Levenshtein. All pure Python,
but the InDel core uses Hyyrö's bit-parallel LCS so a pair of typical
name-length strings costs a handful of big-int ops rather than an
O(n*m) DP.
"""

from __future__ import annotations


class BoundedCache(dict):
    """Per-worker memo with an item cap AND a byte-ish cost cap (an
    item count alone doesn't bound memory when keys are whole document
    texts). Cleared wholesale at either cap — recurrence windows in
    batch workloads are short, so wholesale reset beats LRU churn."""

    def __init__(self, max_items: int = 500_000, max_cost: int = 256 << 20):
        super().__init__()
        self.max_items = max_items
        self.max_cost = max_cost
        self.cost = 0

    def set(self, key, value, cost: int = 0):
        """Insert a precomputed value under the same cap discipline as
        get_or_build (wholesale clear at either cap)."""
        if len(self) >= self.max_items or self.cost >= self.max_cost:
            self.clear()
            self.cost = 0
        self[key] = value
        self.cost += cost

    def get_or_build(self, key, builder, cost: int = 0):
        v = super().get(key)
        if v is None and key not in self:
            if len(self) >= self.max_items or self.cost >= self.max_cost:
                self.clear()
                self.cost = 0
            v = builder()
            self[key] = v
            self.cost += cost
        return v


def set_jaccard(sa, sb) -> float:
    """Jaccard over two prebuilt sets; both-empty -> 1.0."""
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    union = len(sa) + len(sb) - inter
    return inter / union if union else 1.0


_PM_CACHE = BoundedCache(max_items=500_000, max_cost=64 << 20)


def lcs_length(a: str, b: str) -> int:
    """Length of the longest common subsequence (bit-parallel, Hyyrö).

    Runs in O(len(b) * ceil(len(a)/wordsize)) using Python big ints as
    the bit vector, so it is effectively O(len(b)) for name-length
    strings.
    """
    if not a or not b:
        return 0
    if a == b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a
    m = len(a)
    mask = (1 << m) - 1
    # memoize the pattern bitmap of the shorter string: in pairwise
    # scoring a record's names recur across its ~20 candidate pairs
    def _build():
        pm_: dict[str, int] = {}
        bit = 1
        for ch in a:
            pm_[ch] = pm_.get(ch, 0) | bit
            bit <<= 1
        return pm_

    pm = _PM_CACHE.get_or_build(a, _build, cost=len(a) * 80)
    v = mask
    for ch in b:
        p = pm.get(ch, 0)
        u = v & p
        v = ((v + u) | (v - u)) & mask
    # zeros in v = LCS length
    return m - bin(v).count("1")


def indel_distance(a: str, b: str) -> int:
    """Insert/delete-only edit distance = len(a)+len(b)-2*LCS(a,b)."""
    return len(a) + len(b) - 2 * lcs_length(a, b)


def indel_ratio(a: str, b: str) -> float:
    """Normalized InDel similarity x100 — parity with rapidfuzz
    ``fuzz.ratio``. Two empty strings score 100.0; empty vs non-empty
    scores 0.0."""
    if a == b:
        return 100.0  # covers the both-empty case too
    total = len(a) + len(b)
    if total == 0:
        return 100.0
    return 100.0 * (1.0 - indel_distance(a, b) / total)


# pattern string -> 128-slot uint64 char-mask array (ASCII fast path):
# pattern bitmaps become ONE numpy fancy-index per subject string
# instead of a per-character Python dict get
_PM_ARR_CACHE = BoundedCache(max_items=200_000, max_cost=256 << 20)


def _build_pm_arr(a: str, np):
    """128-slot char->bitmask array for pattern ``a`` (accumulated in
    Python ints — numpy scalar ``|=`` is ~20x slower)."""
    slots = [0] * 128
    for pos, ch in enumerate(a):
        slots[ord(ch)] |= 1 << pos
    return np.array(slots, dtype=np.uint64)


def indel_ratios_bulk(pairs: list) -> list:
    """InDel ratios for MANY (a, b) string pairs at once, bit-exact
    with :func:`indel_ratio`: the pairs are interned by one Arrow
    ``dictionary_encode`` (whole-string compare, NUL-exact) and scored
    by :func:`indel_ratios_codes`."""
    import numpy as np
    import pyarrow as pa

    n = len(pairs)
    enc = pa.array([a for a, _ in pairs] + [b for _, b in pairs],
                   pa.string()).dictionary_encode()
    codes = enc.indices.to_numpy().astype(np.int64)
    return indel_ratios_codes(enc.dictionary, codes[:n], codes[n:]).tolist()


# bitmap slots per pattern: the 128 ASCII codes plus a padding slot. Only
# the positions past a pattern's end set bits there, bits outside the
# pattern's mask, so a padded subject cell is a DP no-op even for a
# pattern that holds a NUL
_PAD = 128


def indel_ratios_codes(strings, a, b):
    """InDel ratios (float64 array) of the string pairs
    ``(strings[a[i]], strings[b[i]])``, bit-exact with
    :func:`indel_ratio`. ``strings`` is an Arrow string array (a slice
    or repeated strings are fine), ``a`` / ``b`` integer code arrays.

    Equal codes score 100 and an empty side 0 (both empty 100) without
    the DP. The rest runs Hyyrö's bit-parallel LCS as numpy uint64
    vector steps across the pairs, one ``(v+u)|(v-u)`` step per subject
    character, with the shorter string as the pattern. Lengths come
    from the offsets buffer and character codes straight from the data
    buffer (padded with ``_PAD``); the distinct patterns' bitmaps are
    built in one pass, and each chunk's bitmask rows are gathered
    transposed (contiguous row reads measured ~2x over strided ones).
    Chunks run in subject-length order, so a chunk's DP pays its own
    longest subject. Non-ASCII pairs and patterns over 63 chars (the
    uint64 carry budget) take the scalar kernel; only their strings
    become Python objects."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if isinstance(strings, pa.ChunkedArray):
        strings = strings.combine_chunks()
    _, obuf, dbuf = strings.buffers()
    offs = np.frombuffer(obuf, np.int32)[strings.offset: strings.offset + len(strings) + 1]
    slen = np.diff(offs)
    data = np.append(np.frombuffer(dbuf, np.uint8) if dbuf else [], _PAD).astype(np.uint8)
    ascii_ = pc.string_is_ascii(strings).fill_null(True).to_numpy(zero_copy_only=False)

    def _chars(codes, width):
        # (len(codes), width) char-code matrix, _PAD past each end
        j = np.arange(width, dtype=np.int32)
        return data[np.where(j < slen[codes][:, None], offs[codes][:, None] + j, len(data) - 1)]

    swap = slen[a] > slen[b]
    pat, sub = np.where(swap, b, a), np.where(swap, a, b)
    la, lb = slen[pat], slen[sub]
    out = np.where((la + lb == 0) | (a == b), 100.0, 0.0)
    todo = (a != b) & (la > 0)
    fast = todo & (la <= 63) & ascii_[pat] & ascii_[sub]
    slow = np.flatnonzero(todo & ~fast)
    if len(slow):
        need = np.unique(np.concatenate([a[slow], b[slow]]))
        strs = dict(zip(need.tolist(), strings.take(pa.array(need)).to_pylist()))
        out[slow] = [indel_ratio(strs[i], strs[j])
                     for i, j in zip(a[slow].tolist(), b[slow].tolist())]
    idx = np.flatnonzero(fast)
    if not len(idx):
        return out

    # bitmaps of the distinct patterns: slot c of row r has bit j set
    # where pattern r's j-th char is c (the bits of one row are
    # distinct, so adding them is OR-ing them)
    pats, pcode = np.unique(pat[idx], return_inverse=True)
    width = int(slen[pats].max())
    pm = np.zeros((len(pats), _PAD + 1), dtype=np.uint64)
    np.add.at(pm, (np.arange(len(pats))[:, None], _chars(pats, width)),
              np.uint64(1) << np.arange(width, dtype=np.uint64))
    pm_flat = pm.ravel()
    # int32 gather indices are measurably faster; int64 only when the
    # distinct-pattern space overflows them
    itype = np.int64 if pm.size > 2**31 - 1 else np.int32
    prow = (pcode * (_PAD + 1)).astype(itype)
    la, sub, lb = la[idx].astype(np.uint64), sub[idx], lb[idx]
    order = np.argsort(lb, kind="stable")
    for lo in range(0, len(order), 8192):
        sel = order[lo: lo + 8192]
        lmax = int(lb[sel[-1]])
        gidx = _chars(sub[sel], lmax).astype(itype) + prow[sel][:, None]
        pmxT = np.take(pm_flat, np.ascontiguousarray(gidx.T))
        masks = (np.uint64(1) << la[sel]) - np.uint64(1)
        v = masks.copy()
        for p in pmxT:
            u = v & p
            # v <= 2^63-1 and u <= v, so v+u fits uint64; u's bits are
            # a subset of v's, so v-u never underflows. Padding cells
            # give u=0 -> a no-op, so ragged lengths need no masking.
            v = ((v + u) | (v - u)) & masks
        ones = np.unpackbits(v.view(np.uint8)).reshape(len(sel), -1).sum(axis=1)
        lcs = la[sel].astype(np.int64) - ones.astype(np.int64)
        total = la[sel].astype(np.int64) + lb[sel]
        # same expression order as indel_ratio -> bit-identical floats
        out[idx[sel]] = 100.0 * (1.0 - (total - 2 * lcs) / total)
    return out


def levenshtein(a: str, b: str) -> int:
    """Classic Levenshtein distance (substitutions allowed), two-row DP."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a
    prev = list(range(len(a) + 1))
    for j, cb in enumerate(b, 1):
        cur = [j]
        for i, ca in enumerate(a, 1):
            cur.append(min(prev[i] + 1, cur[i - 1] + 1, prev[i - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def levenshtein_bulk(pairs: list) -> list:
    """Levenshtein distances for MANY (a, b) pairs at once — bit-exact
    with :func:`levenshtein`, via Myers' bit-parallel algorithm (Myers
    1999, public) run as numpy uint64 vector steps ACROSS the batch:
    one (Eq&Pv)+Pv carry step per text POSITION for the whole chunk.
    The shorter string is the pattern; its 128-slot char-mask array is
    cached per worker (``_PM_ARR_CACHE``). Ragged text lengths are
    handled with an active mask (a finished pair's registers freeze —
    unlike the LCS kernel, a zero Eq column is NOT a no-op for
    Levenshtein). Pairs that are non-ASCII or whose shorter string
    exceeds 63 chars fall back to the scalar DP."""
    import numpy as np

    n = len(pairs)
    out_np = np.zeros(n, dtype=np.int64)
    idxs: list = []
    lbs: list = []
    pcodes: list = []
    subs: list = []
    pat_code: dict = {}
    pats: list = []
    pget = pat_code.get
    for i, (a, b) in enumerate(pairs):
        if a == b:
            continue
        if not a or not b:
            out_np[i] = len(a) or len(b)
            continue
        if len(a) > len(b):
            a, b = b, a
        if len(a) <= 63 and a.isascii() and b.isascii():
            c = pget(a)
            if c is None:
                c = len(pats)
                pat_code[a] = c
                pats.append(a)
            pcodes.append(c)
            idxs.append(i)
            subs.append(b)
            lbs.append(len(b))
        else:
            out_np[i] = levenshtein(a, b)
    if not idxs:
        return out_np.tolist()
    # interned patterns, one joined subject buffer and a transposed
    # bitmask gather (contiguous row reads measured ~2x over strided)
    cache = _PM_ARR_CACHE
    cget = cache.get
    pm_rows = [None] * len(pats)
    for c, a in enumerate(pats):
        arr = cget(a)
        if arr is None:
            arr = _build_pm_arr(a, np)
            cache.set(a, arr, cost=1100)
        pm_rows[c] = arr
    pm_flat = np.concatenate(pm_rows)
    pat_la = np.fromiter(map(len, pats), dtype=np.uint64, count=len(pats))
    big = np.frombuffer(("".join(subs)).encode("ascii") + b"\x00",
                        dtype=np.uint8)
    lb_all = np.array(lbs, dtype=np.int64)
    off_all = np.concatenate(([0], np.cumsum(lb_all)[:-1]))
    sentinel = len(big) - 1
    pcode_all = np.array(pcodes, dtype=np.int64)
    idx_all = np.array(idxs, dtype=np.int64)
    itype = np.int64 if len(pats) * 128 > 2**31 - 128 else np.int32
    order = np.argsort(lb_all, kind="stable")
    take = np.take
    one = np.uint64(1)
    for lo in range(0, len(order), 8192):
        sel = order[lo : lo + 8192]
        k = len(sel)
        lb = lb_all[sel]
        lmax = int(lb[-1])
        off = off_all[sel]
        j = np.arange(lmax, dtype=np.int64)
        cell = np.where(j[None, :] < lb[:, None],
                        off[:, None] + j[None, :], sentinel)
        codes = take(big, cell)
        gidx = codes.astype(itype)
        gidx += (pcode_all[sel] * 128).astype(itype)[:, None]
        la = pat_la[pcode_all[sel]]
        pmxT = take(pm_flat, np.ascontiguousarray(gidx.T))
        hb = one << (la - one)  # high bit at pattern position m-1
        pv = np.full(k, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
        mv = np.zeros(k, dtype=np.uint64)
        score = la.astype(np.int64)
        # carries out of bit m-1 live in bits >= m and only propagate
        # UPWARD (add) — they never feed back below m, so unmasked
        # 64-bit registers are exact for m <= 63 (the shifted-in Ph
        # bit needs m+1). A zero Eq column is NOT a no-op here, so a
        # finished pair's registers FREEZE behind the active mask.
        for jj in range(lmax):
            act = jj < lb
            eq = pmxT[jj]
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)
            mh = pv & xh
            delta = ((ph & hb) != 0).astype(np.int64) - (
                (mh & hb) != 0).astype(np.int64)
            ph = (ph << one) | one
            mh = mh << one
            npv = mh | ~(xv | ph)
            nmv = ph & xv
            score = np.where(act, score + delta, score)
            pv = np.where(act, npv, pv)
            mv = np.where(act, nmv, mv)
        out_np[idx_all[sel]] = score
    return out_np.tolist()


def jaro(a: str, b: str) -> float:
    """Jaro similarity in [0, 1]."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    match_a = [False] * la
    match_b = [False] * lb
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not match_b[j] and b[j] == ca:
                match_a[i] = True
                match_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    k = 0
    for i in range(la):
        if match_a[i]:
            while not match_b[k]:
                k += 1
            if a[i] != b[k]:
                transpositions += 1
            k += 1
    t = transpositions // 2
    return (matches / la + matches / lb + (matches - t) / matches) / 3.0


def jaro_winkler(a: str, b: str, prefix_weight: float = 0.1, max_prefix: int = 4) -> float:
    """Jaro-Winkler similarity in [0, 1] (standard boost threshold 0.7)."""
    j = jaro(a, b)
    if j <= 0.7:
        return j
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix >= max_prefix:
            break
        prefix += 1
    return j + prefix * prefix_weight * (1.0 - j)


def ngram_set(text: str, n: int = 3) -> set:
    """Character n-gram shingle set (no padding); short strings yield
    the whole string as one shingle."""
    if len(text) <= n:
        return {text} if text else set()
    return {text[i : i + n] for i in range(len(text) - n + 1)}


def ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    """Jaccard similarity of character n-gram sets, in [0, 1]."""
    return set_jaccard(ngram_set(a, n), ngram_set(b, n))
