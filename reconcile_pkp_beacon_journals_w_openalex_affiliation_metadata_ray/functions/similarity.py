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


# per-worker (a, b) -> ratio memo. Pairwise scoring re-compares the
# same string combos constantly: a block of k same-name records scores
# O(k^2) pairs over nearly the same handful of author/institution
# strings, and institution strings draw from a bounded global pool.
_RATIO_CACHE = BoundedCache(max_items=2_000_000, max_cost=256 << 20)


def indel_ratio_cached(a: str, b: str) -> float:
    """Memoized symmetric :func:`indel_ratio` (per-worker bounded cache).

    Keys are ORDERED TUPLES, not joined strings: Python strings memoize
    their hash, so a tuple key re-hashes two cached values (~20 ns)
    where a freshly concatenated key string paid a full siphash of its
    bytes on EVERY lookup — measurable at millions of lookups per
    batch. (Tuples also sidestep any separator-collision question.)"""
    if a == b:
        return 100.0
    key = (a, b) if a <= b else (b, a)
    v = _RATIO_CACHE.get(key)
    if v is None:
        v = indel_ratio(a, b)
        if len(_RATIO_CACHE) >= _RATIO_CACHE.max_items \
                or _RATIO_CACHE.cost >= _RATIO_CACHE.max_cost:
            _RATIO_CACHE.clear()
            _RATIO_CACHE.cost = 0
        _RATIO_CACHE[key] = v
        _RATIO_CACHE.cost += len(a) + len(b) + 48
    return v


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
    """InDel ratios for MANY (a, b) string pairs at once — bit-exact
    with :func:`indel_ratio` (hash-checked on multi-million-combo real
    workloads), with every per-pair cost pushed out of Python:

    - patterns are dict-INTERNED during classification, so the bitmap
      cache is consulted once per DISTINCT pattern, not once per pair
      (the old per-row closure + get_or_build was ~25% of the kernel);
    - subjects are encoded as ONE joined ascii buffer; each chunk's
      (k, lmax) code matrix is a single vectorized gather with padded
      cells pointing at a sentinel NUL (pattern slot 0 is never set,
      so padding steps are DP no-ops);
    - the Hyyrö DP runs as numpy uint64 vector steps across the chunk
      — one (v+u)|(v-u) per character POSITION — over a TRANSPOSED
      contiguous bitmask gather (strided column reads measured ~2x);
    - results scatter back through one numpy fancy assignment.

    Chunks are processed in subject-length order so a chunk's DP pays
    its own lmax, not the batch maximum. Pairs that are non-ASCII or
    whose shorter string exceeds 63 chars (the uint64 carry budget)
    fall back to the scalar kernel. Measured 2.5x over the previous
    per-row-loop version on the sf0.3 scoring combo stream (5.4 ->
    2.1 us/combo). This is the scoring stage's hot kernel.
    """
    import numpy as np

    n = len(pairs)
    out = np.zeros(n, dtype=np.float64)
    idxs: list = []
    lbs: list = []
    pcodes: list = []
    subs: list = []
    pat_code: dict = {}
    pats: list = []
    pget = pat_code.get
    for i, (a, b) in enumerate(pairs):
        if a == b:
            out[i] = 100.0  # covers both-empty
            continue
        if not a or not b:
            # unequal with one side empty -> distance = total
            out[i] = 0.0 if (a or b) else 100.0
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
            out[i] = indel_ratio(a, b)
    if not idxs:
        return out.tolist()

    # bitmap matrix over the batch's DISTINCT patterns (cross-batch
    # cache serves repeats)
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
    # int32 gather indices are measurably faster; fall back to int64
    # only if the distinct-pattern space overflows them
    itype = np.int64 if len(pats) * 128 > 2**31 - 128 else np.int32
    order = np.argsort(lb_all, kind="stable")
    take = np.take
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
        masks = (np.uint64(1) << la) - np.uint64(1)
        v = masks.copy()
        pmxT = take(pm_flat, np.ascontiguousarray(gidx.T))
        for jj in range(lmax):
            p = pmxT[jj]
            u = v & p
            # v <= 2^63-1 and u <= v, so v+u fits uint64; u's bits are
            # a subset of v's, so v-u never underflows. Padding cells
            # are p=0 -> a no-op, so ragged lengths need no masking.
            v = ((v + u) | (v - u)) & masks
        ones = np.unpackbits(v.view(np.uint8)).reshape(k, -1).sum(axis=1)
        lcs = la.astype(np.int64) - ones.astype(np.int64)
        total = la.astype(np.int64) + lb
        # same expression order as indel_ratio -> bit-identical floats
        out[idx_all[sel]] = 100.0 * (1.0 - (total - 2 * lcs) / total)
    return out.tolist()


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
    shared with the InDel kernel's cache. Ragged text lengths are
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
    # same interned-pattern / joined-buffer / transposed-gather layout
    # as indel_ratios_bulk (see its docstring for the measured wins)
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


def token_jaccard(a: str, b: str) -> float:
    """Jaccard similarity of whitespace token sets, in [0, 1].
    Two empty token sets score 1.0."""
    return set_jaccard(set(a.split()), set(b.split()))


def ngram_set(text: str, n: int = 3) -> set:
    """Character n-gram shingle set (no padding); short strings yield
    the whole string as one shingle."""
    if len(text) <= n:
        return {text} if text else set()
    return {text[i : i + n] for i in range(len(text) - n + 1)}


def ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    """Jaccard similarity of character n-gram sets, in [0, 1]."""
    return set_jaccard(ngram_set(a, n), ngram_set(b, n))
