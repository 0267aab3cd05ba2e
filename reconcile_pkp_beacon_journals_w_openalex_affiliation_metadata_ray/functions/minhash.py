"""MinHash signatures + LSH banding, SimHash, rolling-hash fingerprints.

No analog exists in the reference (its only candidate generation is the
hostname equality semi-join, `main.rs:216-260`); these are the scale
path for name/text blocking and near-duplicate detection mandated by
the north star. Vectorized with numpy: a batch of documents is hashed
in one matmul-shaped pass, not per-row Python loops.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

_MERSENNE = (1 << 61) - 1


def _hash64(token: str) -> int:
    """Stable 64-bit hash of a token (blake2b, deterministic across runs,
    unlike Python's salted hash())."""
    return struct.unpack("<Q", hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest())[0]


def _perm_params(num_perm: int, seed: int = 42):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


def _mulmod_p(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact (a * x) mod (2**61 - 1) for uint64 arrays (broadcasting).

    A bare numpy ``a * x % p`` wraps the product mod 2**64 BEFORE the
    prime mod, which silently degrades the universal-hash guarantee.
    Split both operands into 32-bit limbs; reduce with 2**64 = 8 and
    2**61 = 1 (mod p). Every intermediate stays < 2**64.
    """
    p = np.uint64(_MERSENNE)
    mask32 = np.uint64(0xFFFFFFFF)
    a_hi, a_lo = a >> np.uint64(32), a & mask32
    x_hi, x_lo = x >> np.uint64(32), x & mask32
    # a*x = a_hi*x_hi*2^64 + (a_hi*x_lo + a_lo*x_hi)*2^32 + a_lo*x_lo
    t1 = ((a_hi * x_hi) % p) * np.uint64(8) % p          # *2^64 ≡ *8
    mid = ((a_hi * x_lo) % p + (a_lo * x_hi) % p) % p
    # mid*2^32: mid = m_hi*2^29 + m_lo; m_hi*2^61 ≡ m_hi (mod p)
    m_hi, m_lo = mid >> np.uint64(29), mid & np.uint64((1 << 29) - 1)
    t2 = (m_hi + (m_lo << np.uint64(32))) % p
    t3 = (a_lo * x_lo) % p
    return (t1 + t2 + t3) % p


class MinHasher:
    """num_perm-permutation MinHash over character-shingle (or token)
    sets. Construct once per actor (holds the permutation parameters),
    call per batch."""

    _CACHE_MAX = 2_000_000  # ~1 GiB ceiling at 64 perms; shingle space
    # is tiny in practice (3-grams of normalized text), so hit rate ≈ 1

    def __init__(self, num_perm: int = 64, shingle: int = 3, seed: int = 42):
        self.num_perm = num_perm
        self.shingle = shingle
        self.a, self.b = _perm_params(num_perm, seed)
        # shingle -> its (a*x+b) mod p vector; the blake2b + 128-bit
        # mod-p arithmetic runs once per DISTINCT shingle per worker,
        # signatures become a gather + columnwise min
        self._vec_cache: dict = {}

    def shingles(self, text: str) -> list:
        n = self.shingle
        if len(text) <= n:
            return [text] if text else []
        return list({text[i : i + n] for i in range(len(text) - n + 1)})

    def _shingle_vec(self, s: str) -> np.ndarray:
        v = self._vec_cache.get(s)
        if v is None:
            x = np.uint64(_hash64(s) % _MERSENNE)
            v = (_mulmod_p(self.a, x) + self.b) % np.uint64(_MERSENNE)
            if len(self._vec_cache) >= self._CACHE_MAX:
                self._vec_cache.clear()
            self._vec_cache[s] = v
        return v

    def signature(self, text: str) -> np.ndarray:
        """MinHash signature as uint64[num_perm]; empty text -> all MAX."""
        sh = self.shingles(text)
        if not sh:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        return np.minimum.reduce([self._shingle_vec(s) for s in sh]).astype(np.uint64)

    def signatures(self, texts) -> np.ndarray:
        """Batch of signatures, shape (len(texts), num_perm) — one
        vectorized pass, bit-identical to per-row :meth:`signature`
        (property-tested). Per batch: distinct shingles are interned
        once, cache misses get their permutation vectors in ONE
        broadcast mod-p pass, and every row's min-reduce runs as a
        single ``np.minimum.reduceat`` over the gathered matrix — no
        per-row numpy reduce, no per-shingle Python hash on hits."""
        n = len(texts)
        out = np.full((n, self.num_perm), np.iinfo(np.uint64).max,
                      dtype=np.uint64)
        # raw sliding windows, duplicates INCLUDED: min is idempotent,
        # so skipping the per-text set dedup (the setcomp was ~12 us of
        # a 23 us/doc kernel) changes nothing bit-wise; factorize
        # dedups globally for the vector cache
        k = self.shingle
        sh_lists = []
        has_nul = False
        for t in texts:
            t = t or ""
            if not has_nul and "\x00" in t:  # C scan of the DOC, not shingles
                has_nul = True
            if len(t) <= k:
                sh_lists.append([t] if t else [])
            else:
                sh_lists.append([t[i:i + k] for i in range(len(t) - k + 1)])
        counts = np.fromiter(map(len, sh_lists), dtype=np.int64, count=n)
        flat_sh = [s for sh in sh_lists for s in sh]
        if not flat_sh:
            return out
        # C hash-table interning (a Python dict.get loop here measured
        # ~2.5 us per shingle occurrence — the whole kernel's cost);
        # NUL-bearing batches take factorize_exact's slow path so
        # shingles differing after an embedded \x00 stay distinct
        flat_idx, distinct = factorize_exact(flat_sh, has_nul=has_nul)
        V = np.empty((len(distinct), self.num_perm), dtype=np.uint64)
        miss_j, miss_x = [], []
        for j, s in enumerate(distinct):
            v = self._vec_cache.get(s)
            if v is None:
                miss_j.append(j)
                miss_x.append(_hash64(s) % _MERSENNE)
            else:
                V[j] = v
        if miss_j:
            xs = np.array(miss_x, dtype=np.uint64)[:, None]
            V[miss_j] = (_mulmod_p(self.a[None, :], xs)
                         + self.b[None, :]) % np.uint64(_MERSENNE)
            if len(self._vec_cache) + len(miss_j) >= self._CACHE_MAX:
                self._vec_cache.clear()
            for j in miss_j:
                self._vec_cache[distinct[j]] = V[j]
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        nonempty = counts > 0
        # empty texts contribute no flat rows, so consecutive nonempty
        # offsets exactly partition the gathered occurrence axis.
        # COLUMN-WISE reduceat: the 2-D row-wise form materialized an
        # (occurrences x num_perm) matrix (~1.9 GB per 4096 long docs)
        # and reduceat's strided row iteration measured ~10x slower
        # than 64 contiguous 1-D gather+reduceat passes (5.7 s vs
        # 0.6 s per 3.7M-occurrence batch, bit-identical). np.take,
        # NOT V[idx]: int64 fancy gather is ~30x slower than take on
        # this numpy build.
        off_ne = offsets[nonempty]
        res = np.empty((int(nonempty.sum()), self.num_perm), dtype=np.uint64)
        VT = np.ascontiguousarray(V.T)  # (num_perm, distinct), rows contiguous
        for c in range(self.num_perm):
            res[:, c] = np.minimum.reduceat(np.take(VT[c], flat_idx), off_ne)
        out[nonempty] = res
        return out


def factorize_exact(values, has_nul=None):
    """``pd.factorize`` that is exact for strings with embedded NULs.

    pandas' object hashtable hashes/compares strings as NUL-terminated
    C strings (khash), so keys that differ only at/after an embedded
    ``"\\x00"`` factorize as EQUAL — the merge silently corrupts any
    downstream gather (reproduced on this pandas build; it once broke
    a scoring ratio memo). Fast path is plain
    ``pd.factorize``; when ``has_nul`` (callers that already walk the
    source texts pass it precomputed — scanning millions of shingle
    occurrences here would cost as much as the kernel being served)
    the exact dict-interning loop runs instead (Python hashes the full
    string). Returns ``(codes int64 ndarray, uniq list)``.

    Integer-keyed factorizes (band keys, bucket codes) don't have the
    bug and keep calling ``pd.factorize`` directly.
    """
    import pandas as pd

    if has_nul is None:
        has_nul = any(isinstance(s, str) and "\x00" in s for s in values)
    if not has_nul:
        codes, uniq = pd.factorize(np.asarray(values, dtype=object))
        return codes, uniq.tolist()
    seen: dict = {}
    codes = np.empty(len(values), dtype=np.int64)
    uniq: list = []
    for i, s in enumerate(values):
        c = seen.get(s)
        if c is None:
            c = len(uniq)
            seen[s] = c
            uniq.append(s)
        codes[i] = c
    return codes, uniq


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer over uint64 arrays — a strong
    deterministic mixer (no Python-hash salt, no per-row calls)."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def band_keys_u64(sigs: np.ndarray, num_bands: int) -> np.ndarray:
    """Batch LSH band keys as int64, shape (n_docs, num_bands): each
    band's r signature words fold through a SplitMix64 chain, with the
    band index mixed in so equal band VECTORS in different bands never
    collide by construction of the fold.

    Integer keys replace the per-row blake2b hex strings of
    :func:`band_keys` on the hot dedup path: the scalar loop paid one
    Python blake2b + string format per (doc, band) — 16M calls at 2M
    docs/8 bands — and downstream shuffles then hashed 19-byte strings.
    A hash collision between different band vectors only ADDS a
    candidate pair (verify filters it); false negatives are impossible
    (equal vectors always map to the equal key)."""
    n, num_perm = sigs.shape
    rows = num_perm // num_bands
    out = np.empty((n, num_bands), dtype=np.uint64)
    for b in range(num_bands):
        acc = _splitmix64(np.full(n, np.uint64(b), dtype=np.uint64))
        for c in range(b * rows, (b + 1) * rows):
            acc = _splitmix64(acc ^ sigs[:, c])
        out[:, b] = acc
    return out.view(np.int64)


def band_keys(signature: np.ndarray, num_bands: int) -> list:
    """Split a signature into num_bands bands and hash each band to a
    string key 'b{i}:{hash}'. Equal band key => LSH candidate pair."""
    rows = len(signature) // num_bands
    keys = []
    for i in range(num_bands):
        band = signature[i * rows : (i + 1) * rows]
        h = hashlib.blake2b(band.tobytes(), digest_size=8).hexdigest()
        keys.append(f"b{i}:{h}")
    return keys


def simhash64(text: str, shingle: int = 3) -> int:
    """64-bit SimHash over character shingles."""
    if not text:
        return 0
    acc = np.zeros(64, dtype=np.int64)
    ones = np.arange(64, dtype=np.uint64)
    seen = set()
    n = shingle
    grams = [text] if len(text) <= n else (text[i : i + n] for i in range(len(text) - n + 1))
    for g in grams:
        if g in seen:
            continue
        seen.add(g)
        h = np.uint64(_hash64(g))
        bits = ((h >> ones) & np.uint64(1)).astype(np.int64)
        acc += 2 * bits - 1
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def simhash_batch(texts, shingle: int = 3) -> np.ndarray:
    """Batch of 64-bit SimHashes as uint64[len(texts)] — bit-identical
    to per-row :func:`simhash64` (property-tested). The scalar kernel
    pays ~10 us of numpy dispatch per DISTINCT gram (~9 ms/doc on
    900-char docs — measured as the whole cost of simhash_pairs at 2M
    docs); here grams are interned once per batch (pd.factorize),
    hashed and bit-unpacked in one vectorized pass, and the per-doc
    +-1 sums run as 64 contiguous 1-D add.reduceat passes (the same
    column-wise layout the MinHash kernel uses)."""
    n = len(texts)
    out = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return out
    k = shingle
    sh_lists = []
    has_nul = False
    for t in texts:
        t = t or ""
        if not has_nul and "\x00" in t:
            has_nul = True
        if len(t) <= k:
            sh_lists.append([t] if t else [])
        else:
            # per-doc DISTINCT grams: the scalar kernel adds each gram
            # once per doc (its `seen` set); order is irrelevant to a
            # commutative sum
            sh_lists.append(list({t[i:i + k] for i in range(len(t) - k + 1)}))
    counts = np.fromiter(map(len, sh_lists), dtype=np.int64, count=n)
    flat_sh = [s for sh in sh_lists for s in sh]
    if not flat_sh:
        return out
    flat_idx, uniq = factorize_exact(flat_sh, has_nul=has_nul)
    hashes = np.fromiter((_hash64(s) for s in uniq),
                         dtype=np.uint64, count=len(uniq))
    # (n_uniq, 64) bit matrix, bit i == (h >> i) & 1: little-endian
    # uint64 -> uint8 view puts bit i at (byte i//8, in-byte i%8), and
    # unpackbits(bitorder="little") preserves exactly that order
    bits = np.unpackbits(hashes.view(np.uint8).reshape(-1, 8),
                         axis=1, bitorder="little")
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    nonempty = counts > 0
    off_ne = offsets[nonempty]
    cnt_ne = counts[nonempty]
    # keep the per-gram bit matrix uint8 (the old +-1 `signed` int32
    # matrix plus its transpose copy cost ~512 B per distinct gram —
    # hundreds of MB transient on long-doc batches); the signed sum is
    # recovered exactly as 2*ones - count, and the per-column take is
    # widened to int64 BEFORE reduceat (reduceat on uint8 would wrap)
    ones = np.zeros((int(nonempty.sum()), 64), dtype=np.int64)
    BT = np.ascontiguousarray(bits.T)  # (64, n_uniq) uint8, rows contiguous
    for c in range(64):
        ones[:, c] = np.add.reduceat(
            np.take(BT[c], flat_idx).astype(np.int64), off_ne)
    # acc = sum(+-1) = ones - (cnt - ones); bit set iff acc > 0
    packed = np.packbits((2 * ones > cnt_ne[:, None]).astype(np.uint8),
                         axis=1, bitorder="little")
    out[nonempty] = packed.view(np.uint64).ravel()
    return out


def rolling_fingerprints(text: str, window: int = 16, mod_bits: int = 6) -> list:
    """Winnowing-style document fingerprints: Rabin-Karp rolling hashes of
    `window`-grams, keep hashes where hash % 2**mod_bits == 0 (a
    deterministic sample). Returns sorted unique hex fingerprints."""
    if len(text) < window:
        return [hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()] if text else []
    base = 257
    mod = (1 << 61) - 1
    mask = (1 << mod_bits) - 1
    h = 0
    power = pow(base, window - 1, mod)
    data = text.encode("utf-8", "replace")
    out = set()
    for i, byte in enumerate(data):
        h = (h * base + byte) % mod
        if i >= window:
            h = (h - data[i - window] * power * base) % mod
        if i >= window - 1 and (h & mask) == 0:
            out.add(f"{h:016x}")
    if not out:  # guarantee at least one fingerprint per document
        out.add(hashlib.blake2b(data, digest_size=8).hexdigest())
    return sorted(out)
