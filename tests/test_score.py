"""Record-pair scoring: the vectorized core against its per-row
reference, and a guard that both scoring paths share one body."""

import ast
import os
import random

import numpy as np
import pyarrow as pa

from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import score

PKG_DIR = os.path.dirname(os.path.dirname(os.path.abspath(score.__file__)))

# near-duplicate spellings so fuzzy scores land on both sides of the
# 90 threshold; small pools so attribute pairs repeat
_NAMES = ["maria garcia", "maria garcya", "m garcia", "wei wang", "wei wong",
          "john smith", "jon smith", "john smyth", "ana lopez", "anna lopez",
          "li na", "lina", "peter muller", "peter mueller"]
_INSTS = ["university of oslo", "univ of oslo", "university of bergen",
          "mit", "massachusetts institute of technology", "eth zurich",
          "eth zuerich"]
_DOIS = [None, "", "10.1/a", "10.1/b"]


def _random_rows(rng: random.Random, n: int) -> list:
    def names(pool, k_max):
        return rng.sample(pool, rng.randint(0, k_max))

    return [(rng.choice(_DOIS), names(_NAMES, 4), names(_INSTS, 3),
             rng.choice(_DOIS), names(_NAMES, 4), names(_INSTS, 3),
             rng.randrange(16))
            for _ in range(n)]


def _nul_rows() -> list:
    """DOI-undecided pairs over author / institution lists that differ
    only after an embedded NUL, in every left/right combination."""
    auths = (["ana\x00lopez"], ["ana\x00lopes"], ["li na", "ana\x00lopez"])
    insts = (["univ\x00oslo"], ["univ\x00bergen"], ["mit", "univ\x00oslo"])
    return [(None, al, il, None, ar, ir, fam)
            for al in auths for ar in auths for il in insts for ir in insts
            for fam in (0, 3)]


def _vectors(rows: list, chunks: int = 1) -> list:
    """score_vectors over ``rows``, each column a list or, with
    ``chunks`` > 1, an Arrow array in that many chunks."""
    cols = list(zip(*rows))
    packed = [list(cols[0]), list(cols[3]),
              [score._SEP.join(x) for x in cols[1]], [score._SEP.join(x) for x in cols[4]],
              [score._SEP.join(x) for x in cols[2]], [score._SEP.join(x) for x in cols[5]]]
    if chunks > 1:
        cut = np.linspace(0, len(rows), chunks + 1).astype(int)
        packed = [pa.chunked_array([pa.array(c[lo:hi], pa.string())
                                    for lo, hi in zip(cut[:-1], cut[1:])]) for c in packed]
    got = score.score_vectors(*packed, np.asarray(cols[6], dtype=np.int64))
    return [tuple(v.tolist()) for v in got]


def _per_row(rows: list) -> list:
    vals = [score._score_tuple(dl, al, il, dr, ar, ir, structural=bool(fam & 3))
            for dl, al, il, dr, ar, ir, fam in rows]
    return [tuple(c) for c in zip(*vals)]


def test_score_vectors_equals_per_row_reference():
    """score_vectors is bit-identical to a _score_tuple loop over equal,
    conflicting and missing DOIs, empty author / institution lists and
    every family-bit pattern; over lists that differ only after an
    embedded NUL (an interning that truncates there, like pandas'
    factorize, merges them); and over one batch in which many pairs,
    and their left/right swaps, repeat."""
    rng = random.Random(20261017)
    first = _random_rows(rng, 1500)
    second = first[:]
    rng.shuffle(second)
    dois = [(r[0], r[3]) for r in first]
    assert any(dl and dl == dr for dl, dr in dois)
    assert any(dl and dr and dl != dr for dl, dr in dois)
    assert {r[6] for r in first} == set(range(16))
    assert any(not r[1] for r in first) and any(not r[2] for r in first)

    nul = _nul_rows()
    assert len(set(_per_row(nul)[0])) > 1 and len(set(_per_row(nul)[1])) > 1
    repeated = (first[:150] + [r[3:6] + r[:3] + r[6:] for r in first[:150]]) * 8
    rng.shuffle(repeated)

    for rows in (first, second, nul, repeated):
        assert _vectors(rows) == _per_row(rows)
    matches = _per_row(first)[5]
    assert any(matches) and not all(matches)


def test_score_vectors_edge_batches_equal_reference():
    """score_vectors equals the _score_tuple loop on an author that
    normalizes to "" inside a packed list, on institutions longer than
    63 chars (the kernel's scalar fallback) and non-ASCII names, on a
    batch with no DOI-undecided pair and one where every pair is
    undecided, and on two-chunk Arrow columns."""
    rng = random.Random(5)
    long_insts = ["university of " + "x" * 60, "university of " + "x" * 59 + "y",
                  "institute of technology and science " * 2, "zürich"]
    rows = _random_rows(rng, 400)
    empty_name = [(None, ["", rng.choice(_NAMES)], il, None, ar, ir, fam)
                  for _, _, il, _, ar, ir, fam in rows[:60]]
    long = [(None, al, rng.sample(long_insts, 2), None, ar, rng.sample(long_insts, 1), fam)
            for _, al, _, _, ar, _, fam in rows[:60]]
    decided = [("10.1/a", al, il, rng.choice(["10.1/a", "10.1/b"]), ar, ir, fam)
               for _, al, il, _, ar, ir, fam in rows[:50]]
    undecided = [(None, al, il, rng.choice(_DOIS[:3]), ar, ir, fam)
                 for _, al, il, _, ar, ir, fam in rows[:200]]
    for batch in (empty_name, long, decided, undecided, empty_name + long):
        assert _vectors(batch) == _per_row(batch)
    assert _vectors(rows, chunks=2) == _per_row(rows)
    assert _vectors(rows[:1], chunks=2) == _per_row(rows[:1])


def test_one_scoring_body():
    """score_vectors has one call site in the package, inside
    _scored_table, the body both the broadcast and the shuffle path
    run, and makes no ``to_pylist`` call; the deleted scorer variants,
    scoring memos and string-interning helpers leave no trace,
    and pandas' NUL-truncating ``pd.factorize`` is called only by
    functions/minhash.factorize_exact, its NUL-gated wrapper."""
    calls, body, stray = [], None, []
    for root, _, files in os.walk(PKG_DIR):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path) as fh:
                src = fh.read()
            for gone in ("aux_metrics", "use_actors", "_AUTH_PAIR_CACHE",
                         "_INST_PAIR_CACHE", "_RATIO_CACHE", "indel_ratio_cached",
                         "_intern_pairs", "_ratios_for_combos"):
                assert gone not in src, (path, gone)
            tree = ast.parse(src)
            wrapper = [(n.lineno, n.end_lineno) for n in ast.walk(tree)
                       if isinstance(n, ast.FunctionDef) and n.name == "factorize_exact"]
            stray += [(path, n.lineno) for n in ast.walk(tree)
                      if isinstance(n, ast.Attribute) and n.attr == "factorize"
                      and getattr(n.value, "id", None) == "pd"
                      and not any(a <= n.lineno <= b for a, b in wrapper)]
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "score_vectors"):
                    calls.append((path, node.lineno))
                if isinstance(node, ast.FunctionDef) and node.name == "_scored_table":
                    body = (path, node.lineno, node.end_lineno)
    assert not stray, stray
    # scoring runs on Arrow columns and integer codes, not Python lists
    fn = next(n for n in ast.walk(ast.parse(open(score.__file__).read()))
              if isinstance(n, ast.FunctionDef) and n.name == "score_vectors")
    assert not [n for n in ast.walk(fn) if isinstance(n, ast.Attribute)
                and n.attr == "to_pylist"]
    assert len(calls) == 1, calls
    (path, line), = calls
    assert body is not None and path == body[0] and body[1] <= line <= body[2]
