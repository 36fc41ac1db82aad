"""Evaluation: METEOR-lite text similarity, Hungarian matching, reports.

Predicted question-answer pairs are matched one-to-one against gold
pairs by maximizing total METEOR similarity (an assignment problem);
the per-claim score normalizes by the gold count. A claim passes at a
threshold when its label is right and its matched evidence clears the
threshold; the headline score is the passing fraction.

METEOR here is a two-stage variant (exact match, then Porter-stem
match) without the synonym stage, so absolute values can differ from
scorers that use a synonym database; comparisons within one run are
consistent.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

from .corpus import (
    Claim,
    VeracityLabel,
    claim_id_field,
    load_json_objects,
    object_list,
    parse_label,
    repeated_ids,
    require_distinct_ids,
    str_field,
)
from .errors import ValidationError
from .lexical import tokenize
from .porter import stem

log = logging.getLogger(__name__)

# Past this many alignments, align_tokens takes the first one enumerated
# (first occurrences) instead of searching them all for the minimum.
_ALIGN_BUDGET = 100_000


# METEOR's parameters: F-mean weight on precision, fragmentation
# penalty exponent and penalty weight (Banerjee & Lavie, 2005).
ALPHA = 0.9
BETA = 3.0
GAMMA = 0.5


@dataclass(frozen=True)
class ScoringConfig:
    thresholds: tuple[float, ...] = (0.25,)

    def __post_init__(self):
        if not self.thresholds:
            raise ValidationError("thresholds must be non-empty")
        for t in self.thresholds:
            if not 0.0 < t <= 1.0:
                raise ValidationError(f"threshold {t} outside (0, 1]")
        # each threshold is one report column and key, labelled as below
        repeated = repeated_ids(f"{t:g}" for t in self.thresholds)
        if repeated:
            raise ValidationError(f"thresholds repeated: {', '.join(repeated)}")


# ---------------------------------------------------------------------------
# METEOR-lite


def _matchings(pos_c: list[int], pos_r: list[int]):
    """Every way to pair as many of pos_c with pos_r as one side holds.

    Chosen positions pair in increasing order: any crossing-minimal
    alignment has that shape, so nothing optimal is lost. The first
    yielded takes the first occurrences on both sides.
    """
    k = min(len(pos_c), len(pos_r))
    for cc in itertools.combinations(pos_c, k):
        for rr in itertools.combinations(pos_r, k):
            yield list(zip(cc, rr))


def _group_alignment_count(surfaces: list[tuple[list[int], list[int]]]) -> int:
    """How many edge sets _group_alignments(surfaces) yields.

    _matchings yields comb(max, min) of its two sides' sizes. The exact
    stage leaves the same number of positions on each side whichever
    occurrences it takes, so the count is a product.
    """
    count = 1
    left_c = left_r = 0
    for pc, pr in surfaces:
        k = min(len(pc), len(pr))
        count *= math.comb(max(len(pc), len(pr)), k)
        left_c += len(pc) - k
        left_r += len(pr) - k
    return count * math.comb(max(left_c, left_r), min(left_c, left_r))


def _group_alignments(surfaces: list[tuple[list[int], list[int]]]):
    """Every edge set for one stem group, lazily, first occurrences first.

    A stem group is the positions sharing a Porter stem; a surface is
    one spelling within it, given as its ascending candidate and
    reference positions. Exact matching happens per surface (taking min
    counts, positions free); whatever positions remain may pair across
    surfaces as stem matches.
    """
    if len(surfaces) == 1:
        # one spelling leaves positions on one side only: no stem matches
        yield from _matchings(*surfaces[0])
        return
    all_c = sorted(p for pc, _pr in surfaces for p in pc)
    all_r = sorted(p for _pc, pr in surfaces for p in pr)
    for exact in itertools.product(*(_matchings(pc, pr) for pc, pr in surfaces)):
        exact_edges = [edge for edges in exact for edge in edges]
        used_c = {c for c, _r in exact_edges}
        used_r = {r for _c, r in exact_edges}
        left_c = [p for p in all_c if p not in used_c]
        left_r = [p for p in all_r if p not in used_r]
        for stem_edges in _matchings(left_c, left_r):
            yield exact_edges + stem_edges


def _chunk_count(pairs: list[tuple[int, int]]) -> int:
    """The runs of consecutive pairs (c, r), (c + 1, r + 1) in pairs, which
    are sorted, as align_tokens returns them."""
    if not pairs:
        return 0
    chunks = 1
    for (c1, r1), (c2, r2) in zip(pairs, pairs[1:]):
        if not (c2 == c1 + 1 and r2 == r1 + 1):
            chunks += 1
    return chunks


class _Stems(dict):
    """word -> Porter stem, stemmed on its first lookup only.

    One instance lives for the process: evaluation compares the same
    texts pairwise, so each word recurs across many alignments. It grows
    with the vocabulary scored; stemming is pure, so a word stemmed twice
    by racing threads stores the same value.
    """

    def __missing__(self, word: str) -> str:
        stemmed = self[word] = stem(word)
        return stemmed


_STEMS = _Stems()


class _Text(list):
    """A token list with its positions grouped by Porter stem, then by
    spelling: {stem: {spelling: ascending positions}}; stem_counts[stem].

    hu_meteor prepares each text once and bounds or aligns it with every
    text on the other side, so neither is rebuilt for each pair.
    """

    def __init__(self, tokens: list[str]):
        super().__init__(tokens)
        by_word: dict[str, list[int]] = {}
        for i, token in enumerate(tokens):
            by_word.setdefault(token, []).append(i)
        self.by_stem: dict[str, dict[str, list[int]]] = {}
        self.stem_counts: dict[str, int] = {}
        for word, positions in by_word.items():
            s = _STEMS[word]
            self.by_stem.setdefault(s, {})[word] = positions
            self.stem_counts[s] = self.stem_counts.get(s, 0) + len(positions)


def _text(text: str | list[str]) -> _Text:
    """text prepared for alignment: a str is tokenized, a token list grouped."""
    if isinstance(text, _Text):
        return text
    return _Text(tokenize(text) if isinstance(text, str) else text)


def _prices(edges, options, m: int) -> list[int]:
    """crossings * m - adjacencies between edges and each option's edges.

    An adjacency is an edge (c, r) whose (c + 1, r + 1) is also an edge,
    and m edges make m - adjacencies chunks, so summed prices order
    alignments of m edges by (crossings, chunks).
    """
    prices = []
    for option in options:
        price = 0
        for c2, r2 in option:
            for c, r in edges:
                if (c < c2) != (r < r2):
                    price += m
                elif c2 - c == r2 - r and (c2 - c == 1 or c - c2 == 1):
                    price -= 1
        prices.append(price)
    return prices


def _search(own, options, later) -> list[tuple[int, int]]:
    """The cheapest choice of one option per group of one component.

    own[d][b] is the price of group d's option b against the fixed edges
    and within itself, options[d][b] its sorted edges; later[e] holds
    (f, table) for each later group f that e interacts with, table[a][b]
    being the price between e's option a and f's option b. A depth-first
    search visits every combination. Choosing an option adds its row of
    each table to that later group's prices, so the deepest groups, whose
    options are visited most often, take the fewest additions, and the
    last group's cheapest option is read off its prices. The sorted pair
    lists of the cheapest combinations are compared at the end, where the
    lexicographic tie-break decides.
    """
    n = len(own)
    prices = [list(row) for row in own]  # plus the prices against the options chosen
    chosen = [0] * n
    best_price = math.inf
    ties: list[tuple[int, ...]] = []

    def visit(d: int, price: int) -> None:
        nonlocal best_price, ties
        if d + 1 == n:
            low = price + min(prices[d])
            if low <= best_price:
                if low < best_price:
                    best_price, ties = low, []
                ties += [(*chosen[:d], b) for b, x in enumerate(prices[d]) if price + x == low]
            return
        saved = [prices[f] for f, _table in later[d]]
        for b, x in enumerate(prices[d]):
            chosen[d] = b
            for f, table in later[d]:
                prices[f] = [y + z for y, z in zip(prices[f], table[b])]
            visit(d + 1, price + x)
            for (f, _table), row in zip(later[d], saved):
                prices[f] = row

    visit(0, 0)
    return min(
        sorted(edge for d, b in enumerate(choice) for edge in options[d][b]) for choice in ties
    )


def _cheapest(
    fixed: list[tuple[int, int]], groups: list[list[tuple[tuple[int, int], ...]]]
) -> list[tuple[int, int]]:
    """The edges to add to fixed, one option per ambiguous group, that
    minimize (crossings, chunks, sorted pairs) of the whole.

    Each option is a group's alignment as sorted edges, priced once
    against the fixed edges and within itself. A lone group takes its
    cheapest option. Otherwise every two groups' options are priced
    against each other; where that price is the same for every pair of
    options, the two groups do not interact. Groups use disjoint
    positions, so comparing one group's sorted pairs orders the merged
    pair lists the same way: the tie-break splits as the price does, and
    each component of interacting groups is searched apart from the
    others (_search), its groups by ascending option count.
    """
    m = len(fixed) + sum(len(options[0]) for options in groups)
    groups = sorted(groups, key=len)
    own = [_prices(fixed, options, m) for options in groups]
    for prices, options in zip(own, groups):
        if len(options[0]) > 1:
            # an edge's price against itself is 0 and each other pair counts twice
            prices[:] = [x + _prices(e, (e,), m)[0] // 2 for x, e in zip(prices, options)]
    if len(groups) == 1:
        return list(min(zip(own[0], groups[0]))[1])
    later: list[list[tuple[int, list[list[int]]]]] = [[] for _ in groups]
    component = list(range(len(groups)))  # each group's lowest linked group
    for d, options in enumerate(groups):
        for e in range(d):
            table = [_prices(a, options, m) for a in groups[e]]
            if any(x != table[0][0] for row in table for x in row):
                later[e].append((d, table))
                low, high = sorted((component[d], component[e]))
                component = [low if x == high else x for x in component]
    best: list[tuple[int, int]] = []
    for root in set(component):
        members = [d for d, x in enumerate(component) if x == root]
        index = {d: i for i, d in enumerate(members)}
        best += _search(
            [own[d] for d in members],
            [groups[d] for d in members],
            [[(index[f], table) for f, table in later[d]] for d in members],
        )
    return best


def align_tokens(cand: list[str], ref: list[str]) -> list[tuple[int, int]]:
    """Two-stage unigram alignment between token lists.

    Exact matches are maximized first, stem matches fill in from the
    leftovers; among maximal alignments the result minimizes crossings,
    then chunk count, then compares pair lists lexicographically. The
    match counts themselves are forced by token multiplicities, so the
    search is only over which duplicate positions pair up.

    Each stem group common to both sides takes the cheapest path for its
    shape. A group with one spelling on each side (the same, or two that
    share a stem) pairs in order when both sides hold it equally often,
    and is a choice among single edges when one side holds it once. Any
    other group is enumerated (_group_alignments), and fixed when it has
    one alignment. The groups left with a choice are then searched
    (_cheapest). Past _ALIGN_BUDGET alignments in all, the product of
    those groups' counts taken before any is enumerated, each group's
    first alignment is taken instead, with a warning.
    """
    stems_r = _text(ref).by_stem
    fixed: list[tuple[int, int]] = []
    choices = []  # choice groups' options, single edges in enumeration order
    general = []  # the surfaces of the other ambiguous groups
    total = 1
    for s, words_c in _text(cand).by_stem.items():
        words_r = stems_r.get(s)
        if words_r is None:
            continue
        if len(words_c) == 1 == len(words_r):
            # one spelling on each side: the positions pair as one
            # spelling's would, by exact match or, if they differ, by stem
            [pc], [pr] = words_c.values(), words_r.values()
            if len(pc) == len(pr):
                fixed += zip(pc, pr)
                continue
            if len(pc) == 1 or len(pr) == 1:
                choices.append([((c, r),) for c in pc for r in pr])
                total *= len(choices[-1])
                continue
            surfaces = [(pc, pr)]
        else:
            surfaces = [
                (words_c.get(w, []), words_r.get(w, []))
                for w in sorted(words_c.keys() | words_r.keys())
            ]
        count = _group_alignment_count(surfaces)
        if count == 1:
            fixed += next(_group_alignments(surfaces))
        else:
            general.append(surfaces)
            total *= count
    if total > _ALIGN_BUDGET:
        log.warning(
            "alignment of %d candidate and %d reference tokens has over %d"
            " choices; using the first-occurrence greedy alignment",
            len(cand), len(ref), _ALIGN_BUDGET,
        )
        fixed += (options[0][0] for options in choices)
        fixed += (edge for s in general for edge in next(_group_alignments(s)))
    elif choices or general:
        fixed += _cheapest(
            fixed,
            choices + [[tuple(sorted(edges)) for edges in _group_alignments(s)] for s in general],
        )
    fixed.sort()
    return fixed


def meteor_lite(candidate: str | _Text, reference: str | _Text) -> float:
    """METEOR with exact and stem stages only.

    P = m/|cand|, R = m/|ref|, F = P*R/(alpha*P + (1-alpha)*R),
    penalty = gamma*(chunks/m)^beta, score = F*(1-penalty).
    """
    cand, ref = _text(candidate), _text(reference)
    if not cand or not ref:
        return 0.0
    pairs = align_tokens(cand, ref)
    if not pairs:
        return 0.0
    return _meteor_score(len(pairs), _chunk_count(pairs), len(cand), len(ref))


def _meteor_score(m: int, chunks: int, n_cand: int, n_ref: int) -> float:
    """meteor_lite's score of m > 0 matches in chunks between the texts."""
    precision = m / n_cand
    recall = m / n_ref
    f_mean = precision * recall / (ALPHA * precision + (1.0 - ALPHA) * recall)
    penalty = GAMMA * (chunks / m) ** BETA
    return f_mean * (1.0 - penalty)


def _meteor_bound(candidate: str | _Text, reference: str | _Text) -> tuple[float, bool]:
    """An upper bound on meteor_lite(candidate, reference), and whether
    it is the score itself: the match count m is forced by the stem
    counts (see align_tokens), the budget's fallback included, and the
    bound takes one chunk, the fewest, which is exact when m <= 1.
    """
    cand, ref = _text(candidate), _text(reference)
    counts_r = ref.stem_counts
    m = sum(min(n, counts_r.get(s, 0)) for s, n in cand.stem_counts.items())
    return (_meteor_score(m, 1, len(cand), len(ref)) if m else 0.0), m <= 1


# ---------------------------------------------------------------------------
# Hungarian assignment


def _solve_min_assignment(cost: list[list[float]]):
    """Shortest-augmenting-path assignment with potentials, O(k^2 n).

    cost is a k x n matrix as nested lists, k <= n; every row is matched.
    Returns (col_to_row, u, v), all 1-indexed with a 0 sentinel slot; a
    column left unmatched has row 0.
    """
    k, n = len(cost), len(cost[0])
    inf = float("inf")
    u = [0.0] * (k + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, k + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return p, u, v


def _bits(mask: int):
    """The set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lexicographic_rows(tight, col_of, pad_tight: int, pad_cols: int) -> list[int]:
    """The real rows' columns in the lexicographically smallest perfect
    matching of the tight graph of a square padded with rows.

    tight[r] has bit c set when edge (r, c) is tight. The padding rows
    come after the real rows and are all tight with pad_tight's columns,
    so they act as one row holding many columns. col_of[r] and the
    bitmask pad_cols give the columns of one perfect matching. Row by
    row, row i may take column j instead of its own column c0 exactly
    when j's holder can pass its column along an alternating path whose
    last holder takes c0; one search backward from c0 finds every such
    j. The padding's rows need no turn: they come last and are not
    returned.
    """
    rows_of: dict[int, int] = {}  # column -> bit r set when edge (r, c) is tight
    for r, mask in enumerate(tight):
        for c in _bits(mask):
            rows_of[c] = rows_of.get(c, 0) | 1 << r
    col_to_row = {c: r for r, c in enumerate(col_of)}  # the real rows' columns
    for i, c0 in enumerate(col_of):
        # next_col[a]: the column a's row moves to on a path that frees c0;
        # the padding's columns move to pad_next
        next_col = {c0: -1}
        pad_next = -1
        reached = 1 << c0
        unvisited = -1 << (i + 1)  # rows after i; earlier ones are fixed
        queue = [c0]
        for b in queue:
            found = rows_of.get(b, 0) & unvisited
            unvisited ^= found
            for r in _bits(found):
                a = col_of[r]
                next_col[a] = b
                reached |= 1 << a
                queue.append(a)
            if pad_next < 0 and pad_tight >> b & 1:
                pad_next = b
                reached |= pad_cols
                queue += _bits(pad_cols)
        candidates = tight[i] & reached
        j = (candidates & -candidates).bit_length() - 1
        row, col = i, j  # row takes col; col's holder moves on
        while col != -1:
            if pad_cols >> col & 1:
                moved, following = None, pad_next
                pad_cols ^= 1 << col
            else:
                moved, following = col_to_row.pop(col), next_col[col]
            if row is None:
                pad_cols |= 1 << col
            else:
                col_to_row[col], col_of[row] = row, col
            row, col = moved, following
    return col_of


def _lexicographic_columns(rows_of, col_of, pad_rows: int) -> list[int]:
    """Each row's column in the lexicographically smallest perfect
    matching of the tight graph of a square padded with columns.

    rows_of[c] has bit r set when edge (r, c) is tight, for the k real
    columns. The padding columns, numbered k here, come after the real
    ones and are all tight with pad_rows's rows, so they act as one
    column held by many rows. col_of[r] gives one perfect matching,
    padding as k. Row by row, as in _lexicographic_rows, each row takes
    its smallest column that an alternating path can free, the padding
    last.
    """
    k = len(rows_of)
    rows_of = [*rows_of, pad_rows]
    pad_holders = sum(1 << r for r, c in enumerate(col_of) if c == k)
    for i, c0 in enumerate(col_of):
        # via[a]: (the column a's row moves to on a path that frees c0,
        # that row); for the padding, one of the rows that hold it
        via = {c0: (-1, i)}
        unvisited = -1 << (i + 1)  # rows after i; earlier ones are fixed
        queue = [c0]
        for b in queue:
            found = rows_of[b] & unvisited
            unvisited ^= found
            padding = found & pad_holders
            if padding and k not in via:
                via[k] = (b, (padding & -padding).bit_length() - 1)
                queue.append(k)
            for r in _bits(found & ~pad_holders):
                via[col_of[r]] = (b, r)
                queue.append(col_of[r])
        j = min(c for c in via if rows_of[c] >> i & 1)
        row, col = i, j  # row takes col; col's holder moves on
        while col != -1:
            following, moved = via[col]
            if (col_of[row] == k) != (col == k):
                pad_holders ^= 1 << row
            col_of[row] = col
            row, col = moved, following
    return col_of


def _tight_solve(arr: list[list[float]]):
    """Solve arr's maximum assignment: (transposed, p, tight, pad_tight).

    arr is negated, and transposed if it has more rows than columns, into
    a k x n cost matrix, k <= n. tight[i] has bit j set when cost cell
    (i, j) is tight within eps; pad_tight, when the padding rows' cell is.
    """
    transposed = len(arr) > len(arr[0])
    cost = [[-x for x in row] for row in (zip(*arr) if transposed else arr)]
    p, u, v = _solve_min_assignment(cost)
    eps = 1e-9 * max(1.0, max(abs(x) for row in cost for x in row))
    tight = [
        sum(1 << c for c, (x, vj) in enumerate(zip(row, v[1:])) if (x - ui) - vj <= eps)
        for row, ui in zip(cost, u[1:])
    ]
    # a missing row costs 0 everywhere; potential 0 keeps it feasible, as v
    # only decreases, and the columns the solve left unmatched (v = 0) are tight
    pad_tight = sum(1 << c for c, vj in enumerate(v[1:]) if -vj <= eps)
    return transposed, p, tight, pad_tight


def hungarian_max(matrix) -> tuple[list[tuple[int, int]], float]:
    """Maximum-total one-to-one assignment of rows to columns.

    matrix is a list of equal-length rows of numbers (a 2-d numpy array
    also serves). Rectangular input is taken as zero-padded to square;
    the returned pairs cover min(rows, cols) real cells. Among optimal
    assignments the lexicographically smallest (by ascending row, then
    column) is returned, found by walking rows in order and keeping the
    smallest column with which the remaining rows can still be matched
    within the tight subgraph of the optimal potentials.

    The solve (_tight_solve) runs over the smaller side (the matrix
    transposed when it has more rows than columns), so it costs O(k^2 n)
    for k <= n, not O(n^3). The padded square's n - k missing lines are
    interchangeable: they join only the tight subgraph, as one class, so
    picking the smallest assignment costs no more than the solve. Only
    tight cells are read, so other cells may hold upper bounds (_tighten).
    """
    try:
        arr = [[float(x) for x in row] for row in matrix]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"matrix must be 2-d and of numbers: {exc}") from exc
    if not arr or not arr[0]:
        raise ValidationError("matrix must be 2-d and nonempty")
    cols = len(arr[0])
    if any(len(row) != cols for row in arr):
        raise ValidationError("matrix rows differ in length")
    if any(math.isnan(x) for row in arr for x in row):
        raise ValidationError("matrix contains NaN")
    if any(math.isinf(x) for row in arr for x in row):
        raise ValidationError("matrix contains infinity")

    transposed, p, tight, pad_tight = _tight_solve(arr)
    col_of = [0] * len(tight)
    pad_cols = 0  # the columns the missing rows take
    for c, r in enumerate(p[1:]):
        if r:
            col_of[r - 1] = c
        else:
            pad_cols |= 1 << c
    if any(not mask >> c & 1 for mask, c in zip(tight, col_of)) or pad_cols & ~pad_tight:
        raise ValidationError("assignment extraction failed; matrix ill-formed")
    if transposed:
        # the solve's rows are the columns here, its missing rows padding columns
        k = len(tight)
        assigned = _lexicographic_columns(tight, [r - 1 if r else k for r in p[1:]], pad_tight)
        pairs = [(r, c) for r, c in enumerate(assigned) if c < k]
    else:
        pairs = list(enumerate(_lexicographic_rows(tight, col_of, pad_tight, pad_cols)))
    total = 0.0
    for r, c in pairs:
        total += arr[r][c]
    return pairs, total


# ---------------------------------------------------------------------------
# Per-claim and dataset-level scores


def _pair_text(item, mode: str) -> str:
    if mode == "Q_only":
        return item.question
    return f"{item.question} {item.answer}"


def _tighten(bounds: list[list[tuple[float, bool]]], exact) -> list[list[float]]:
    """The matrix of bounds, (upper bound, whether exact) per cell, with
    exact(i, j) in each cell that hungarian_max's solve finds tight.

    It solves again until no tight cell is loose. The last potentials are
    feasible for the exact matrix, whose cells are no larger, and leave
    each loose cell strictly slack: by complementary slackness,
    hungarian_max returns the exact matrix's least optimal pairs and total.
    """
    matrix = [[bound for bound, _exact in row] for row in bounds]
    loose = [[not is_exact for _bound, is_exact in row] for row in bounds]
    while True:
        transposed, _p, tight, _pad_tight = _tight_solve(matrix)
        cells = [(r, c) for r, mask in enumerate(tight) for c in _bits(mask)]
        cells = [(i, j) for i, j in (map(reversed, cells) if transposed else cells) if loose[i][j]]
        if not cells:
            return matrix
        for i, j in cells:
            matrix[i][j] = exact(i, j)
            loose[i][j] = False


def hu_meteor(claim_pred, claim_gold, mode: str) -> float:
    """Best one-to-one METEOR matching of predictions to gold, over |gold|.

    Normalizing by the gold count means padding out extra predictions
    can never raise the score.

    The matrix starts as upper bounds (_meteor_bound), and meteor_lite
    aligns only the pairs the matching may take (_tighten). Scores lie in
    [0, 1], so the tight rule's eps is that of the fully aligned matrix.
    """
    if not claim_gold:
        raise ValidationError("hu_meteor requires non-empty gold evidence")
    if mode not in ("Q_only", "QA"):
        raise ValidationError(f"mode must be Q_only or QA, got {mode!r}")
    if not claim_pred:
        return 0.0
    golds = [_text(_pair_text(gold, mode)) for gold in claim_gold]
    preds = [_text(_pair_text(pred, mode)) for pred in claim_pred]
    bounds = [[_meteor_bound(pred, gold) for gold in golds] for pred in preds]
    matrix = _tighten(bounds, lambda i, j: meteor_lite(preds[i], golds[j]))
    _pairs, total = hungarian_max(matrix)
    return total / len(claim_gold)


@dataclass(frozen=True)
class PredEvidence:
    question: str
    answer: str
    source_url: str = ""
    answer_type: str = ""


@dataclass(frozen=True)
class PredictionRecord:
    claim_id: int
    claim: str
    evidence: tuple[PredEvidence, ...]
    verdict: VeracityLabel
    ratings: dict | None = None


def load_predictions(path: str) -> list[PredictionRecord]:
    """Load a prediction file, as verify writes it, into records.

    Claim ids may not repeat within the file.
    """
    records = load_json_objects(path, "predictions", _prediction_from_json)
    require_distinct_ids(path, (r.claim_id for r in records))
    return records


def _prediction_from_json(_pos: int, item: dict) -> PredictionRecord:
    evidence = tuple(
        PredEvidence(
            question=str_field(e, "question"),
            answer=str_field(e, "answer"),
            source_url=str_field(e, "source_url", ""),
            answer_type=str_field(e, "answer_type", ""),
        )
        for e in object_list(item, "evidence")
    )
    return PredictionRecord(
        claim_id=claim_id_field(item),
        claim=str_field(item, "claim", ""),
        evidence=evidence,
        verdict=parse_label(item["verdict"]),
        ratings=item.get("ratings"),
    )


@dataclass(frozen=True)
class PerClaimScore:
    claim_id: int
    hu_meteor_q: float
    hu_meteor_qa: float
    label_pred: VeracityLabel
    label_gold: VeracityLabel

    @property
    def label_correct(self) -> bool:
        return self.label_pred == self.label_gold


@dataclass(frozen=True)
class ScoreReport:
    q_score: float
    qa_score: float
    averitec_score: dict[float, float]
    accuracy: float
    macro_f1: float
    per_claim: tuple[PerClaimScore, ...]

    def to_json_dict(self) -> dict:
        return {
            "q_score": self.q_score,
            "qa_score": self.qa_score,
            "averitec_score": {f"{t:g}": s for t, s in self.averitec_score.items()},
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "per_claim": [
                {
                    "claim_id": c.claim_id,
                    "hu_meteor_q": c.hu_meteor_q,
                    "hu_meteor_qa": c.hu_meteor_qa,
                    "label_pred": c.label_pred.value,
                    "label_gold": c.label_gold.value,
                    "label_correct": c.label_correct,
                }
                for c in self.per_claim
            ],
        }

    def csv_rows(self, thresholds: tuple[float, ...]) -> list[list[str]]:
        header = ["claim_id", "q", "qa", "label_pred", "label_gold"]
        header += [f"pass@{t:g}" for t in thresholds]
        rows = [header]
        for c in self.per_claim:
            row = [
                str(c.claim_id),
                f"{c.hu_meteor_q:.6f}",
                f"{c.hu_meteor_qa:.6f}",
                c.label_pred.value,
                c.label_gold.value,
            ]
            row += [
                str(int(c.label_correct and c.hu_meteor_qa >= t)) for t in thresholds
            ]
            rows.append(row)
        return rows


def macro_f1_score(
    golds: list[VeracityLabel], preds: list[VeracityLabel]
) -> float:
    """Unweighted mean of per-label F1 over all four labels.

    A label absent from both gold and predictions contributes 0, which
    keeps the metric comparable across runs at the cost of punishing
    small fixtures that do not exercise every label.
    """
    scores = []
    for label in VeracityLabel:
        tp = sum(1 for g, p in zip(golds, preds) if g == label and p == label)
        fp = sum(1 for g, p in zip(golds, preds) if g != label and p == label)
        fn = sum(1 for g, p in zip(golds, preds) if g == label and p != label)
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return sum(scores) / len(scores)


def averitec_score(
    preds: list[PredictionRecord],
    golds: list[Claim],
    cfg: ScoringConfig = ScoringConfig(),
) -> ScoreReport:
    """Dataset-level evaluation of a prediction file against gold claims.

    A claim counts toward the score at threshold t when its predicted
    label is correct and its QA-mode Hu-METEOR is at least t.
    """
    if not golds:
        raise ValidationError("no gold claims to score")
    repeated = repeated_ids(record.claim_id for record in preds)
    if repeated:
        raise ValidationError(f"duplicate predictions for claim ids {repeated}")
    by_id = {record.claim_id: record for record in preds}

    gold_ids = {c.id for c in golds}
    missing = sorted(gold_ids - set(by_id))
    extra = sorted(set(by_id) - gold_ids)
    if missing or extra:
        raise ValidationError(
            f"prediction/gold id mismatch: missing {missing}, extra {extra}"
        )

    unlabeled = [c.id for c in golds if c.gold_label is None or not c.gold_evidence]
    if unlabeled:
        raise ValidationError(
            f"gold claims without label or evidence cannot be scored: {unlabeled}"
        )

    per_claim = []
    for gold_claim in golds:
        record = by_id[gold_claim.id]
        per_claim.append(
            PerClaimScore(
                claim_id=gold_claim.id,
                hu_meteor_q=hu_meteor(
                    record.evidence, gold_claim.gold_evidence, "Q_only"
                ),
                hu_meteor_qa=hu_meteor(
                    record.evidence, gold_claim.gold_evidence, "QA"
                ),
                label_pred=record.verdict,
                label_gold=gold_claim.gold_label,
            )
        )

    n = len(per_claim)
    thresholds_score = {
        t: sum(1 for c in per_claim if c.label_correct and c.hu_meteor_qa >= t) / n
        for t in cfg.thresholds
    }
    return ScoreReport(
        q_score=sum(c.hu_meteor_q for c in per_claim) / n,
        qa_score=sum(c.hu_meteor_qa for c in per_claim) / n,
        averitec_score=thresholds_score,
        accuracy=sum(1 for c in per_claim if c.label_correct) / n,
        macro_f1=macro_f1_score(
            [c.label_gold for c in per_claim], [c.label_pred for c in per_claim]
        ),
        per_claim=tuple(per_claim),
    )
