"""Labeled alternating cycles and their census.

A cycle of 2l vertices alternates p-vertices and n-vertices; labelings of
it index the nonzero terms in trace-moment expansions of the dominant
kernel-matrix component (multi-labelings: each n-vertex carries a tuple
of distinct labels) and of the deformed-GUE comparison model
(simple labelings: one label or the empty label per n-vertex).  This
module enumerates the multi-labeling equivalence classes at small cycle
length, computes their combinatorial statistics, applies the label-simplifying
map between the two families, and machine-checks the counting lemmas the
moment comparison rests on.

Vertex s (0-based, s < l) denotes the n-vertex between p-vertex s and
p-vertex (s+1) mod l.  Tuple order within an n-vertex is not a class
invariant here: canonical forms store tuples sorted.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, ConsistencyError, SizeCapError
from .simulate import EntryLaw, elementary_symmetric

# By l, the largest max_tuple_size whose census finishes; it falls with l.
# From l = 4 on, the largest d whose walk stays within 10^6 states: (4, 15)
# visits 990 342 and (4, 16) 1 462 184, (5, 11) 798 862 and (5, 12)
# 1 320 108, (6, 3) 256 322 and (6, 4) 5 064 733.  At l = 2, 3 the walk has
# d + 1 states, but verify holds every census at once, and the class of k
# sets holds l k-tuples: 96 B per d^2 (ru_maxrss at d = 1000, 2000), 5.9 GB at 7839.
MAX_TUPLE_SIZES = {2: 7839, 3: 7839, 4: 15, 5: 11, 6: 3}

TRACE_L_CAP = 4


# ---------------------------------------------------------------------------
# labelings


@dataclass(frozen=True)
class _LabeledCycle:
    """What both labeling families share, defined once on p_labels and the
    per-vertex view label_sets: label_sets[s] holds the n-labels at
    n-vertex s, an empty tuple for the empty label.  A family sets
    label_sets from its own n-labels on construction, and builds itself
    back from such sets in _from_label_sets."""

    p_labels: tuple[int, ...]
    label_sets: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    @property
    def l(self) -> int:
        return len(self.p_labels)

    @property
    def distinct_p(self) -> int:
        return len(set(self.p_labels))

    @property
    def distinct_n(self) -> int:
        return len({j for t in self.label_sets for j in t})

    @property
    def m(self) -> int:
        """Total distinct labels; p-labels and n-labels never identified."""
        return self.distinct_p + self.distinct_n

    @property
    def excess(self) -> Fraction:
        """(l + sum of n-label counts)/2 + 1 - m: nonnegative for valid
        labelings, and a half-integer when the numerator is odd."""
        return Fraction(self.l + sum(map(len, self.label_sets)) + 2 - 2 * self.m, 2)

    def _ends(self):
        """The p-labels on either side of each n-vertex, in cycle order."""
        p = self.p_labels
        return zip(p, p[1:] + p[:1])

    def edge_pair_counts(self) -> dict[tuple[int, int], int]:
        """b[i, j]: edges whose p-endpoint is labeled i and whose n-endpoint
        carries j.  Each n-vertex has two incident edges."""
        b: dict[tuple[int, int], int] = {}
        for (i1, i2), t in zip(self._ends(), self.label_sets):
            for j in t:
                b[(i1, j)] = b.get((i1, j), 0) + 1
                b[(i2, j)] = b.get((i2, j), 0) + 1
        return b

    def validate(self) -> list[str]:
        """Condition-by-condition check of what both families require:
        distinct neighbouring p-labels, and an even number of edges between
        each p-label and each n-label.  An empty list means valid."""
        problems = [
            f"adjacent p-vertices {s} and {(s + 1) % self.l} share label"
            for s, (i, i2) in enumerate(self._ends())
            if i == i2
        ]
        problems += [
            f"label pair ({i}, {j}) meets an odd number of edges ({count})"
            for (i, j), count in self.edge_pair_counts().items()
            if count % 2 != 0
        ]
        return problems

    def canonical_key(self):
        """Complete invariant of the labeling's equivalence class under
        independent relabelings of p-labels and n-labels: the cycle length,
        the first-appearance-renamed p-sequence, and the sorted multiset of
        per-n-label occurrence lists."""
        rename: dict[int, int] = {}
        p_key = tuple(rename.setdefault(i, len(rename) + 1) for i in self.p_labels)
        occ: dict[int, list[int]] = {}
        for s, labels in enumerate(self.label_sets):
            for j in labels:
                occ.setdefault(j, []).append(s)
        return (self.l, p_key, tuple(sorted(tuple(v) for v in occ.values())))

    def canonical(self):
        """The canonical representative: labels renumbered 1.. in the order
        of the canonical key."""
        return self._from_key(*self.canonical_key()[1:])

    @classmethod
    def _from_key(cls, p_key, n_key):
        """N-label j on every vertex of n_key[j-1]: each vertex's labels sorted."""
        sets: list[list[int]] = [[] for _ in p_key]
        for j, occ in enumerate(n_key, start=1):
            for s in occ:
                sets[s].append(j)
        return cls._from_label_sets(p_key, sets)


@dataclass(frozen=True)
class MultiLabeling(_LabeledCycle):
    """Each n-vertex carries a nonempty tuple of distinct n-labels."""

    n_tuples: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.p_labels) != len(self.n_tuples):
            raise ConfigError("need one n-tuple per p-vertex")
        if len(self.p_labels) < 2:
            raise ConfigError("cycle length must be >= 2")
        for t in self.n_tuples:
            if len(t) == 0:
                raise ConfigError("n-tuples must be nonempty")
            if len(set(t)) != len(t):
                raise ConfigError(f"n-tuple {t} has repeated labels")
        object.__setattr__(self, "label_sets", self.n_tuples)

    @classmethod
    def _from_label_sets(cls, p_labels, label_sets):
        return cls(p_labels=p_labels, n_tuples=tuple(map(tuple, label_sets)))

    @property
    def tuple_sizes(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.n_tuples)

    def n_label_counts(self) -> dict[int, int]:
        """N[j]: number of n-vertices whose tuple contains j."""
        counts: dict[int, int] = {}
        for t in self.n_tuples:
            for j in t:
                counts[j] = counts.get(j, 0) + 1
        return counts

    def validate(self, max_tuple_size: int | None = None) -> list[str]:
        """The shared conditions, plus tuple sizes of at most
        max_tuple_size when it is given."""
        problems = super().validate()
        if max_tuple_size is not None:
            for s, t in enumerate(self.n_tuples):
                if len(t) > max_tuple_size:
                    problems.append(f"n-vertex {s} has {len(t)} labels > cap {max_tuple_size}")
        return problems


@dataclass(frozen=True)
class SimpleLabeling(_LabeledCycle):
    """Each n-vertex carries one n-label or the empty label (None)."""

    n_labels: tuple[int | None, ...]

    def __post_init__(self):
        if len(self.p_labels) != len(self.n_labels):
            raise ConfigError("need one n-label slot per p-vertex")
        sets = tuple(() if j is None else (j,) for j in self.n_labels)
        object.__setattr__(self, "label_sets", sets)

    @classmethod
    def _from_label_sets(cls, p_labels, label_sets):
        return cls(p_labels=p_labels, n_labels=tuple(t[0] if t else None for t in label_sets))

    def validate(self) -> list[str]:
        """The shared conditions, plus as many empty runs (i, -, i') as
        reversed runs (i', -, i) for every ordered pair of p-labels."""
        problems = super().validate()
        runs: dict[tuple[int, int], int] = {}
        for ends, j in zip(self._ends(), self.n_labels):
            if j is None:
                runs[ends] = runs.get(ends, 0) + 1
        for (i1, i2), count in runs.items():
            if runs.get((i2, i1), 0) != count:
                problems.append(
                    f"empty-label runs ({i1}, -, {i2}) occur {count} times but "
                    f"({i2}, -, {i1}) occur {runs.get((i2, i1), 0)}"
                )
        return problems


# ---------------------------------------------------------------------------
# enumeration


def _canonical_p_sequences(l: int, cap: int) -> list[tuple[int, ...]]:
    """First-appearance-canonical p-label cycles with distinct neighbors."""
    out: list[tuple[int, ...]] = []

    def extend(seq: list[int], used: int):
        if len(seq) == l:
            if seq[-1] != seq[0]:
                out.append(tuple(seq))
            return
        for lab in range(1, min(used + 1, cap) + 1):
            if lab == seq[-1]:
                continue
            seq.append(lab)
            extend(seq, max(used, lab))
            seq.pop()

    extend([1], 1)
    return out


def enumerate_multilabelings(l: int, max_tuple_size: int) -> list[MultiLabeling]:
    """All multi-labeling equivalence classes of the 2l-cycle with tuple
    sizes up to max_tuple_size, as canonical representatives sorted by
    canonical key.

    A class is a canonical p-sequence and the multiset of its n-labels'
    occurrence sets.  With em[s] the bits of the two p-labels beside
    n-vertex s, a label on the vertex set S meets each p-label an even
    number of times iff the em[s], s in S, XOR to 0.  The search walks the
    multisets of such sets depth first, as nondecreasing sequences of the
    sorted sets, each before its extensions: canonical-key order.  No
    n-vertex is covered more than max_tuple_size times, a multiset that
    covers all of them is emitted, and a branch ends once no set left
    holds the lowest uncovered n-vertex.

    SizeCapError is raised before any walk when max_tuple_size is past
    MAX_TUPLE_SIZES[l], or l has no entry, so every walk that starts ends.
    The classes are built once every walk has ended, and ConsistencyError
    is raised when one fails MultiLabeling.validate(max_tuple_size).
    """
    if l not in MAX_TUPLE_SIZES or max_tuple_size > MAX_TUPLE_SIZES[l]:
        raise SizeCapError(f"max_tuple_size={max_tuple_size} at l={l} is past the census table {MAX_TUPLE_SIZES}")
    if max_tuple_size < 1:
        raise ConfigError(f"max_tuple_size must be >= 1, got {max_tuple_size}")
    keys: list[tuple] = []
    for pseq in _canonical_p_sequences(l, l):
        em = [(1 << pseq[s]) | (1 << pseq[(s + 1) % l]) for s in range(l)]
        subsets = (S for r in range(1, l + 1) for S in itertools.combinations(range(l), r))
        sets = sorted(S for S in subsets if not functools.reduce(operator.xor, (em[s] for s in S)))

        # (start, chosen, cover) nodes; children are pushed in reverse, so
        # they pop in order, each subtree before the next child: pre-order
        stack = [(0, (), [0] * l)]
        while stack:
            start, chosen, cover = stack.pop()
            low = (*cover, 0).index(0)  # the lowest uncovered n-vertex, or l
            if low == l:
                keys.append((pseq, chosen))
            children = []
            for i, S in enumerate(sets[start:], start):
                if S[0] > low:  # the sets are sorted: none after S holds low
                    break
                if all(cover[s] < max_tuple_size for s in S):
                    children.append((i, (*chosen, S), [c + (s in S) for s, c in enumerate(cover)]))
            stack.extend(reversed(children))
    out = [MultiLabeling._from_key(*key) for key in keys]
    for ml in out:
        if ml.validate(max_tuple_size):
            raise ConsistencyError(f"search emitted an invalid labeling {ml}")
    return out


# ---------------------------------------------------------------------------
# lemma census


def verify_lemmas(classes: list[MultiLabeling]) -> list[dict]:
    """Machine-check the counting lemmas over an enumerated class census.

    The classes are taken as enumerate_multilabelings returns them, each
    already checked with validate(max_tuple_size).  label_simplifying_map's
    entry check, the map's public input check, validates each one again
    and raises ConfigError on an invalid one.  Checks, per class: the
    label-count bound (excess >= 0); the bound sum_{b_ij > 2} b_ij <= 12 *
    excess; that every n-label appears on at least two n-vertices; and that
    the label-simplifying image is a valid simple labeling with excess >= 0
    (the simple-labeling label-count bound).  Violations are returned as
    data, one dict per failure.
    """
    violations = []
    for ml in classes:
        delta = ml.excess
        if delta < 0:
            violations.append({"labeling": ml, "check": "label_count_bound", "detail": delta})
        heavy = sum(b for b in ml.edge_pair_counts().values() if b > 2)
        if heavy > 12 * delta:
            violations.append(
                {"labeling": ml, "check": "heavy_pair_bound", "detail": (heavy, delta)}
            )
        for j, count in ml.n_label_counts().items():
            if count < 2:
                violations.append(
                    {"labeling": ml, "check": "n_label_repetition", "detail": (j, count)}
                )
        image = label_simplifying_map(ml)
        image_problems = image.validate()
        if image_problems:
            violations.append(
                {"labeling": ml, "check": "image_validity", "detail": image_problems}
            )
        elif image.excess < 0:
            violations.append(
                {"labeling": ml, "check": "simple_label_count_bound", "detail": image.excess}
            )
    return violations


# ---------------------------------------------------------------------------
# label-simplifying map


def _classify(ml: MultiLabeling):
    """Tag every n-vertex: 'good_single', 'bad' (single or not), or a good
    pair id shared by exactly two vertices."""
    counts = ml.n_label_counts()
    by_set: dict[frozenset, list[int]] = {}
    for s, t in enumerate(ml.n_tuples):
        by_set.setdefault(frozenset(t), []).append(s)

    tags: list[object] = [None] * ml.l
    pair_id = 0
    for s, t in enumerate(ml.n_tuples):
        if tags[s] is not None:
            continue
        mates = by_set[frozenset(t)]
        if len(t) == 1:
            # mates carry exactly {j}: j is a good single iff it is on no other vertex
            tags[s] = "good_single" if counts[t[0]] == len(mates) else "bad"
        elif len(mates) == 2 and all(counts[j] == 2 for j in t):
            a, b = mates
            tags[a] = tags[b] = ("pair", pair_id)
            pair_id += 1
        else:
            tags[s] = "bad"
    return tags


def label_simplifying_map(ml: MultiLabeling) -> SimpleLabeling:
    """Map a multi-labeling to a simple labeling.

    Good pairs whose surrounding p-labels sit in the "parallel" (improper)
    arrangement are first made antiparallel by reversing the cycle segment
    between the p-vertices that follow the two pair members (smallest
    tuple first, for determinism); then good pairs become the empty label,
    good singles keep their label, and every bad n-vertex receives one
    shared fresh label.  The p-labels, and hence their distinct count, are
    preserved.  The image is not validated here: `verify_lemmas` checks it
    and reports a failure as an `image_validity` violation.
    """
    problems = ml.validate()
    if problems:
        raise ConfigError(f"label-simplifying map needs a valid labeling: {problems}")
    tags = _classify(ml)
    # the 2l-cycle: place 2s holds p-vertex s's label, place 2s + 1 n-vertex s's index
    cycle = [x for s, i in enumerate(ml.p_labels) for x in (i, s)]
    size = len(cycle)
    pairs = sum(isinstance(tag, tuple) for tag in tags) // 2
    # pairs + 2 reversals may run; a pair still parallel after them raises
    for _ in range(pairs + 3):
        places: dict[tuple, list[int]] = {}
        for k in range(1, size, 2):
            if isinstance(tags[cycle[k]], tuple):
                places.setdefault(tags[cycle[k]], []).append(k)
        improper = []
        for tag, (a, b) in sorted(places.items()):
            ends_a = cycle[a - 1], cycle[(a + 1) % size]
            ends_b = cycle[b - 1], cycle[(b + 1) % size]
            if ends_a == ends_b[::-1]:
                continue  # antiparallel: nothing to do
            if ends_a != ends_b:
                raise ConsistencyError(
                    f"good pair {tag[1]} has mismatched surrounding p-labels; "
                    "input cannot satisfy the even-incidence condition"
                )
            improper.append((tuple(sorted(ml.n_tuples[cycle[a]])), tag, a, b))
        if not improper:
            break
        _, _, a, b = min(improper)
        run = [k % size for k in range(a + 1, b + 2)]
        for k, x in zip(run, [cycle[k] for k in reversed(run)]):
            cycle[k] = x
    else:
        raise ConsistencyError("segment reversals failed to terminate")

    fresh = max(j for t in ml.n_tuples for j in t) + 1
    n_labels = tuple(
        None if isinstance(tags[s], tuple)
        else ml.n_tuples[s][0] if tags[s] == "good_single"
        else fresh
        for s in cycle[1::2]
    )
    out = SimpleLabeling(p_labels=tuple(cycle[::2]), n_labels=n_labels)
    if out.distinct_p != ml.distinct_p:
        raise ConsistencyError("label-simplifying map changed the distinct p-label count")
    return out


# ---------------------------------------------------------------------------
# Monte Carlo trace moments


def first_order_matrix(X: np.ndarray, coeffs) -> np.ndarray:
    """The dominant matrix Q(X) for X of shape (..., p, n), whose leading
    axes are a batch.  Off the diagonal,
    Q[i, i'] = sum_d coeffs[d-1] sqrt(d!/n^d) e_d(z) / sqrt(n), where z holds
    the entry products X[i, j] X[i', j] over the n columns; the diagonal is
    zero.  One sweep over the columns updates every pair at once, holding
    one p x p product (per batch entry) at a time."""
    X = np.asarray(X, dtype=float)
    *batch, p, n = X.shape
    scale = [
        float(c) * math.sqrt(math.factorial(d) / float(n) ** d)
        for d, c in enumerate(coeffs, start=1)
    ]
    if not scale:
        raise ConfigError("need at least one kernel coefficient")
    # batch axes innermost: the products then run over long contiguous rows
    Xt = np.moveaxis(X, (-2, -1), (0, 1)).copy()
    products = (Xt[:, None, j] * Xt[None, :, j] for j in range(n))
    e = elementary_symmetric(products, len(scale), shape=(p, p, *batch))
    Q = scale[0] * e[1]
    for d in range(2, len(scale) + 1):
        Q += scale[d - 1] * e[d]
    Q /= math.sqrt(n)
    Q[range(p), range(p)] = 0.0
    return np.moveaxis(Q, (0, 1), (-2, -1)).copy()


def sample_trace_moment(
    l: int,
    n: int,
    p: int,
    coeffs,
    entry_law="standard_gaussian",
    trials: int = 10**5,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo (mean, standard error) of Tr Q(X)^l."""
    if not 2 <= l <= TRACE_L_CAP:
        raise SizeCapError(f"l must be in [2, {TRACE_L_CAP}], got {l}")
    if trials < 2:
        raise ConfigError(f"trials must be >= 2 for a standard error, got {trials}")
    law = EntryLaw(entry_law)
    gen = rngmod.derive_rng(seed, rngmod.STREAM_TRIAL)
    values = np.empty(trials)
    batch = min(trials, 20000)
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        Q = first_order_matrix(law.sample(gen, (b, p, n)), coeffs)
        if l == 2:
            tr = np.einsum("bij,bji->b", Q, Q)
        elif l == 3:
            tr = np.einsum("bij,bjk,bki->b", Q, Q, Q)
        else:
            Q2 = Q @ Q
            tr = np.einsum("bij,bji->b", Q2, Q2)
        values[done : done + b] = tr
        done += b
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(trials))
    return mean, se
