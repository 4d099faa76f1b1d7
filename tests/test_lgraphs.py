import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kernelspectra import lgraphs
from kernelspectra.errors import ConfigError, ConsistencyError, SizeCapError
from kernelspectra.lgraphs import (
    MultiLabeling,
    SimpleLabeling,
    _canonical_p_sequences,
    enumerate_multilabelings,
    exact_trace_moment,
    first_order_matrix,
    label_simplifying_map,
    sample_trace_moment,
    verify_lemmas,
)

# a labeling with 3 distinct p-labels, tuple sizes (3,3,1,1), 4 distinct
# n-labels, and zero excess: a good pair carrying labels {1,2,3} plus two
# good singles sharing label 4
ZERO_EXCESS_EXAMPLE = MultiLabeling(
    p_labels=(1, 2, 1, 3),
    n_tuples=((1, 2, 3), (1, 2, 3), (4,), (4,)),
)


def naive_validate(ml: MultiLabeling, max_tuple_size=None) -> bool:
    """Independent condition-by-condition checker, written from scratch."""
    l = len(ml.p_labels)
    for s in range(l):
        if ml.p_labels[s] == ml.p_labels[(s + 1) % l]:
            return False
    for t in ml.n_tuples:
        if not 1 <= len(t) and len(set(t)) == len(t):
            return False
        if max_tuple_size is not None and len(t) > max_tuple_size:
            return False
    incidences = {}
    for s, t in enumerate(ml.n_tuples):
        for j in t:
            for i in (ml.p_labels[s], ml.p_labels[(s + 1) % l]):
                incidences[(i, j)] = incidences.get((i, j), 0) + 1
    return all(c % 2 == 0 for c in incidences.values())


def naive_simple_validate(sl: SimpleLabeling) -> bool:
    """Independent checker for simple labelings, written from scratch:
    distinct neighbouring p-labels, an even number of edges between every
    p-label and every non-empty n-label, and as many empty runs (i, -, i')
    as reversed runs (i', -, i) for every ordered pair of p-labels."""
    l = len(sl.p_labels)
    around = [(sl.p_labels[s], sl.p_labels[(s + 1) % l]) for s in range(l)]
    if any(i == i2 for i, i2 in around):
        return False
    for j in {j for j in sl.n_labels if j is not None}:
        for i in set(sl.p_labels):
            edges = sum((i1 == i) + (i2 == i) for (i1, i2), k in zip(around, sl.n_labels) if k == j)
            if edges % 2:
                return False
    runs = [pair for pair, k in zip(around, sl.n_labels) if k is None]
    return all(runs.count(pair) == runs.count(pair[::-1]) for pair in runs)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_l2_depth1():
    classes = enumerate_multilabelings(2, 1)
    assert len(classes) == 1
    only = classes[0]
    assert only.p_labels == (1, 2)
    assert only.n_tuples == ((1,), (1,))
    assert only.excess == 0


def test_enumerate_l2_depth2_tuples_match():
    for c in enumerate_multilabelings(2, 2):
        assert c.tuple_sizes[0] == c.tuple_sizes[1]
        assert c.n_tuples[0] == c.n_tuples[1]


def test_enumerate_l3_depth1():
    classes = enumerate_multilabelings(3, 1)
    assert len(classes) == 1
    assert classes[0].p_labels == (1, 2, 3)
    assert classes[0].n_tuples == ((1,), (1,), (1,))
    assert classes[0].excess == 0


def test_enumeration_is_complete_for_l2_brute_force():
    # oracle: enumerate every raw (p, n)-labeling with p = 3, n = 2 labels
    # at depth 2, keep the valid ones, and collapse by canonical key
    raw_keys = set()
    raw_count = 0
    tuples = [t for size in (1, 2) for t in itertools.permutations(range(1, 3), size)]
    for p1, p2 in itertools.permutations(range(1, 4), 2):
        for t1 in tuples:
            for t2 in tuples:
                ml = MultiLabeling(p_labels=(p1, p2), n_tuples=(t1, t2))
                if naive_validate(ml, 2):
                    raw_count += 1
                    raw_keys.add(ml.canonical_key())
    enumerated = {c.canonical_key() for c in enumerate_multilabelings(2, 2)}
    assert raw_keys == enumerated
    # orbit sizes: d=1 class has 3*2*2 = 12 raw labelings (ordered distinct
    # p-pair, one n-label); the d=2 class has 3*2 * (2*1) * 2 = 24 counting
    # both tuple orders of (1,2) on each vertex consistently
    assert raw_count == 12 + 24


def test_enumeration_respects_state_cap(monkeypatch):
    with pytest.raises(SizeCapError):
        enumerate_multilabelings(7, 1)
    monkeypatch.setattr(lgraphs, "STATE_CAP", 10)
    with pytest.raises(SizeCapError):
        enumerate_multilabelings(4, 3)


def backtracking_multilabelings(l, max_tuple_size):
    """Census oracle: a plain backtracking search in canonical form (fresh
    labels take consecutive numbers) over dict-of-set odd-incidence rows,
    with parity pruning; only the final n-vertex is forced.  Keyed and
    sorted like enumerate_multilabelings."""
    found = {}
    for pseq in _canonical_p_sequences(l, l):
        tuples = []
        odd_rows = {}  # n-label -> p-labels with odd incidence

        def toggle(s, labels):
            for i in (pseq[s], pseq[(s + 1) % l]):
                for j in labels:
                    rows = odd_rows.setdefault(j, set())
                    rows.symmetric_difference_update({i})
                    if not rows:
                        del odd_rows[j]

        def candidates(s, used):
            if s == l - 1:
                needed = set(odd_rows)
                if not 1 <= len(needed) <= max_tuple_size:
                    return
                rows = {pseq[s], pseq[(s + 1) % l]}
                if all(odd_rows[j] == rows for j in needed):
                    yield tuple(sorted(needed)), used
                return
            for size in range(1, max_tuple_size + 1):
                for n_old in range(0, min(size, used) + 1):
                    n_new = size - n_old
                    fresh = tuple(range(used + 1, used + n_new + 1))
                    for old in itertools.combinations(range(1, used + 1), n_old):
                        yield old + fresh, used + n_new

        def search(s, used):
            if s == l:
                if odd_rows:
                    return
                ml = MultiLabeling(p_labels=pseq, n_tuples=tuple(tuples))
                assert naive_validate(ml, max_tuple_size)
                canon = ml.canonical()
                found.setdefault(canon.canonical_key(), canon)
                return
            remaining = l - s - 1
            for labels, used_after in candidates(s, used):
                toggle(s, labels)
                # one future inclusion of j repairs at most two of its odd rows
                need = sum((len(rows) + 1) // 2 for rows in odd_rows.values())
                if need <= max_tuple_size * remaining:
                    tuples.append(labels)
                    search(s + 1, used_after)
                    tuples.pop()
                toggle(s, labels)

        search(0, 0)
    return [found[k] for k in sorted(found)]


@pytest.mark.parametrize(
    "l, depth", [(l, d) for l in range(2, 6) for d in (1, 2, 3)] + [(6, 1), (6, 2)]
)
def test_enumeration_matches_backtracking_oracle(l, depth):
    # same classes, same representatives, same order
    assert enumerate_multilabelings(l, depth) == backtracking_multilabelings(l, depth)


@pytest.mark.parametrize(
    "l, depth, count",
    [
        (4, 1, 9), (4, 2, 58), (4, 3, 259), (5, 1, 31), (5, 2, 237), (5, 3, 1168),
        (6, 2, 7897), (6, 3, 234880),
    ],
)
def test_census_class_counts(l, depth, count):
    assert len(enumerate_multilabelings(l, depth)) == count


def test_census_6_3_matches_the_labeling_search_census():
    # past the oracle's reach: SHA-256 of the canonical-key list that the
    # earlier labeling-by-labeling search built, which canonicalised every
    # labeling it found and sorted the distinct keys
    keys = [c.canonical_key() for c in enumerate_multilabelings(6, 3)]
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == (
        "c7cb7d26714067b8143642a5e6dcfa179eff6d3f75a021f56146f27f336623e4"
    )


def test_state_cap_trips_before_any_class_is_built(monkeypatch):
    # (5, 3) emits classes within its first thousand states; none is built
    # until every walk has ended inside the cap
    def build(cls, p_key, n_key):
        raise AssertionError("a class was built before the state cap tripped")

    monkeypatch.setattr(lgraphs, "STATE_CAP", 1000)
    monkeypatch.setattr(MultiLabeling, "_from_key", classmethod(build))
    with pytest.raises(SizeCapError, match="state cap 1000"):
        enumerate_multilabelings(5, 3)


def test_enumeration_validates_every_emitted_labeling(monkeypatch):
    monkeypatch.setattr(MultiLabeling, "validate", lambda self, cap=None: ["planted problem"])
    with pytest.raises(ConsistencyError, match="invalid labeling"):
        enumerate_multilabelings(3, 1)


def test_validation_matches_naive_checker_on_random_candidates():
    rng = np.random.default_rng(0)
    agree = 0
    for _ in range(10_000):
        l = int(rng.integers(2, 5))
        p_labels = tuple(int(x) for x in rng.integers(1, 4, size=l))
        n_tuples = []
        for _ in range(l):
            size = int(rng.integers(1, 4))
            labels = rng.choice(np.arange(1, 6), size=size, replace=False)
            n_tuples.append(tuple(int(j) for j in labels))
        ml = MultiLabeling(p_labels=p_labels, n_tuples=tuple(n_tuples))
        assert (not ml.validate(3)) == naive_validate(ml, 3)
        assert ml.validate(3) == ml.validate(3)  # idempotent
        agree += 1
    assert agree == 10_000


def test_canonicalization_idempotent():
    rng = np.random.default_rng(1)
    for c in enumerate_multilabelings(4, 2):
        once = c.canonical()
        assert once.canonical_key() == c.canonical_key()
        assert once.canonical() == once
        # applying label permutations must not change the key
        p_perm = {i: int(v) for i, v in zip(range(1, 9), rng.permutation(np.arange(10, 18)))}
        n_perm = {j: int(v) for j, v in zip(range(1, 15), rng.permutation(np.arange(20, 34)))}
        shuffled = MultiLabeling(
            p_labels=tuple(p_perm[i] for i in c.p_labels),
            n_tuples=tuple(tuple(reversed([n_perm[j] for j in t])) for t in c.n_tuples),
        )
        assert shuffled.canonical_key() == c.canonical_key()


# ---------------------------------------------------------------------------
# excess and lemma census


def test_excess_examples():
    assert ZERO_EXCESS_EXAMPLE.excess == 0
    assert ZERO_EXCESS_EXAMPLE.m == 7
    assert MultiLabeling(p_labels=(1, 2), n_tuples=((1,), (1,))).excess == 0


def test_excess_half_integer_is_flagged_not_rejected():
    ml = MultiLabeling(p_labels=(1, 2, 3), n_tuples=((1, 2), (1, 2), (1, 2)))
    assert not ml.validate(2)  # valid labeling
    assert ml.excess == Fraction(1, 2)


def test_lemma_census_is_clean():
    for l, depth in [(l, d) for l in (2, 3, 4) for d in (1, 2, 3)] + [(5, 3), (6, 2)]:
        assert verify_lemmas(enumerate_multilabelings(l, depth)) == []


def test_every_enumerated_class_has_nonnegative_excess():
    for c in enumerate_multilabelings(4, 3):
        assert Fraction(c.excess) >= 0


def test_zero_excess_classes_have_flat_incidences():
    for c in enumerate_multilabelings(4, 3):
        if Fraction(c.excess) == 0:
            assert all(b in (0, 2) for b in c.edge_pair_counts().values())


def test_invalid_labeling_rejected_before_lemma_checks():
    # odd incidence count: label 1 appears once only
    # the census validates every class it returns, so the lemma check does
    # not; the map's entry check still stops a class from elsewhere
    bad = MultiLabeling(p_labels=(1, 2), n_tuples=((1,), (2,)))
    assert bad.validate(2)
    with pytest.raises(ConfigError, match="valid labeling"):
        verify_lemmas([bad])


def test_invalid_image_is_reported_as_a_violation(monkeypatch):
    # the map used to raise on its own image check, so the census never
    # saw an image_validity violation
    classes = enumerate_multilabelings(3, 2)
    monkeypatch.setattr(SimpleLabeling, "validate", lambda self: ["planted problem"])
    report = verify_lemmas(classes)
    assert [v["check"] for v in report] == ["image_validity"] * len(classes)
    assert all(v["detail"] == ["planted problem"] for v in report)


# ---------------------------------------------------------------------------
# label-simplifying map


def test_map_zero_excess_example():
    image = label_simplifying_map(ZERO_EXCESS_EXAMPLE)
    assert image.p_labels == (1, 2, 1, 3)
    assert image.n_labels == (None, None, 4, 4)
    assert image.excess == 0
    assert sum(j is not None for j in image.n_labels) == 2  # filled n-vertices
    assert not image.validate()


def test_map_all_good_singles_is_identity_up_to_relabeling():
    ml = MultiLabeling(p_labels=(1, 2, 3), n_tuples=((1,), (1,), (1,)))
    image = label_simplifying_map(ml)
    assert image.p_labels == ml.p_labels
    assert image.n_labels == (1, 1, 1)


def test_map_reverses_improper_pairs():
    # pair members at positions 0 and 2 with parallel surroundings (1,2 / 1,2)
    ml = MultiLabeling(p_labels=(1, 2, 1, 2), n_tuples=((1, 2), (3,), (1, 2), (3,)))
    assert not ml.validate(2)
    image = label_simplifying_map(ml)
    assert not image.validate()
    assert image.distinct_p == ml.distinct_p
    assert sorted(image.n_labels, key=str) == sorted([None, None, 3, 3], key=str)


def test_map_preserves_p_count_and_bounds_excess():
    # the image excess is controlled linearly by the input excess
    for depth in (1, 2, 3):
        for c in enumerate_multilabelings(4, depth):
            image = label_simplifying_map(c)
            assert not image.validate()
            assert image.distinct_p == c.distinct_p
            assert Fraction(image.excess) <= 97 * depth * Fraction(c.excess)


def test_map_respects_equivalence():
    rng = np.random.default_rng(2)
    for c in enumerate_multilabelings(4, 2)[::5]:
        base_key = label_simplifying_map(c).canonical_key()
        p_perm = {i: int(v) for i, v in zip(range(1, 9), rng.permutation(np.arange(30, 38)))}
        n_perm = {j: int(v) for j, v in zip(range(1, 17), rng.permutation(np.arange(40, 56)))}
        twin = MultiLabeling(
            p_labels=tuple(p_perm[i] for i in c.p_labels),
            n_tuples=tuple(tuple(n_perm[j] for j in t) for t in c.n_tuples),
        )
        assert label_simplifying_map(twin).canonical_key() == base_key


def test_map_images_match_the_slot_list_map():
    # SHA-256 of every class's key and image for l <= 5 at d <= 3 and for
    # (6, 2), recorded from the map that reversed runs of tagged slot tuples
    rows = []
    for l, depth in [(2, 3), (3, 3), (4, 3), (5, 3), (6, 2)]:
        for c in enumerate_multilabelings(l, depth):
            image = label_simplifying_map(c)
            rows.append((c.canonical_key(), image.p_labels, image.n_labels))
    assert len(rows) == 9330
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "3f43b5bde55a5c8ef19cc5427e9450919df2306338cb298511b145fb0beaf0a9"
    )


def test_map_rejects_a_pair_with_mismatched_surroundings(monkeypatch):
    # tagged as a good pair, vertices 0 and 1 sit between (1, 2) and (2, 3)
    ml = MultiLabeling(p_labels=(1, 2, 3), n_tuples=((1,), (1,), (1,)))
    monkeypatch.setattr(lgraphs, "_classify", lambda ml: [("pair", 0), ("pair", 0), "bad"])
    with pytest.raises(ConsistencyError, match="mismatched surrounding"):
        label_simplifying_map(ml)


def test_map_rejects_invalid_input():
    with pytest.raises(ConfigError):
        label_simplifying_map(MultiLabeling(p_labels=(1, 2), n_tuples=((1,), (2,))))


def simple_labelings(l):
    """Simple-labeling classes of the 2l-cycle as canonical representatives,
    sorted by canonical key: every valid labeling of a canonical p-sequence
    whose n-labels first appear in the order 1, 2, ..."""
    first_appearance = [
        t for t in itertools.product([None, *range(1, l + 1)], repeat=l)
        if list(dict.fromkeys(j for j in t if j)) == list(range(1, len(set(t) - {None}) + 1))
    ]
    found = {}
    for pseq, n_labels in itertools.product(_canonical_p_sequences(l, l), first_appearance):
        sl = SimpleLabeling(p_labels=pseq, n_labels=n_labels)
        if not sl.validate():
            found.setdefault(sl.canonical_key(), sl.canonical())
    return [found[k] for k in sorted(found)]


def test_simple_labeling_enumeration_and_validation():
    classes = simple_labelings(4)
    assert classes  # nonempty
    for c in classes:
        assert not c.validate()
        assert Fraction(c.excess) >= 0
    # the all-empty labeling at l=4 needs matched reversals: (1,2,1,2) works
    keys = {c.canonical_key() for c in classes}
    alternating = SimpleLabeling(p_labels=(1, 2, 1, 2), n_labels=(None,) * 4)
    assert not alternating.validate()
    assert alternating.canonical_key() in keys


def test_simple_labeling_rejects_unbalanced_empty_runs():
    sl = SimpleLabeling(p_labels=(1, 2, 3), n_labels=(None, None, None))
    assert sl.validate()  # (1,-,2) occurs once but (2,-,1) never


def test_simple_validation_matches_naive_checker_on_random_candidates():
    rng = np.random.default_rng(7)
    valid = 0
    for _ in range(10_000):
        l = int(rng.integers(2, 6))
        p_labels = tuple(int(x) for x in rng.integers(1, 4, size=l))
        n_labels = tuple(None if x == 0 else int(x) for x in rng.integers(0, 3, size=l))
        sl = SimpleLabeling(p_labels=p_labels, n_labels=n_labels)
        ok = naive_simple_validate(sl)
        assert (not sl.validate()) == ok
        valid += ok
    assert 500 < valid < 9_500  # both outcomes are well represented
    # the empty-run balance alone decides these two
    assert not naive_simple_validate(SimpleLabeling((1, 2, 3), (None,) * 3))
    balanced = SimpleLabeling(p_labels=(1, 2, 1, 3), n_labels=(None, None, 4, 4))
    assert naive_simple_validate(balanced) and not balanced.validate()


def test_simple_canonicalization_idempotent_and_relabeling_invariant():
    rng = np.random.default_rng(8)
    for l in (4, 5):
        for c in simple_labelings(l):
            once = c.canonical()
            assert once == c  # the enumeration returns canonical representatives
            assert once.canonical_key() == c.canonical_key()
            assert once.canonical() == once
            p_perm = {i: int(v) for i, v in zip(range(1, 9), rng.permutation(np.arange(10, 18)))}
            n_perm = {j: int(v) for j, v in zip(range(1, 9), rng.permutation(np.arange(20, 28)))}
            shuffled = SimpleLabeling(
                p_labels=tuple(p_perm[i] for i in c.p_labels),
                n_labels=tuple(None if j is None else n_perm[j] for j in c.n_labels),
            )
            assert shuffled.canonical_key() == c.canonical_key()
            assert shuffled.canonical() == once
            assert not shuffled.validate()
    # idempotence off the enumerated classes too, valid or not
    for _ in range(500):
        l = int(rng.integers(2, 6))
        sl = SimpleLabeling(
            p_labels=tuple(int(x) for x in rng.integers(5, 9, size=l)),
            n_labels=tuple(None if x == 0 else int(x) for x in rng.integers(0, 9, size=l)),
        )
        once = sl.canonical()
        assert once.canonical() == once
        assert once.canonical_key() == sl.canonical_key()
        assert bool(once.validate()) == bool(sl.validate())


# ---------------------------------------------------------------------------
# trace moments


def test_trace_moment_linear_kernel_closed_form():
    # E[Tr Q^2] = p(p-1)/n for the pure degree-1 kernel
    assert exact_trace_moment(2, 6, 6, [1.0]) == pytest.approx(5.0, abs=1e-12)
    for n, p in ((3, 4), (5, 2), (6, 3)):
        assert exact_trace_moment(2, n, p, [1.0]) == pytest.approx(p * (p - 1) / n, abs=1e-12)


def test_trace_moment_l3_linear_closed_form():
    # one fully-shared column index: p(p-1)(p-2)/n^2
    for n, p in ((4, 4), (6, 5)):
        assert exact_trace_moment(3, n, p, [1.0]) == pytest.approx(
            p * (p - 1) * (p - 2) / n**2, abs=1e-12
        )


def test_trace_moment_l2_general_closed_form():
    # E[e_d(z) e_{d'}(z)] = delta_{dd'} C(n, d) for unit-variance entry
    # products, so E[Tr Q^2] = p(p-1)/n * sum_d a_d^2 d! C(n,d) / n^d
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, p = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        coeffs = [float(c) for c in rng.standard_normal(3)]
        expected = (
            p
            * (p - 1)
            / n
            * sum(
                c**2 * math.factorial(d) * math.comb(n, d) / n**d
                for d, c in enumerate(coeffs, start=1)
            )
        )
        got = exact_trace_moment(2, n, p, coeffs)
        assert got == pytest.approx(expected, rel=1e-12)
        # only second moments of the entries enter at l = 2
        assert exact_trace_moment(2, n, p, coeffs, "symmetric_rademacher") == pytest.approx(
            expected, rel=1e-12
        )


def test_trace_moment_monte_carlo_agreement():
    mean, se = sample_trace_moment(2, 6, 6, [1.0], trials=30_000, seed=4)
    assert abs(mean - 5.0) <= 3 * se
    exact = exact_trace_moment(4, 4, 5, [1.0, 0.5], entry_law="symmetric_rademacher")
    mean, se = sample_trace_moment(
        4, 4, 5, [1.0, 0.5], entry_law="symmetric_rademacher", trials=30_000, seed=5
    )
    assert abs(mean - exact) <= 3 * se


def test_first_order_matrix_matches_decomposition_scale():
    # Q entries for the linear kernel are the off-diagonal Gram entries / n
    rng = np.random.default_rng(6)
    X = rng.standard_normal((5, 6))
    Q = first_order_matrix(X, [1.0])
    expected = X @ X.T / 6
    np.fill_diagonal(expected, 0.0)
    assert np.max(np.abs(Q - expected)) < 1e-12


def per_pair_first_order_matrix(X, coeffs):
    """Q(X) entry by entry, from the distinct-index sums e_d(z) over the
    column subsets of size d."""
    p, n = X.shape
    Q = np.zeros((p, p))
    for i, i2 in itertools.permutations(range(p), 2):
        z = X[i] * X[i2]
        for d, c in enumerate(coeffs, start=1):
            subsets = itertools.combinations(range(n), d)
            e_d = math.fsum(math.prod(z[list(cols)]) for cols in subsets)
            Q[i, i2] += c * math.sqrt(math.factorial(d) / n**d) * e_d / math.sqrt(n)
    return Q


@given(
    hnp.arrays(
        float,
        st.tuples(st.integers(1, 3), st.integers(2, 5), st.integers(1, 6)),
        elements=st.floats(-3.0, 3.0),
    ),
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
)
def test_first_order_matrix_against_per_pair_sums(X, coeffs):
    Q = first_order_matrix(X, coeffs)
    assert Q.shape == X.shape[:1] + (X.shape[1],) * 2
    for b in range(X.shape[0]):
        # the batch axis changes nothing: each slice is its own Q exactly
        assert np.array_equal(Q[b], first_order_matrix(X[b], coeffs))
        assert np.array_equal(Q[b], Q[b].T)
        assert np.all(np.diag(Q[b]) == 0.0)
        expected = per_pair_first_order_matrix(X[b], coeffs)
        bound = per_pair_first_order_matrix(np.abs(X[b]), np.abs(coeffs))
        assert np.all(np.abs(Q[b] - expected) <= 1e-13 * bound + 1e-300)


@pytest.mark.parametrize("trials", [0, 1])
def test_sample_trace_moment_needs_two_trials(trials):
    with pytest.raises(ConfigError, match="trials"):
        sample_trace_moment(2, 4, 4, [1.0], trials=trials)


def test_trace_moment_size_caps():
    with pytest.raises(SizeCapError):
        exact_trace_moment(5, 4, 4, [1.0])
    with pytest.raises(SizeCapError):
        exact_trace_moment(2, 7, 4, [1.0])
    with pytest.raises(SizeCapError):
        exact_trace_moment(2, 4, 7, [1.0])
    with pytest.raises(SizeCapError):
        exact_trace_moment(2, 4, 4, [1.0, 0.0, 0.0, 1.0])
