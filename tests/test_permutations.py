import itertools
import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from test_paths import random_path

import crossnest.paths as paths_module
import crossnest.permutations as permutations_module
from crossnest.bijections import phi1, phi2, phi3, phi3_inverse
from crossnest.paths import check_path, enumerate_paths, path_from_head_tail
from crossnest.permutations import (
    PermClass,
    _fp_exc_crs_nes_inv,
    _head_tail_pairs,
    _permutation_from_head_tail,
    avoids_barred_3142,
    check_permutation,
    contains_321,
    contains_3412,
    contains_4321,
    contains_classical,
    cycle_string,
    enumerate_class,
    head_tail_pairs,
    in_class,
    is_involution,
    is_permutation_word,
    one_line,
    parse_permutation,
    perm_statistics,
    permutation_from_head_tail,
)
from crossnest.polynomials import MultiPoly
from crossnest.oracle import StatSpec, distribution, run_suite
from crossnest.qmotzkin import (
    h_recursion_rhs,
    h_tableau,
    motzkin_number,
    q_motzkin,
    q_motzkin_tilde,
    stieltjes_tableau,
)
from crossnest.series import FractionSpec, jfraction_series, named_series

SHOWCASE = (4, 6, 2, 9, 8, 1, 7, 3, 10, 5)

perm_strategy = st.integers(min_value=0, max_value=16).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)
)


def pair_loop_statistics(w):
    # Reference: (fp, exc, crs, nes, inv) straight from the definitions in
    # the permutations module docstring, over every pair of positions.
    fp = exc = crs = nes = inv = 0
    n = len(w)
    for i in range(1, n + 1):
        si = w[i - 1]
        if si == i:
            fp += 1
        elif si > i:
            exc += 1
        for j in range(i + 1, n + 1):
            sj = w[j - 1]
            if si > sj:
                inv += 1
            if (j < si < sj) or (si < sj <= i):
                crs += 1
            elif (j < sj < si) or (sj < si <= i):
                nes += 1
    return fp, exc, crs, nes, inv


def value_scan_statistics(w):
    # Reference for words too long for the pair loop: a two-pass kernel
    # that scans the letters upwards.  One pass by position gives fp, exc,
    # the excedance positions and pos[v]; then, with ``lower`` the positions
    # of the letters below v and i = pos[v], the positions of ``lower``
    # after i are the inversions whose larger letter is v, and each crossing
    # and nesting is counted at its end with the larger letter v.
    n = len(w)
    pos = [0] * (n + 1)
    fp = exc = exc_mask = 0
    for i, s in enumerate(w, 1):
        pos[s] = i
        if s > i:
            exc += 1
            exc_mask |= 1 << i
        elif s == i:
            fp += 1
    crs = nes = inv = lower = 0
    for v in range(1, n + 1):
        i = pos[v]
        later = lower >> (i + 1)
        k = later.bit_count()
        inv += k
        if v > i:
            nes += (later & (exc_mask >> (i + 1))).bit_count()
            crs += v - i - 1 - (lower & ((1 << v) - (2 << i))).bit_count()
        else:
            nes += k
            crs += (lower & ((1 << i) - (1 << v))).bit_count()
        lower |= 1 << i
    return fp, exc, crs, nes, inv


def extreme_words(n):
    # The identity, the reversal, i -> i + 1 mod n and its inverse, and
    # (2, 1, 4, 3, ...) for even n: all fixed points, nestings only, all
    # excedances but one, all deficiencies but one, and 2-cycles side by
    # side, the ends of each branch of the one-pass kernel.
    yield tuple(range(1, n + 1))
    yield tuple(range(n, 0, -1))
    yield tuple(range(2, n + 1)) + (1,)
    yield (n,) + tuple(range(1, n))
    yield tuple(v for a in range(1, n, 2) for v in (a + 1, a))


def brute(w):
    # Reference for the barred pattern, restated directly: every 231
    # occurrence must have an interior letter below its "1".
    n = len(w)
    for i, j, k in itertools.combinations(range(n), 3):
        if w[k] < w[i] < w[j]:
            if not any(w[l] < w[k] for l in range(i + 1, j)):
                return False
    return True


def sliding_head_tail_pairs(w):
    # Reference: repeatedly slide the largest letter v still left of its
    # home position v there, recording (v - 1, the position it left).
    w = list(w)
    pairs = []
    while True:
        best_v = 0
        best_i = -1
        for i, v in enumerate(w):
            if v > i + 1 and v > best_v:
                best_v, best_i = v, i
        if not best_v:
            break
        w.pop(best_i)
        w.insert(best_v - 1, best_v)
        pairs.append((best_v - 1, best_i + 1))
    return tuple(reversed(pairs))


def swapping_permutation_from_head_tail(pairs, n):
    # Reference: apply each block s_h ... s_t to the identity in ascending
    # head order, one adjacent swap of positions i and i + 1 at a time.
    w = list(range(1, n + 1))
    for h, t in pairs:
        for i in range(h, t - 1, -1):
            w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def involutions_lex(n):
    # Reference: every involution in lexicographic order.  Pair the first
    # free (zero) position i with a free j >= i, j == i a fixed point;
    # trying j in increasing order gives lexicographic order.
    word = [0] * n
    stack = []
    i = j = 0
    while True:
        while j < n and word[j]:
            j += 1
        if j < n:
            word[i], word[j] = j + 1, i + 1
            stack.append((i, j))
            while i < n and word[i]:
                i += 1
            j = i
            continue
        if i == n:
            yield tuple(word)
        if not stack:
            return
        i, j = stack.pop()
        word[i] = word[j] = 0
        j += 1


INVOLUTIVE = {PermClass.INVOLUTIONS, PermClass.I4321, PermClass.I3412}


def filtered_class(n, cls):
    # Reference: the family's base, every involution or every permutation,
    # filtered through the word tests of in_class.
    base = (involutions_lex(n) if cls in INVOLUTIVE
            else itertools.permutations(range(1, n + 1)))
    return (w for w in base if in_class(w, cls))


def long_words(seed, count=12):
    # Seeded random permutations, then phi3 and phi2 images of seeded random
    # paths (the latter 3412-avoiding), all of length 20-60.
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(20, 60)
        yield tuple(rng.sample(range(1, n + 1), n))
    for phi in (phi3, phi2):
        for _ in range(count):
            yield phi(random_path(rng, rng.randint(20, 60)))


class TestBasics:
    def test_word_validation(self):
        assert is_permutation_word(())
        assert is_permutation_word((1,))
        assert not is_permutation_word((2,))
        assert not is_permutation_word((1, 1))
        assert not is_permutation_word((0, 1))
        # bool is a subclass of int, but True is not the letter 1.
        assert not is_permutation_word((2, True))
        with pytest.raises(ValueError):
            perm_statistics((True,))

    def test_check_rejects(self):
        with pytest.raises(ValueError):
            check_permutation((1, 3))

    def test_parse_and_render(self):
        assert parse_permutation("3 1 2") == (3, 1, 2)
        assert parse_permutation("") == ()
        assert one_line((3, 1, 2)) == "3 1 2"
        with pytest.raises(ValueError):
            parse_permutation("1 x 2")
        with pytest.raises(ValueError):
            parse_permutation("1 1")

    @settings(max_examples=100)
    @given(st.text())
    def test_parse_any_text_returns_or_raises_value_error(self, text):
        try:
            w = parse_permutation(text)
        except ValueError:
            return
        assert is_permutation_word(w)

    def test_cycle_string(self):
        assert cycle_string(SHOWCASE) == "(1 4 9 10 5 8 3 2 6)(7)"
        assert cycle_string(()) == "()"
        assert cycle_string((1, 2)) == "(1)(2)"

    def test_is_involution(self):
        assert is_involution(())
        assert is_involution((1,))
        assert is_involution((2, 1, 3))
        assert not is_involution((2, 3, 1))


def _outcome(check, obj):
    try:
        return "ok", check(obj)
    except ValueError as e:
        return "error", str(e)


def _with_bools(word):
    # An equal word with each 0 and 1 swapped with False and True, and back.
    swap = {(int, 0): False, (int, 1): True, (bool, 0): 0, (bool, 1): 1}
    return tuple(swap.get((type(v), v), v) for v in word)


def _spoiled(word, k, v):
    # The word with its k-th letter replaced by v (a bool, 0, n + 1 or a
    # duplicate); the word itself when it is empty.
    return word[:k] + (v,) + word[k + 1:] if word else word


def _stored(obj):
    return permutations_module._VALIDATED.get(id(obj)) is obj


class _Steps(str):
    pass


# Words and paths long enough for the validators to cache (16 letters).
LONG_WORD = tuple(random.Random(3).sample(range(1, 21), 20))
LONG_PATH = "uuhuudddudduuhdd"

word_cases = st.integers(0, 24).flatmap(lambda n: st.one_of(
    st.permutations(range(1, n + 1)).map(tuple),
    st.builds(_spoiled, st.permutations(range(1, n + 1)).map(tuple),
              st.integers(0, max(n - 1, 0)),
              st.sampled_from([True, False, 0, n + 1, 1, n])),
    st.lists(st.one_of(st.integers(0, n + 1), st.booleans()),
             min_size=n, max_size=n).map(tuple),
))
path_cases = st.one_of(
    st.text("uhdx", max_size=24),
    st.builds(lambda seed, n: random_path(random.Random(seed), n),
              st.integers(0, 2**32), st.integers(0, 30)),
    st.builds(lambda seed, n, k, ch: (lambda p: p[:k] + ch + p[k + 1:])(
                  random_path(random.Random(seed), n)),
              st.integers(0, 2**32), st.integers(16, 30), st.integers(0, 15),
              st.sampled_from("uhdx")),
)


class TestValidatedCache:
    """check_permutation and paths.check_path remember the exact tuples and
    strs of 16 or more letters they passed, by identity, in one bounded
    cache."""

    @pytest.fixture
    def walks(self, monkeypatch):
        counts = {"word": 0, "path": 0}

        def counting(kind, walk):
            def counted(word):
                counts[kind] += 1
                return walk(word)
            return counted

        monkeypatch.setattr(permutations_module, "is_permutation_word",
                            counting("word", is_permutation_word))
        monkeypatch.setattr(paths_module, "_walk_path",
                            counting("path", paths_module._walk_path))
        return counts

    def test_same_object_walks_once_equal_object_once_more(self, walks):
        w = tuple(list(LONG_WORD))
        assert check_permutation(w) is w
        assert perm_statistics(w) == perm_statistics(list(w))
        assert in_class(w, PermClass.ALL) and head_tail_pairs(w)
        assert walks["word"] == 2  # the list was walked, the tuple once
        twin = tuple(list(w))
        assert twin == w and twin is not w
        assert check_permutation(twin) is twin
        assert walks["word"] == 3
        path = "".join(list(LONG_PATH))
        for _ in range(3):
            assert check_path(path) is path
        assert walks["path"] == 1
        check_path("".join(list(path)))
        assert walks["path"] == 2

    def test_equal_bool_word_refused_after_int_word_passed(self):
        for w in ((1, 2), tuple(range(1, 21))):
            check_permutation(w)
            bad = (True,) + w[1:]
            assert bad == w
            n = len(w)
            with pytest.raises(ValueError, match=rf"^not a permutation of 1\.\.{n}: \(True, 2, "
                                                 if n > 2 else r"^not a permutation of 1\.\.2: \(True, 2\)$"):
                check_permutation(bad)
            with pytest.raises(ValueError, match="not a permutation"):
                perm_statistics(bad)
        assert _stored(w) and not _stored(bad)

    def test_lists_and_other_sequences_are_walked_every_time(self, walks):
        word = list(LONG_WORD)
        for f in (check_permutation, perm_statistics, contains_321, head_tail_pairs):
            f(word)
        assert walks["word"] == 4
        others = (_Steps(LONG_PATH), list(LONG_PATH), tuple(LONG_PATH))
        for path in others:
            for _ in range(3):
                assert check_path(path) is path
        assert walks["path"] == 9
        assert not any(_stored(x) for x in (word, *others))

    def test_short_words_and_paths_are_walked_every_time(self, walks):
        # Below 16 letters a walk costs about what the cache's bookkeeping
        # does, so nothing is stored.
        w, path = tuple(range(15, 0, -1)), "uhd" * 5
        for _ in range(3):
            assert check_permutation(w) is w
            assert check_path(path) is path
        assert walks == {"word": 3, "path": 3}
        assert not _stored(w) and not _stored(path)

    def test_kinds_do_not_mix(self):
        # A tuple that passed as a word is still walked, and refused, as a
        # path, and a path is never a word.
        w = tuple(list(LONG_WORD))
        check_permutation(w)
        with pytest.raises(ValueError, match=f"illegal character {w[0]} at index 1"):
            check_path(w)
        path = "".join(list(LONG_PATH))
        check_path(path)
        with pytest.raises(ValueError, match="not a permutation"):
            check_permutation(path)

    def test_bound_holds(self, walks):
        cache, ring = permutations_module._VALIDATED, permutations_module._VALIDATED_IDS
        size = len(ring)
        assert size == 8
        words = [tuple(random.Random(k).sample(range(1, 31), 30)) for k in range(3 * size)]
        for w in words:
            check_permutation(w)
            assert len(cache) <= size
        assert walks["word"] == 3 * size
        assert [_stored(w) for w in words] == [False] * (2 * size) + [True] * size
        for w in words[-size:]:
            check_permutation(w)
        assert walks["word"] == 3 * size
        check_permutation(words[0])
        assert walks["word"] == 3 * size + 1
        assert len(cache) <= size and len(ring) == size

    def test_an_orphan_left_by_a_race_is_dropped(self):
        # Two stores that read the same slot of the ring before either wrote
        # it leave an entry that no slot names.  It is a passed object, so it
        # admits nothing wrong; once the dict outgrows the ring it is emptied.
        cache = permutations_module._VALIDATED
        orphan = tuple(list(LONG_WORD))
        check_permutation(orphan)
        cache[id(orphan)] = orphan
        permutations_module._VALIDATED_IDS[:] = [0] * 8
        for k in range(9):
            check_permutation(tuple(random.Random(k).sample(range(1, 21), 20)))
            assert len(cache) <= 8
        assert not _stored(orphan)

    @settings(max_examples=300, deadline=None)
    @given(word_cases)
    def test_word_outcomes_do_not_depend_on_the_cache(self, word):
        cold = _outcome(check_permutation, tuple(list(word)))
        assert _outcome(check_permutation, word) == cold
        assert _outcome(check_permutation, word) == cold
        assert _stored(word) == (cold[0] == "ok" and len(word) >= 16)
        for twin in (tuple(list(word)), _with_bools(word)):
            assert twin == word
            assert _outcome(check_permutation, twin) == _outcome(
                check_permutation, tuple(list(twin)))

    @settings(max_examples=300, deadline=None)
    @given(path_cases)
    def test_path_outcomes_do_not_depend_on_the_cache(self, path):
        cold = _outcome(check_path, "".join(list(path)))
        assert _outcome(check_path, path) == cold
        assert _outcome(check_path, path) == cold
        assert _stored(path) == (cold[0] == "ok" and len(path) >= 16)
        for twin in ("".join(list(path)), _Steps(path)):
            assert twin == path
            assert _outcome(check_path, twin) == cold
        assert not _stored(twin)

    def test_threads_share_the_cache_safely(self):
        # More threads than cores, switching often, validate a shared pool
        # of words and paths, valid and not, which is larger than the cache.
        # A race may only cost a walk: every outcome stays the one a cold
        # cache gives, and the cache keeps only objects that passed.
        rng = random.Random(7)
        pool = [tuple(rng.sample(range(1, 41), 40)) for _ in range(6)]
        pool += [(1, 1, 2), (2, True), (0, 1), (True,) + tuple(range(2, 21))]
        pool += [random_path(rng, 30) for _ in range(6)]
        pool += ["udd", "uhx", "uu", "u" * 16 + "d" * 15]
        check = {tuple: check_permutation, str: check_path}
        expected = [_outcome(check[type(x)], type(x)(list(x)) if type(x) is tuple
                             else "".join(list(x))) for x in pool]
        wrong: list = []

        def work(seed):
            order = random.Random(seed)
            for _ in range(400):
                k = order.randrange(len(pool))
                got = _outcome(check[type(pool[k])], pool[k])
                if got != expected[k]:
                    wrong.append((pool[k], got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        cache = permutations_module._VALIDATED
        assert len(cache) <= len(permutations_module._VALIDATED_IDS)
        for key, x in cache.items():
            assert key == id(x)
            if type(x) is tuple:
                assert is_permutation_word(x)
            else:
                assert type(x) is str
                paths_module._walk_path(x)


class TestStatistics:
    def test_showcase_values(self):
        r = perm_statistics(SHOWCASE)
        assert (r.exc, r.crs, r.nes, r.inv) == (5, 7, 4, 20)
        assert r.fp == 1
        assert r.exc_set == (1, 2, 4, 5, 9)
        assert r.des_set == (2, 4, 5, 7, 9)
        assert not r.is_involution

    def test_small_cases(self):
        r = perm_statistics((3, 2, 1))
        assert (r.exc, r.fp, r.crs, r.nes, r.inv) == (1, 1, 0, 1, 3)
        assert r.is_involution
        r = perm_statistics((1, 2, 3))
        assert (r.exc, r.fp, r.crs, r.nes, r.inv) == (0, 3, 0, 0, 0)
        r = perm_statistics(())
        assert (r.exc, r.fp, r.crs, r.nes, r.inv) == (0, 0, 0, 0, 0)
        assert r.is_involution

    def test_identity_exhaustive(self):
        for n in range(7):
            for w in itertools.permutations(range(1, n + 1)):
                r = perm_statistics(w)
                assert r.inv == r.exc + r.crs + 2 * r.nes, w

    @given(perm_strategy)
    def test_identity_property(self, w):
        r = perm_statistics(w)
        assert r.inv == r.exc + r.crs + 2 * r.nes

    def test_kernel_matches_pair_loop_exhaustive(self):
        for n in range(9):
            for w in itertools.permutations(range(1, n + 1)):
                assert _fp_exc_crs_nes_inv(w) == pair_loop_statistics(w), w

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=400).flatmap(
        lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)))
    def test_kernel_matches_pair_loop_on_long_words(self, w):
        assert _fp_exc_crs_nes_inv(w) == pair_loop_statistics(w)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((phi1, phi2, phi3)), st.integers(0, 400),
           st.randoms(use_true_random=False))
    def test_kernel_matches_pair_loop_on_bijection_images(self, phi, n, rng):
        # Involutions with a fixed point per flat step (phi1, phi2), and
        # 321-avoiders (phi3): runs of fixed points, no crossings (phi2) or
        # no nestings (phi3), shapes that uniform words seldom take.
        w = phi(random_path(rng, n))
        assert _fp_exc_crs_nes_inv(w) == pair_loop_statistics(w), w

    def test_kernel_matches_value_scan_on_very_long_words(self):
        rng = random.Random(29)
        for _ in range(8):
            n = rng.randint(1000, 3000)
            w = tuple(rng.sample(range(1, n + 1), n))
            assert _fp_exc_crs_nes_inv(w) == value_scan_statistics(w)

    @pytest.mark.parametrize("n", (2, 2000))
    def test_kernel_matches_value_scan_on_extreme_words(self, n):
        for w in extreme_words(n):
            assert _fp_exc_crs_nes_inv(w) == value_scan_statistics(w), w[:4]

    @given(perm_strategy)
    def test_exc_des_consistency(self, w):
        r = perm_statistics(w)
        assert r.exc == len(r.exc_set)
        assert r.fp == sum(1 for i, v in enumerate(w, start=1) if v == i)
        assert all(w[i - 1] > w[i] for i in r.des_set)


FAST_TESTS = (contains_321, contains_4321, contains_3412, avoids_barred_3142)


class TestPatterns:
    def test_containment_examples(self):
        assert contains_classical((2, 1, 4, 3), (2, 1, 4, 3))
        assert not contains_classical((1, 2, 3), (2, 1))
        assert contains_classical(SHOWCASE, (3, 2, 1))
        assert contains_classical((5, 4, 2, 1, 3), (4, 3, 2, 1))

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            contains_classical((1, 2), ())

    def test_pattern_longer_than_word(self):
        assert not contains_classical((1,), (1, 2))

    def test_specialized_checks_match_generic(self):
        for n in range(7):
            for w in itertools.permutations(range(1, n + 1)):
                assert contains_321(w) == contains_classical(w, (3, 2, 1)), w
                assert contains_4321(w) == contains_classical(w, (4, 3, 2, 1)), w
                assert contains_3412(w) == contains_classical(w, (3, 4, 1, 2)), w

    def test_barred_examples(self):
        assert avoids_barred_3142((1, 2, 3))
        assert not avoids_barred_3142((2, 3, 1))
        assert avoids_barred_3142((3, 1, 2))
        assert avoids_barred_3142((3, 1, 4, 2))
        assert avoids_barred_3142(())

    def test_barred_definition_brute_force(self):
        for n in range(8):
            for w in itertools.permutations(range(1, n + 1)):
                assert avoids_barred_3142(w) == brute(w), w

    def test_linear_tests_match_references_on_long_words(self):
        barred, has_3412 = set(), set()
        for w in long_words(seed=5):
            assert avoids_barred_3142(w) == brute(w), w
            assert contains_321(w) == contains_classical(w, (3, 2, 1)), w
            assert contains_4321(w) == contains_classical(w, (4, 3, 2, 1)), w
            assert contains_3412(w) == contains_classical(w, (3, 4, 1, 2)), w
            barred.add(avoids_barred_3142(w))
            has_3412.add(contains_3412(w))
        assert barred == {True, False}
        assert has_3412 == {True, False}

    def test_fast_tests_refuse_non_permutations(self):
        for w in ((3, 3, 3), (2, 1, 0, -1), (4, 1, 5, 2), (True, 2)):
            for test in FAST_TESTS:
                with pytest.raises(ValueError, match="not a permutation"):
                    test(w)
                    pytest.fail(f"{test.__name__}({w!r}) did not raise")

    @settings(max_examples=150)
    @given(st.lists(st.integers(min_value=-2, max_value=11), max_size=9))
    def test_fast_tests_fuzzed_against_references(self, word):
        # Repeats, 0, negatives and letters above n: each fast test raises
        # exactly when contains_classical does, and otherwise agrees with it
        # (or with brute, for the barred pattern).
        w = tuple(word)
        try:
            expected = (
                contains_classical(w, (3, 2, 1)),
                contains_classical(w, (4, 3, 2, 1)),
                contains_classical(w, (3, 4, 1, 2)),
            )
        except ValueError:
            for test in FAST_TESTS:
                with pytest.raises(ValueError):
                    test(w)
            return
        assert (contains_321(w), contains_4321(w), contains_3412(w)) == expected
        assert avoids_barred_3142(w) == brute(w)


class TestClasses:
    def test_class_counts_are_motzkin(self):
        for cls in (PermClass.I4321, PermClass.I3412, PermClass.S321_B3142):
            for n in range(8):
                count = sum(1 for _ in enumerate_class(n, cls))
                assert count == motzkin_number(n), (cls, n)

    def test_all_and_involution_counts(self):
        sizes = [sum(1 for _ in enumerate_class(n, PermClass.ALL)) for n in range(6)]
        assert sizes == [1, 1, 2, 6, 24, 120]
        invs = [
            sum(1 for _ in enumerate_class(n, PermClass.INVOLUTIONS))
            for n in range(8)
        ]
        assert invs == [1, 1, 2, 4, 10, 26, 76, 232]

    def test_small_class_listing(self):
        assert list(enumerate_class(3, PermClass.S321_B3142)) == [
            (1, 2, 3),
            (1, 3, 2),
            (2, 1, 3),
            (3, 1, 2),
        ]
        assert list(enumerate_class(3, PermClass.I4321)) == [
            (1, 2, 3),
            (1, 3, 2),
            (2, 1, 3),
            (3, 2, 1),
        ]

    def test_lexicographic_order(self):
        for cls in PermClass:
            for n in (4, 5):
                members = list(enumerate_class(n, cls))
                assert members == sorted(members), (cls, n)

    def test_empty_size(self):
        for cls in PermClass:
            assert list(enumerate_class(0, cls)) == [()]

    def test_membership_agrees_with_enumeration(self):
        for cls in PermClass:
            for n in range(6):
                members = set(enumerate_class(n, cls))
                for w in itertools.permutations(range(1, n + 1)):
                    assert in_class(w, cls) == (w in members), (cls, w)

    def test_pruned_enumerators_match_filtered_reference(self):
        sizes = {PermClass.ALL: 8, PermClass.I4321: 13, PermClass.I3412: 13}
        for cls in PermClass:
            for n in range(sizes.get(cls, 10)):
                expected = list(filtered_class(n, cls))
                assert list(enumerate_class(n, cls)) == expected, (cls, n)

    @pytest.mark.parametrize("cls, machine", [
        (PermClass.I4321, "_grow_4321"), (PermClass.I3412, "_grow_3412"),
    ])
    def test_involution_trees_have_no_dead_subtrees(self, monkeypatch, cls, machine):
        # The tree takes every pairing its partner range offers: the fixed
        # point and each position in range(lo, hi), all free in these two
        # families.  A pairing fixes w[:k], k the next cycle start or n, so
        # with no dead subtree the pairings offered are the distinct such
        # prefixes of the members.  The tree never runs the word test's
        # pattern machine; in_class does, so the reference prefixes are
        # drawn before the patches.
        name = {
            PermClass.I4321: "_nonnesting_partners",
            PermClass.I3412: "_noncrossing_partners",
        }[cls]
        rule = getattr(permutations_module, name)
        kept = 0

        def counted(i, arcs, n):
            nonlocal kept
            lo, hi = rule(i, arcs, n)
            kept += 1 + hi - lo
            return lo, hi

        def unused(*args):
            raise AssertionError(f"the {cls.value} tree ran {machine}")

        for n in range(11):
            prefixes = {
                w[:k]
                for w in filtered_class(n, cls)
                for k in range(1, n + 1)
                if k == n or w[k] > k
            }
            with monkeypatch.context() as patch:
                patch.setattr(permutations_module, name, counted)
                patch.setattr(permutations_module, machine, unused)
                kept = 0
                for _ in enumerate_class(n, cls):
                    pass
            assert kept == len(prefixes), (cls, n)

    def test_arc_rule_matches_classical_containment(self):
        # The rule the involution trees rest on, checked without the trees
        # or the pattern machines: an involution contains 4321 exactly when
        # two of its 2-cycles nest, and 3412 exactly when two cross.
        for n in range(10):
            for w in involutions_lex(n):
                cycles = [(a, b) for a, b in enumerate(w, 1) if a < b]
                pairs = list(itertools.combinations(cycles, 2))
                nested = any(a < c < d < b for (a, b), (c, d) in pairs)
                crossing = any(a < c < b < d for (a, b), (c, d) in pairs)
                assert contains_classical(w, (4, 3, 2, 1)) == nested, w
                assert contains_classical(w, (3, 4, 1, 2)) == crossing, w

    def test_state_pass_matches_the_members(self):
        # distribution counts the tree families by a pass over their trees'
        # states; the reference counts every member of enumerate_class, the
        # pair loop defining its statistics, and past n = 10, where the pair
        # loop gets slow, the kernel stands in for it.
        for cls in PermClass:
            if cls is PermClass.ALL:
                continue
            for n in range(13):
                reference = pair_loop_statistics if n <= 10 else _fp_exc_crs_nes_inv
                members = Counter(reference(w)[:4] for w in enumerate_class(n, cls))
                for spec in StatSpec:
                    expected = Counter()
                    for stats, count in members.items():
                        expected[spec.exponents(*stats)] += count
                    got = distribution(cls, n, spec)
                    assert got == MultiPoly.from_terms(spec.variables, expected), (
                        cls, n, spec)

    def test_state_pass_enumerates_no_member(self, monkeypatch):
        # The tree families' distributions come from their states alone;
        # the member counts come from the filtered reference.
        def unused(n):
            raise AssertionError("distribution enumerated the members")

        rules = permutations_module._CLASS_RULES
        trees = [cls for cls in PermClass if cls is not PermClass.ALL]
        for cls in trees:
            monkeypatch.setitem(rules, cls, rules[cls]._replace(members=unused))
        # A tally cached by an earlier test would run no pass at all.
        permutations_module._family_tally.cache_clear()
        for cls in trees:
            for n in range(8):
                poly = distribution(cls, n, StatSpec.JOINT_FP_EXC_CRS_NES)
                ones = dict.fromkeys(poly.variables, 1)
                assert poly.evaluate(ones) == sum(1 for _ in filtered_class(n, cls))

    def test_cached_tally_is_the_rule_tally(self):
        # One tally per family and size serves every spec: on a warm cache
        # each spec reads the projection of the uncached rule tally, which
        # the cache holds as a tuple of pairs, so no caller can change it.
        rules = permutations_module._CLASS_RULES
        for cls in PermClass:
            for n in range(8 if cls is PermClass.ALL else 11):
                reference = rules[cls].tally(n)
                distribution(cls, n, StatSpec.CRS)
                cached = permutations_module._family_tally(cls, n)
                assert type(cached) is tuple and {type(p) for p in cached} == {tuple}
                assert dict(cached) == reference, (cls, n)
                for spec in StatSpec:
                    expected = Counter()
                    for stats, count in reference.items():
                        expected[spec.exponents(*stats)] += count
                    got = distribution(cls, n, spec)
                    assert got == MultiPoly.from_terms(spec.variables, expected), (
                        cls, n, spec)

    def test_one_tally_per_family_and_size(self, monkeypatch):
        # A second spec for the same family and size runs no tally.
        rules = permutations_module._CLASS_RULES
        calls = []
        for cls in PermClass:
            def counted(n, cls=cls, tally=rules[cls].tally):
                calls.append((cls, n))
                return tally(n)

            monkeypatch.setitem(rules, cls, rules[cls]._replace(tally=counted))
        permutations_module._family_tally.cache_clear()
        for cls in PermClass:
            for n in (4, 5):
                for spec in StatSpec:
                    distribution(cls, n, spec)
        assert calls == [(cls, n) for cls in PermClass for n in (4, 5)]

    def test_in_class_validates_once(self, monkeypatch):
        calls = []

        def counted(word):
            calls.append(word)
            return is_permutation_word(word)

        monkeypatch.setattr(permutations_module, "is_permutation_word", counted)
        for cls in PermClass:
            for w in ((3, 2, 1), (2, 3, 1), (1, 3, 2, 4), (4, 3, 2, 1)):
                calls.clear()
                # A fresh tuple, which no earlier call left in the cache.
                in_class(tuple(list(w)), cls)
                assert len(calls) == 1, (cls, w)
        with pytest.raises(ValueError, match="not a permutation"):
            in_class((1, 1), PermClass.S321_B3142)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_class(-1, PermClass.ALL))

    def test_bool_sizes_rejected_like_negative_ones(self):
        # True is an int to Python, but not a size, and nor is 2.0, 13.0 or
        # None.  Every size, order and bound goes through one guard, which
        # names the argument it refuses, before any other check (13.0 is past
        # the enumeration guard of distribution).
        one = lambda k: 1
        spec = FractionSpec(("q",), one, one)
        table = h_tableau(2)
        guarded = [
            *((f"enumerate_class {cls.value}", "n",
               lambda n, cls=cls: list(enumerate_class(n, cls)))
              for cls in PermClass),
            ("enumerate_paths", "n", lambda n: list(enumerate_paths(n))),
            ("permutation_from_head_tail", "n",
             lambda n: permutation_from_head_tail((), n)),
            ("path_from_head_tail", "n", lambda n: path_from_head_tail((), n)),
            ("motzkin_number", "n", motzkin_number),
            ("q_motzkin", "n", q_motzkin),
            ("q_motzkin_tilde", "n", q_motzkin_tilde),
            ("stieltjes_tableau", "n_max",
             lambda n: stieltjes_tableau(one, one, n)),
            ("h_tableau", "n_max", h_tableau),
            ("h_recursion_rhs", "n", lambda n: h_recursion_rhs(n, 1, table)),
            ("h_recursion_rhs", "i", lambda i: h_recursion_rhs(2, i, table)),
            ("jfraction_series", "order", lambda n: jfraction_series(spec, n)),
            ("named_series", "order", lambda n: named_series("A", n)),
            ("run_suite", "max_n", lambda n: run_suite("paths", n)),
            ("distribution", "n",
             lambda n: distribution(PermClass.I4321, n, StatSpec.CRS)),
        ]
        for n in (-1, True, False, 2.0, 13.0, None):
            for label, name, call in guarded:
                with pytest.raises(ValueError, match=f"^{name} must be nonnegative$"):
                    call(n)
                    pytest.fail(f"{label}({n!r}) did not raise")

    def test_unknown_class_rejected(self):
        for bad in ("I4321", None):
            with pytest.raises(ValueError, match="unknown class"):
                list(enumerate_class(3, bad))
            with pytest.raises(ValueError, match="unknown class"):
                in_class((1, 2), bad)

    def test_involutions_match_filtered_permutations(self):
        for n in range(9):
            expected = filter(is_involution, itertools.permutations(range(1, n + 1)))
            assert list(enumerate_class(n, PermClass.INVOLUTIONS)) == list(expected)

    def test_long_involutions_without_recursion(self):
        for cls in (PermClass.INVOLUTIONS, PermClass.I4321, PermClass.I3412):
            first = next(enumerate_class(3000, cls))
            assert first == tuple(range(1, 3001)), cls

    def test_class_name_lookup(self):
        assert PermClass.from_name("I4321") is PermClass.I4321
        with pytest.raises(ValueError):
            PermClass.from_name("I9999")


SHOWCASE_321 = (6, 1, 7, 2, 3, 8, 4, 10, 5, 11, 9, 15, 12, 16, 13, 14)
SHOWCASE_PAIRS = ((5, 1), (6, 3), (7, 6), (9, 8), (10, 10), (14, 12), (15, 14))


class TestHeadTail:
    def test_showcase_pairs(self):
        assert head_tail_pairs(SHOWCASE_321) == SHOWCASE_PAIRS

    def test_identity_and_small(self):
        assert head_tail_pairs((1, 2, 3)) == ()
        assert head_tail_pairs(()) == ()
        assert head_tail_pairs((3, 2, 1)) == ((1, 1), (2, 1))
        assert head_tail_pairs((2, 1)) == ((1, 1),)

    def test_rebuild_showcase(self):
        assert permutation_from_head_tail(SHOWCASE_PAIRS, 16) == SHOWCASE_321

    def test_rebuild_small(self):
        assert permutation_from_head_tail(((1, 1), (2, 1)), 3) == (3, 2, 1)
        assert permutation_from_head_tail((), 4) == (1, 2, 3, 4)
        assert permutation_from_head_tail((), 0) == ()

    def test_roundtrip_exhaustive(self):
        for n in range(7):
            for w in itertools.permutations(range(1, n + 1)):
                assert permutation_from_head_tail(head_tail_pairs(w), n) == w

    @settings(max_examples=60)
    @given(perm_strategy)
    def test_roundtrip_property(self, w):
        pairs = head_tail_pairs(w)
        assert permutation_from_head_tail(pairs, len(w)) == w
        references = (sliding_head_tail_pairs(w),
                      swapping_permutation_from_head_tail(pairs, len(w)))
        assert references == (pairs, w)

    def test_closed_forms_match_references(self):
        # Pair sets with the head/tail shape and permutations are in
        # bijection, so n <= 8 also covers every valid pair set.  The
        # public functions are the kernels behind validation, and the
        # oracle runs the kernels alone on enumerated words.
        words = [w for n in range(9) for w in itertools.permutations(range(1, n + 1))]
        rng = random.Random(6)
        for _ in range(24):
            n = rng.randint(100, 400)
            words.append(tuple(rng.sample(range(1, n + 1), n)))
        for w in words:
            pairs = _head_tail_pairs(w)
            assert pairs == sliding_head_tail_pairs(w), w
            rebuilt = _permutation_from_head_tail(pairs, len(w))
            assert rebuilt == swapping_permutation_from_head_tail(pairs, len(w)) == w
            assert permutation_from_head_tail(pairs, len(w)) == w

    def test_tails_count_inversions_like_the_statistics_kernel(self):
        # Double counting: the statistics kernel sums the larger letters on
        # each letter's left, and a pair (h, t) counts the h - t + 1 smaller
        # letters on the right of letter h + 1.
        for n in range(9):
            for w in itertools.permutations(range(1, n + 1)):
                inv = _fp_exc_crs_nes_inv(w)[4]
                assert sum(h - t + 1 for h, t in _head_tail_pairs(w)) == inv, w

    def test_phi3_inverse_matches_head_tail_route_on_long_paths(self):
        rng = random.Random(11)
        for _ in range(24):
            path = random_path(rng, rng.randint(100, 400))
            w = phi3(path)
            head_tail_route = path_from_head_tail(head_tail_pairs(w), len(w))
            assert phi3_inverse(w) == head_tail_route == path

    def test_invalid_pairs_rejected(self):
        # Both rebuilds share the shape guard, so they give the same message.
        # A float or a bool is not a head or a tail, even where it equals one.
        for pairs, n, message in (
            (((0, 1),), 3, r"pair \(0, 1\) needs 1 <= tail <= head <= 2"),
            (((1.0, 1.0),), 2, r"pair \(1\.0, 1\.0\) needs 1 <= tail <= head <= 1"),
            (((True, True),), 2, r"pair \(True, True\) needs 1 <= tail <= head <= 1"),
            (((1, 1), (3, 2.0)), 4, r"pair \(3, 2\.0\) needs 1 <= tail <= head <= 3"),
            (((2, 3),), 4, r"pair \(2, 3\) needs 1 <= tail <= head <= 3"),
            (((3, 1),), 3, r"pair \(3, 1\) needs 1 <= tail <= head <= 2"),
            (((2, 1), (2, 2)), 4, "heads must be strictly increasing"),
            (((2, 1), (1, 1)), 4, "heads must be strictly increasing"),
            ((), -1, "n must be nonnegative"),
        ):
            for rebuild in (permutation_from_head_tail, path_from_head_tail):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    rebuild(pairs, n)

    def test_class_members_have_spread_tails_and_des_eq_exc(self):
        for n in range(8):
            for w in enumerate_class(n, PermClass.S321_B3142):
                pairs = head_tail_pairs(w)
                tails = tuple(t for _, t in pairs)
                assert all(b >= a + 2 for a, b in zip(tails, tails[1:])), w
                r = perm_statistics(w)
                assert r.des_set == tails
                assert r.exc_set == tails
                assert r.nes == 0
