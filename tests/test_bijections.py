import pytest

import crossnest.paths as paths_module
import crossnest.permutations as permutations_module
from crossnest.bijections import (
    involution_shape_path,
    phi1,
    phi2,
    phi3,
    phi3_inverse,
)
from crossnest.paths import (
    check_path,
    enumerate_paths,
    path_statistics,
    strip_decomposition,
)
from crossnest.permutations import (
    PermClass,
    enumerate_class,
    is_permutation_word,
    perm_statistics,
)

SHOWCASE_PATH = "uuhuudddudduuhdd"
SHOWCASE_PHI1 = (6, 7, 3, 8, 10, 1, 2, 4, 11, 5, 9, 15, 16, 14, 12, 13)
SHOWCASE_PHI2 = (11, 8, 3, 7, 6, 5, 4, 2, 10, 9, 1, 16, 15, 14, 13, 12)
SHOWCASE_PHI3 = (6, 1, 7, 2, 3, 8, 4, 10, 5, 11, 9, 15, 12, 16, 13, 14)


def paths_up_to(n_max: int):
    for n in range(n_max + 1):
        yield from enumerate_paths(n)


class TestShowcase:
    def test_phi1(self):
        assert phi1(SHOWCASE_PATH) == SHOWCASE_PHI1

    def test_phi2(self):
        assert phi2(SHOWCASE_PATH) == SHOWCASE_PHI2

    def test_phi3(self):
        assert phi3(SHOWCASE_PATH) == SHOWCASE_PHI3

    def test_inverses(self):
        assert involution_shape_path(SHOWCASE_PHI1) == SHOWCASE_PATH
        assert involution_shape_path(SHOWCASE_PHI2) == SHOWCASE_PATH
        assert phi3_inverse(SHOWCASE_PHI3) == SHOWCASE_PATH


class TestSmallCases:
    def test_single_steps(self):
        assert phi1("h") == (1,)
        assert phi2("h") == (1,)
        assert phi3("h") == (1,)
        assert phi1("ud") == (2, 1)
        assert phi2("ud") == (2, 1)
        assert phi3("ud") == (2, 1)
        assert phi1("") == ()
        assert phi3("") == ()

    def test_uhd(self):
        assert phi1("uhd") == (3, 2, 1)
        assert phi2("uhd") == (3, 2, 1)
        assert phi3("uhd") == (3, 1, 2)

    def test_uudd_differs_between_matchings(self):
        assert phi1("uudd") == (3, 4, 1, 2)
        assert phi2("uudd") == (4, 3, 2, 1)

    def test_shape_path_rejects_non_involution(self):
        with pytest.raises(ValueError, match="involution"):
            involution_shape_path((2, 3, 1))

    def test_phi3_inverse_rejects_outside_class(self):
        with pytest.raises(ValueError, match="class"):
            phi3_inverse((3, 2, 1))
        with pytest.raises(ValueError, match="class"):
            phi3_inverse((2, 3, 1))

    def test_inputs_are_validated_once(self, monkeypatch):
        # Each map leaves the check of its input to the first callee that
        # makes it, so a path or a word is walked for validation once.  Each
        # call gets a fresh object, equal to the showcase but not the object
        # an earlier call left in the validators' identity cache.
        path_walks, word_walks, pair_checks = [], [], []

        def counting(check, calls):
            def counted(*args):
                calls.append(args[0])
                return check(*args)
            return counted

        monkeypatch.setattr(paths_module, "_walk_path",
                            counting(paths_module._walk_path, path_walks))
        monkeypatch.setattr(permutations_module, "is_permutation_word",
                            counting(is_permutation_word, word_walks))
        for module in (paths_module, permutations_module):
            monkeypatch.setattr(module, "_check_head_tail",
                                counting(permutations_module._check_head_tail, pair_checks))
        for f in (phi1, phi2, phi3, strip_decomposition):
            path_walks.clear()
            path = "".join(list(SHOWCASE_PATH))
            assert path is not SHOWCASE_PATH
            f(path)
            assert path_walks == [SHOWCASE_PATH], f.__name__
            with pytest.raises(ValueError, match="^height drops below zero at index 3$"):
                f("udd")
        path_walks.clear()
        for f, w in ((involution_shape_path, SHOWCASE_PHI1), (phi3_inverse, SHOWCASE_PHI3)):
            word_walks.clear()
            f(tuple(list(w)))
            assert word_walks == [w], f.__name__
            with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.2: \(1, 1\)$"):
                f((1, 1))
        # The inverse maps build valid paths by construction and walk none,
        # and phi3 and phi3_inverse check no head/tail pairs they built.
        assert path_walks == []
        assert pair_checks == []

    def test_check_flag(self):
        assert phi1("uhd", check=True) == (3, 2, 1)
        assert phi2("uudd", check=True) == (4, 3, 2, 1)
        assert phi3("uhd", check=True) == (3, 1, 2)


class TestTransport:
    def test_phi1_statistics(self):
        for p in paths_up_to(8):
            r = path_statistics(p)
            s = perm_statistics(phi1(p))
            assert (s.fp, s.exc, s.crs, s.nes) == (
                r.hor, r.up, 2 * r.sh_u, r.sh_h,
            ), p

    def test_phi2_statistics(self):
        for p in paths_up_to(8):
            r = path_statistics(p)
            s = perm_statistics(phi2(p))
            assert (s.fp, s.exc, s.crs, s.nes) == (
                r.hor, r.up, 0, 2 * r.sh_u + r.sh_h,
            ), p

    def test_phi3_statistics(self):
        for p in paths_up_to(8):
            r = path_statistics(p)
            s = perm_statistics(phi3(p))
            assert (s.exc, s.crs) == (r.up, r.sh_u + r.sh_h), p
            assert s.inv == r.area - r.sh_u, p
            assert s.nes == 0, p


class TestBijectivity:
    def test_images_fill_their_classes(self):
        cases = (
            (phi1, PermClass.I4321),
            (phi2, PermClass.I3412),
            (phi3, PermClass.S321_B3142),
        )
        for n in range(8):
            paths = list(enumerate_paths(n))
            for fn, cls in cases:
                images = [fn(p) for p in paths]
                assert len(set(images)) == len(images), (fn.__name__, n)
                assert sorted(images) == list(enumerate_class(n, cls)), (
                    fn.__name__, n,
                )

    def test_roundtrips(self):
        for p in paths_up_to(8):
            assert involution_shape_path(phi1(p)) == p
            assert involution_shape_path(phi2(p)) == p
            assert phi3_inverse(phi3(p)) == p

    def test_every_involution_shape_is_a_path(self):
        for n in range(10):
            for w in enumerate_class(n, PermClass.INVOLUTIONS):
                path = involution_shape_path(w)
                assert check_path(path) == path, w

    def test_inverse_roundtrip_from_permutations(self):
        for n in range(8):
            for w in enumerate_class(n, PermClass.S321_B3142):
                assert phi3(phi3_inverse(w)) == w
            for w in enumerate_class(n, PermClass.I4321):
                assert phi1(involution_shape_path(w)) == w
            for w in enumerate_class(n, PermClass.I3412):
                assert phi2(involution_shape_path(w)) == w
