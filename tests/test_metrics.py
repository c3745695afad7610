import math
import warnings

import numpy as np
import pytest

from latmech import lattice, sampling, tensor4
from latmech.fe import homogenize
from latmech.lattice import (
    body_centred_cubic,
    diamond,
    perturb,
    rotate_lattice,
    simple_cubic,
)
from latmech.metrics import (
    NEGATIVE_EIG_REL_TOL,
    DirectionSet,
    MetricReport,
    aggregate_training_loss,
    l_comp,
    l_dir,
    l_equiv,
    negative_eig_fraction,
    negative_modulus_penalty,
    target_mean_square,
)
from latmech.psd import PsdMethod, project
from latmech.tensor4 import (
    ElasticTensor4,
    MandelMatrix,
    from_mandel,
    kelvin_spectrum,
    rotate,
    to_mandel,
)

from conftest import random_symmetric_matrix, random_symmetric_tensor4, unit_draw_one_at_a_time


def directional_moduli_per_call(c: ElasticTensor4, d: np.ndarray) -> np.ndarray:
    """Reference: the directional moduli with a dyad table of their own."""
    w = np.array([1.0, 1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0), math.sqrt(2.0)])
    dyads = w * d[:, [0, 1, 2, 1, 0, 0]] * d[:, [0, 1, 2, 2, 2, 1]]
    return np.sum((dyads @ to_mandel(c).entries) * dyads, axis=1)


class TestLComp:
    def test_zero_on_equal(self, rng):
        m = MandelMatrix(random_symmetric_matrix(rng))
        assert l_comp(m, m) == 0.0

    def test_identity_offset_is_six(self, rng):
        t = random_symmetric_matrix(rng)
        assert l_comp(MandelMatrix(t + np.eye(6)), MandelMatrix(t)) == pytest.approx(6.0)

    def test_matches_double_loop_oracle(self, rng):
        a = MandelMatrix(random_symmetric_matrix(rng))
        b = MandelMatrix(random_symmetric_matrix(rng))
        acc = 0.0
        for i in range(6):
            for j in range(6):
                acc += (a.entries[i, j] - b.entries[i, j]) ** 2
        assert l_comp(a, b) == pytest.approx(acc, rel=1e-14)

    def test_equals_frobenius_squared(self, rng):
        a = MandelMatrix(random_symmetric_matrix(rng))
        b = MandelMatrix(random_symmetric_matrix(rng))
        assert l_comp(a, b) == pytest.approx(
            np.linalg.norm(a.entries - b.entries) ** 2, rel=1e-14
        )


class TestAggregateLoss:
    def test_zero_on_equal(self, rng):
        pairs = [(MandelMatrix(random_symmetric_matrix(rng)),) * 2 for _ in range(4)]
        assert aggregate_training_loss(pairs) == 0.0

    def test_doubled_prediction_gives_36(self, rng):
        # L_comp = sum(t^2), gamma = sum(t^2)/36, so the ratio is 36.
        t = random_symmetric_matrix(rng)
        loss = aggregate_training_loss([(MandelMatrix(2 * t), MandelMatrix(t))])
        assert loss == pytest.approx(36.0, rel=1e-12)

    def test_scale_invariance(self, rng):
        pred = random_symmetric_matrix(rng)
        target = random_symmetric_matrix(rng)
        base = aggregate_training_loss([(MandelMatrix(pred), MandelMatrix(target))])
        scaled = aggregate_training_loss(
            [(MandelMatrix(7.5 * pred), MandelMatrix(7.5 * target))]
        )
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_rejects_zero_target(self, rng):
        pred = MandelMatrix(random_symmetric_matrix(rng))
        with pytest.raises(ValueError, match="pair 0"):
            aggregate_training_loss([(pred, MandelMatrix(np.zeros((6, 6))))])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate_training_loss([])


class TestPairChecks:
    """Raw pairs are checked as :class:`MandelMatrix` inputs; checked ones are not again."""

    @staticmethod
    def bad_matrix(kind: str, good: np.ndarray) -> np.ndarray:
        if kind == "5x5":
            return np.eye(5)
        bad = good.copy()
        bad[0, 1] = math.nan if kind == "nan" else bad[0, 1] + 1e-6 * np.abs(good).max()
        return bad

    @pytest.mark.parametrize("kind", ["5x5", "asymmetric", "nan"])
    def test_raw_pairs_are_rejected(self, rng, kind):
        good = random_symmetric_matrix(rng)
        bad = self.bad_matrix(kind, good)
        calls = [
            lambda: l_comp(bad, good),
            lambda: l_comp(good, bad),
            lambda: target_mean_square(bad),
            lambda: aggregate_training_loss([(bad, good)]),
            lambda: aggregate_training_loss([(good, bad)]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="Mandel matrix"):
                call()

    def test_five_by_five_identities_are_not_scored(self):
        with pytest.raises(ValueError, match="must be 6x6"):
            aggregate_training_loss([(np.eye(5), np.eye(5))])

    def test_raw_and_checked_pairs_score_the_same(self, rng):
        pred, target = random_symmetric_matrix(rng), random_symmetric_matrix(rng)
        checked = MandelMatrix(pred), MandelMatrix(target)
        assert l_comp(pred, target) == l_comp(*checked)
        assert target_mean_square(target) == target_mean_square(checked[1])
        assert aggregate_training_loss([(pred, target)]) == aggregate_training_loss([checked])

    def test_checked_pairs_are_not_checked_again(self, monkeypatch, rng):
        pairs = [(MandelMatrix(random_symmetric_matrix(rng)),) * 2 for _ in range(3)]
        calls = []
        check = MandelMatrix.__post_init__
        monkeypatch.setattr(MandelMatrix, "__post_init__", lambda self: calls.append(1) or check(self))
        aggregate_training_loss(pairs)
        l_comp(*pairs[0])
        target_mean_square(pairs[0][1])
        assert calls == []


class TestLDir:
    def test_zero_on_equal(self, rng):
        c = ElasticTensor4(random_symmetric_tensor4(rng))
        dirs = DirectionSet.sample(100, seed=1)
        assert l_dir(c, c, dirs) == (0.0, 0.0)

    def test_isotropic_offset_constant_one(self, rng):
        # Adding lam=0, mu=0.5 shifts every directional modulus by exactly 1.
        target = ElasticTensor4(random_symmetric_tensor4(rng))
        pred = ElasticTensor4(target.components + ElasticTensor4.isotropic(0.0, 0.5).components)
        for seed in (0, 3):
            raw, _rel = l_dir(pred, target, DirectionSet.sample(50, seed=seed))
            assert raw == pytest.approx(1.0, rel=1e-12)

    def test_joint_rotation_invariance(self, rng):
        pred = ElasticTensor4(random_symmetric_tensor4(rng))
        target = ElasticTensor4(random_symmetric_tensor4(rng))
        dirs = DirectionSet.sample(64, seed=9)
        r = sampling.random_rotation(17)
        rotated_dirs = DirectionSet(dirs.directions @ r.T, seed=dirs.seed)
        base_raw, base_rel = l_dir(pred, target, dirs)
        rot_raw, rot_rel = l_dir(rotate(pred, r), rotate(target, r), rotated_dirs)
        assert rot_raw == pytest.approx(base_raw, abs=1e-10)
        assert rot_rel == pytest.approx(base_rel, abs=1e-10)

    def test_relative_normalization(self, rng):
        pred = ElasticTensor4(random_symmetric_tensor4(rng))
        target = ElasticTensor4(random_symmetric_tensor4(rng))
        dirs = DirectionSet.sample(32, seed=2)
        raw, rel = l_dir(pred, target, dirs)
        t = to_mandel(target).entries
        gamma = np.sum(t * t) / 36.0
        assert rel == pytest.approx(raw / np.sqrt(gamma), rel=1e-12)

    def test_equals_the_per_call_formula_bit_for_bit(self, rng):
        dirs = DirectionSet.sample(250, seed=4)
        for k in range(10):
            pred = from_mandel(random_symmetric_matrix(rng) * 10.0 ** (k - 8))
            target = ElasticTensor4(random_symmetric_tensor4(rng) * 10.0 ** (k - 8))
            values = directional_moduli_per_call(pred, dirs.directions) - (
                directional_moduli_per_call(target, dirs.directions)
            )
            raw = float(np.mean(np.abs(values)))
            expected = (raw, raw / np.sqrt(target_mean_square(to_mandel(target))))
            assert l_dir(pred, target, dirs) == expected


def _target_contractions(monkeypatch) -> list:
    """Record each Mandel contraction that ``directional_moduli`` makes."""
    calls = []
    contract = tensor4._mandel_moduli

    def counting(m, dyads):
        calls.append(m)
        return contract(m, dyads)

    monkeypatch.setattr(tensor4, "_mandel_moduli", counting)
    return calls


class TestLDirKeptModuli:
    def test_a_hit_gives_the_bits_of_a_miss(self, rng):
        dirs = DirectionSet.sample(250, seed=4)
        for k in range(6):
            pred = from_mandel(random_symmetric_matrix(rng) * 10.0 ** (2 * k - 6))
            target = from_mandel(random_symmetric_matrix(rng) * 10.0 ** (2 * k - 6))
            miss = l_dir(pred, target, dirs)
            assert l_dir(pred, target, DirectionSet.sample(250, seed=4)) == miss
            assert l_dir(pred, from_mandel(to_mandel(target)), dirs) == miss

    def test_an_equal_set_hits_and_a_different_one_misses(self, rng, monkeypatch):
        pred, target = (from_mandel(random_symmetric_matrix(rng)) for _ in range(2))
        first = DirectionSet.sample(250, seed=4)
        l_dir(pred, target, first)
        calls = _target_contractions(monkeypatch)
        # an equal set sampled again, so a distinct array: only pred is contracted
        again = DirectionSet.sample(250, seed=4)
        assert again.directions is not first.directions
        l_dir(pred, target, again)
        assert len(calls) == 1
        # a set of the same size with other directions contracts both
        other = DirectionSet.sample(250, seed=5)
        expected = l_dir(pred, from_mandel(to_mandel(target)), other)
        calls.clear()
        assert l_dir(pred, target, other) == expected
        assert len(calls) == 2

    def test_each_target_keeps_one_entry(self, rng, monkeypatch):
        pred, target = (from_mandel(random_symmetric_matrix(rng)) for _ in range(2))
        sets = [DirectionSet.sample(64, seed=s) for s in (1, 2)]
        for dirs in sets:
            l_dir(pred, target, dirs)
            # the target holds the set's own array, not a copy, and one entry
            kept_directions, moduli, gamma = target._moduli
            assert kept_directions is dirs.directions
            assert moduli.shape == (64,)
            assert gamma == target_mean_square(to_mandel(target))
        calls = _target_contractions(monkeypatch)
        l_dir(pred, target, sets[0])  # the first set's entry was replaced
        assert len(calls) == 2

    def test_a_zero_target_raises_on_every_call(self, rng):
        pred, zero = from_mandel(random_symmetric_matrix(rng)), ElasticTensor4.zero()
        dirs = DirectionSet.sample(16, seed=0)
        for _ in range(2):
            with pytest.raises(ValueError, match="zero target stiffness"):
                l_dir(pred, zero, dirs)
            assert zero._moduli is None


class TestLEquiv:
    def test_equals_the_per_call_formula_bit_for_bit(self):
        lattices = [perturb(body_centred_cubic(), 0.05, seed=s) for s in range(2)] + [diamond()]
        rotations = sampling.random_rotations(3, seed=5)
        dirs = DirectionSet.sample(60, seed=4)
        pairs = len(lattices) * len(rotations)

        def squared_entries(lat):  # not equivariant, and built by from_mandel
            return from_mandel(to_mandel(homogenize(lat).stiffness).entries ** 2)

        for predict in (lambda lat: homogenize(lat).stiffness, squared_entries):
            total = rotated_total = 0.0
            d = dirs.directions
            for lat in lattices:
                for r in rotations:
                    rotated = directional_moduli_per_call(predict(rotate_lattice(lat, r)), d)
                    # C's modulus along R^T d, the row d R
                    values = directional_moduli_per_call(predict(lat), d @ r) - rotated
                    total += float(np.mean(np.abs(values)))
                    # the same modulus of the rotated tensor, equal up to rounding
                    values = directional_moduli_per_call(rotate(predict(lat), r), d) - rotated
                    rotated_total += float(np.mean(np.abs(values)))
            value = l_equiv(predict, lattices, rotations, dirs)
            assert value == total / pairs
            scale = np.mean([np.abs(directional_moduli_per_call(predict(lat), d)).mean()
                             for lat in lattices])
            assert abs(value - rotated_total / pairs) <= 1e-14 * scale

    def test_calls_every_base_lattice_first(self):
        lattices = [simple_cubic(), body_centred_cubic(), diamond()]
        rotations = sampling.random_rotations(2, seed=3)
        calls = []

        def recording(lat):
            calls.append((lat.name, lat.cell.tobytes()))
            return homogenize(lat).stiffness

        l_equiv(recording, lattices, rotations, DirectionSet.sample(10, seed=1))
        expected = [(lat.name, lat.cell.tobytes()) for lat in lattices] + [
            (lat.name, (r @ lat.cell).tobytes()) for lat in lattices for r in rotations
        ]
        assert calls == expected

    def test_a_bad_rotation_fails_where_it_is_reached(self):
        calls = []

        def recording(lat):
            calls.append(lat.cell.tobytes())
            return homogenize(lat).stiffness

        lattices, good = [simple_cubic(), diamond()], sampling.random_rotation(3)
        with pytest.raises(ValueError, match="not a proper rotation"):
            l_equiv(recording, lattices, [good, 1.1 * good], DirectionSet.sample(10, seed=1))
        cells = [lat.cell for lat in lattices] + [good @ lattices[0].cell]
        assert calls == [cell.tobytes() for cell in cells]

    def test_checks_each_rotation_once(self, monkeypatch):
        checked = []
        check = lattice.check_rotation
        monkeypatch.setattr(lattice, "check_rotation", lambda r: checked.append(r) or check(r))
        lattices = [simple_cubic(), body_centred_cubic(), diamond()]
        rotations = sampling.random_rotations(2, seed=3)
        l_equiv(lambda lat: homogenize(lat).stiffness, lattices, rotations,
                DirectionSet.sample(10, seed=1))
        np.testing.assert_array_equal(checked, rotations)

    def test_homogenizer_is_equivariant(self):
        lattices = [
            perturb(body_centred_cubic(), 0.05, seed=s) for s in range(3)
        ] + [simple_cubic(), diamond()]
        rotations = sampling.random_rotations(4, seed=5)
        dirs = DirectionSet.sample(60, seed=4)

        def predictor(lat):
            return homogenize(lat).stiffness

        assert l_equiv(predictor, lattices, rotations, dirs) < 1e-8

    def test_constant_anisotropic_predictor_fails(self, rng):
        constant = ElasticTensor4(random_symmetric_tensor4(rng))
        rotations = sampling.random_rotations(3, seed=6)
        dirs = DirectionSet.sample(40, seed=7)
        value = l_equiv(lambda lat: constant, [diamond()], rotations, dirs)
        assert value > 1e-3

    def test_constant_isotropic_predictor_passes(self):
        constant = ElasticTensor4.isotropic(1.0, 1.0)
        rotations = sampling.random_rotations(3, seed=6)
        dirs = DirectionSet.sample(40, seed=7)
        value = l_equiv(lambda lat: constant, [diamond()], rotations, dirs)
        assert value < 1e-12

    def test_propagates_predictor_failure_with_name(self):
        # the predictor's own exception comes out, with its type and message
        for error in (ValueError, TypeError):

            def broken(lat):
                raise error(f"boom on {lat.name}")

            with pytest.raises(error, match="^boom on diamond$") as raised:
                l_equiv(broken, [diamond()], sampling.random_rotations(1, 0), DirectionSet.sample(4, 0))
            assert type(raised.value) is error


class TestNegativeEigFraction:
    def test_psd_projected_set_is_clean(self, rng):
        tensors = []
        for _ in range(20):
            m = random_symmetric_matrix(rng)
            tensors.append(from_mandel(MandelMatrix(project(m, PsdMethod.SQUARE))))
        assert negative_eig_fraction(tensors) == 0.0

    def test_single_negative(self):
        c = from_mandel(MandelMatrix(np.diag([1.0, 1, 1, 1, 1, -1.0])))
        assert negative_eig_fraction([c]) == 1.0

    def test_eigclamp_outputs_are_clean(self, rng):
        # Clamped eigenvalues are exact zeros that come back from the
        # reconstruction as roundoff of either sign; they are not negative.
        tensors = []
        for _ in range(40):
            m = random_symmetric_matrix(rng)
            tensors.append(from_mandel(MandelMatrix(project(m, PsdMethod.EIGEN_CLAMP))))
        assert negative_eig_fraction(tensors) == 0.0

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_relative_floor_is_scale_free(self, scale):
        tiny = from_mandel(MandelMatrix(scale * np.diag([1.0, 1, 1, 1, 1, -1e-13])))
        small = from_mandel(MandelMatrix(scale * np.diag([1.0, 1, 1, 1, 1, -1e-8])))
        assert negative_eig_fraction([tiny]) == 0.0
        assert negative_eig_fraction([small]) == 1.0

    def test_counts_mixture(self, rng):
        good = ElasticTensor4.isotropic(1.0, 1.0)
        bad = from_mandel(MandelMatrix(np.diag([1.0, 1, 1, 1, 1, -1.0])))
        assert negative_eig_fraction([good, bad, good, bad, good]) == pytest.approx(0.4)

    def test_verdicts_match_each_kelvin_spectrum(self, rng):
        # the smallest eigenvalue sits within a factor 2 of the floor, so
        # eigenvalues that moved by roundoff could flip a verdict
        tensors = []
        for _ in range(60):
            q, _r = np.linalg.qr(rng.standard_normal((6, 6)))
            w = rng.uniform(0.5, 2.0, 6) * 10.0 ** rng.uniform(-10, 2)
            w[0] = -NEGATIVE_EIG_REL_TOL * w.max() * rng.uniform(0.5, 1.5)
            m = (q * w) @ q.T
            tensors.append(from_mandel(MandelMatrix(0.5 * (m + m.T))))
        expected = []
        for c in tensors:
            spectrum = kelvin_spectrum(c).eigenvalues
            expected.append(spectrum.min() < -NEGATIVE_EIG_REL_TOL * np.abs(spectrum).max())
        assert 0 < sum(expected) < len(expected)
        assert [negative_eig_fraction([c]) for c in tensors] == [float(e) for e in expected]
        assert negative_eig_fraction(tensors) == sum(expected) / len(expected)


class TestPenaltyHelper:
    def test_zero_for_psd(self):
        dirs = DirectionSet.sample(30, seed=0)
        assert negative_modulus_penalty(ElasticTensor4.isotropic(1.0, 1.0), dirs, 10.0) == 0.0

    def test_scales_with_multiplier(self):
        dirs = DirectionSet.sample(30, seed=0)
        c = ElasticTensor4.isotropic(0.0, -0.5)  # modulus -1 in every direction
        assert negative_modulus_penalty(c, dirs, 3.0) == pytest.approx(3.0)


class TestReport:
    def test_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            MetricReport(l_comp=-1.0, l_dir=0, l_dir_rel=0, negative_eig_fraction=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "name", ["l_comp", "l_dir", "l_dir_rel", "negative_eig_fraction", "l_equiv"]
    )
    def test_rejects_non_finite_fields(self, name, value):
        fields = dict(l_comp=1.0, l_dir=1.0, l_dir_rel=0.1, negative_eig_fraction=0.0)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            MetricReport(**dict(fields, **{name: value}))

    def test_optional_equiv(self):
        report = MetricReport(l_comp=1.0, l_dir=1.0, l_dir_rel=0.1, negative_eig_fraction=0.0)
        assert report.l_equiv is None
        assert report.as_dict()["l_equiv"] is None


def unit_directions_one_row_at_a_time(n, seed, generator=None):
    """Reference sampler: draw, reject and normalize one 3-vector at a time."""
    rng = generator or sampling.keyed_generator(seed, sampling.DOMAIN_DIRECTION)
    out = np.empty((n, 3))
    for q in range(n):
        while True:
            v = rng.standard_normal(3)
            norm = np.linalg.norm(v)
            if norm > 1e-12:
                out[q] = v / norm
                break
    return out


def rotation_of_quaternion(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


class ScriptedNormals:
    """Generator stand-in that deals out a fixed sequence of normals in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.used = 0

    def standard_normal(self, size):
        count = int(np.prod(size))
        out = self.values[self.used : self.used + count].reshape(size)
        self.used += count
        return out


class TestDirectionSet:
    @pytest.mark.parametrize("n", [0, 1, 7, 250])
    def test_matches_one_row_at_a_time(self, n):
        for seed in (0, 1, 5, 123, 2**40 + 3):
            expected = unit_directions_one_row_at_a_time(n, seed)
            np.testing.assert_array_equal(sampling.unit_directions(n, seed), expected)

    def test_short_rows_redrawn_in_stream_order(self, monkeypatch, rng):
        values = rng.standard_normal(60)
        values[3:6] = 0.0  # second row rejected
        values[9:12] = 1e-14  # fourth row rejected
        expected = unit_directions_one_row_at_a_time(
            8, 0, ScriptedNormals(values)
        )
        monkeypatch.setattr(
            sampling, "keyed_generator", lambda *key: ScriptedNormals(values)
        )
        np.testing.assert_array_equal(sampling.unit_directions(8, 0), expected)
        np.testing.assert_array_equal(expected[1], values[6:9] / np.linalg.norm(values[6:9]))

    def test_rejects_an_empty_set(self):
        with pytest.raises(ValueError, match="at least one direction"):
            DirectionSet.sample(0, seed=1)

    @pytest.mark.parametrize("directions", [[[1.0, 0.0]], [[1.0, 1.0, 0.0]], [[math.nan] * 3]])
    def test_rejects_non_unit_rows(self, directions):
        with pytest.raises(ValueError, match="directions must be"):
            DirectionSet(np.array(directions), seed=0)

    def test_owns_a_read_only_copy(self, rng):
        pred = ElasticTensor4(random_symmetric_tensor4(rng))
        target = ElasticTensor4(random_symmetric_tensor4(rng))
        directions = sampling.unit_directions(40, seed=3)
        dirs = DirectionSet(directions, seed=3)
        before = l_dir(pred, target, dirs)
        directions[:] = directions[::-1] * -1.0
        directions[0] = [1.0, 0.0, 0.0]
        assert l_dir(pred, target, dirs) == before
        assert negative_modulus_penalty(pred, dirs, 1.0) == negative_modulus_penalty(
            pred, DirectionSet.sample(40, seed=3), 1.0
        )
        with pytest.raises(ValueError):
            dirs.directions[0, 0] = 0.0

    def test_count_is_row_count(self):
        dirs = DirectionSet.sample(17, seed=2)
        assert dirs.n == 17
        assert DirectionSet(dirs.directions[:5], seed=2).n == 5

    def test_deterministic_per_seed(self):
        a = DirectionSet.sample(25, seed=3)
        b = DirectionSet.sample(25, seed=3)
        np.testing.assert_array_equal(a.directions, b.directions)

    def test_unit_norm(self):
        dirs = DirectionSet.sample(250, seed=0)
        np.testing.assert_allclose(np.linalg.norm(dirs.directions, axis=1), 1.0, atol=1e-12)

    def test_default_count(self):
        assert DirectionSet.sample().n == 250


class TestUnitDraws:
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3, 2**64 - 1])
    def test_unit_vector_matches_one_draw_at_a_time(self, seed):
        # every row of the re-keyed walker is its own fresh stream's draw
        count = 12
        for domain in (1, 2, 3):
            for size in (3, 4):
                for start in (0, 5, 2**48 - count):
                    rows = sampling._unit_draws(seed, domain, start, count, size)
                    assert rows.shape == (count, size)
                    for k, row in enumerate(rows):
                        rng = sampling.keyed_generator(seed, domain, start + k)
                        expected = unit_draw_one_at_a_time(rng, size)
                        assert row.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_random_rotation_matches_one_draw_at_a_time(self, seed):
        for index in range(20):
            rng = sampling.keyed_generator(seed, sampling.DOMAIN_ROTATION, index)
            expected = rotation_of_quaternion(unit_draw_one_at_a_time(rng, 4))
            assert sampling.random_rotation(seed, index).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("size", [3, 4])
    def test_short_draws_are_redrawn(self, monkeypatch, rng, size):
        values = rng.standard_normal(3 * size)
        values[:size] = 0.0  # the first draw is rejected
        values[size : 2 * size] = 1e-14  # and so is the second, of norm below 1e-12
        monkeypatch.setattr(sampling, "keyed_generator", lambda *key: ScriptedNormals(values))
        third = values[2 * size :] / np.linalg.norm(values[2 * size :])
        assert unit_draw_one_at_a_time(ScriptedNormals(values), size).tobytes() == third.tobytes()
        if size == 3:
            row = sampling._unit_draws(0, sampling.DOMAIN_PERTURBATION, 0, 1, 3)[0]
            assert row.tobytes() == third.tobytes()
        else:
            expected = rotation_of_quaternion(third)
            assert sampling.random_rotation(0, 0).tobytes() == expected.tobytes()


class TestRandomRotations:
    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_shape_is_count_by_3_by_3(self, count):
        assert sampling.random_rotations(count, 3).shape == (count, 3, 3)

    def test_rows_are_the_keyed_rotations(self):
        rotations = sampling.random_rotations(6, 11)
        for index, r in enumerate(rotations):
            assert r.tobytes() == sampling.random_rotation(11, index).tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("count", [1, 2, 50])
    def test_rows_match_one_fresh_stream_each(self, seed, count):
        for index, r in enumerate(sampling.random_rotations(count, seed)):
            rng = sampling.keyed_generator(seed, sampling.DOMAIN_ROTATION, index)
            expected = rotation_of_quaternion(unit_draw_one_at_a_time(rng, 4))
            assert r.tobytes() == expected.tobytes()

    def test_rekeyed_state_is_a_fresh_keyed_state(self):
        def plain(state):
            return {k: plain(v) if isinstance(v, dict) else np.asarray(v).tolist()
                    for k, v in state.items()}

        rng = sampling.keyed_generator(7, sampling.DOMAIN_ROTATION, 0)
        rng.standard_normal(5)
        sampling._rekey(rng, sampling._stream_key(7, sampling.DOMAIN_ROTATION, 9))
        fresh = sampling.keyed_generator(7, sampling.DOMAIN_ROTATION, 9)
        assert plain(rng.bit_generator.state) == plain(fresh.bit_generator.state)
        assert rng.standard_normal(9).tobytes() == fresh.standard_normal(9).tobytes()

    @pytest.mark.parametrize("count", [-1, -2])
    def test_rejects_a_negative_count(self, count):
        with pytest.raises(ValueError, match="rotation count must be nonnegative"):
            sampling.random_rotations(count, 3)


class TestAxisAngleRotation:
    @pytest.mark.parametrize(
        "axis, angle",
        [((math.nan, 0.0, 0.0), 1.0), ((math.inf, 0.0, 0.0), 1.0), ((0.0, 0.0, 1.0), math.inf),
         ((0.0, 0.0, 1.0), math.nan)],
    )
    def test_rejects_non_finite_axis_or_angle(self, axis, angle):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rotation axis and angle must be finite"):
                sampling.axis_angle_rotation(axis, angle)

    def test_quarter_turn_about_z(self):
        r = sampling.axis_angle_rotation((0.0, 0.0, 2.0), math.pi / 2)
        np.testing.assert_allclose(r, [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], atol=1e-15)
