import numpy as np
import pytest

from twostream import (
    ConfigError,
    DataError,
    Dataset,
    Rng,
    SkeletonSequence,
    SplitSpec,
    SynthConfig,
    generate_synthetic,
    make_splits,
    pad_sequences,
    read_tensor,
    write_tensor,
)


def _seq(t, j=2, label=0, subject=0, view=0, fill=1.0):
    return SkeletonSequence(np.full((t, j, 3), fill), label, subject, view)


class TestPadSequences:
    def test_exact_length_unchanged(self):
        batch = pad_sequences([_seq(4)])
        assert batch.data.shape == (1, 4, 6)
        assert batch.lengths == [4]
        assert np.all(batch.data == 1.0)

    def test_short_sequence_zero_padded_to_the_longest_with_length_recorded(self):
        batch = pad_sequences([_seq(1), _seq(4)])
        assert batch.lengths == [1, 4]
        assert np.all(batch.data[0, 0] == 1.0)
        assert not batch.data[0, 1:].any()

    def test_full_scale_shape(self):
        seqs = [SkeletonSequence(np.zeros((t, 50, 3)), 0, 0, 0) for t in (123, 300)]
        batch = pad_sequences(seqs)
        assert batch.data.shape == (2, 300, 150)


def _tiny_dataset(rng, **overrides):
    kwargs = dict(
        n_classes=4,
        samples_per_class=12,
        t_min=8,
        t_max=12,
        joints=3,
        video_shape=(2, 8, 6, 6),
        n_subjects=4,
        n_views=3,
        shared_skeleton_pairs=((0, 1),),
        shared_video_pairs=((2, 3),),
        xor_pair=None,
    )
    kwargs.update(overrides)
    return generate_synthetic(SynthConfig(**kwargs), rng)


class TestMakeSplits:
    def test_cross_subject_halves_subjects_and_carves_validation(self):
        dataset = _tiny_dataset(Rng(1))
        splits = make_splits(dataset, SplitSpec("cross_subject"), Rng(2))
        subj = lambda ids: {dataset[i].skeleton.subject_id for i in ids}
        assert subj(splits.train) & subj(splits.test) == set()
        assert subj(splits.val) & subj(splits.test) == set()
        assert subj(splits.val) & subj(splits.train) == set()
        assert len(subj(splits.test)) == 2
        assert len(subj(splits.val)) == 1  # 10% of 2 train-side subjects rounds up

    def test_cross_view_excludes_one_view(self):
        dataset = _tiny_dataset(Rng(1))
        splits = make_splits(dataset, SplitSpec("cross_view"), Rng(2))
        views = lambda ids: {dataset[i].skeleton.view_id for i in ids}
        assert len(views(splits.test)) == 1
        assert views(splits.train) == views(splits.val)
        assert views(splits.test) & views(splits.train) == set()

    def test_partitions_are_disjoint_and_exhaustive(self):
        dataset = _tiny_dataset(Rng(1))
        for mode in ("cross_subject", "cross_view"):
            splits = make_splits(dataset, SplitSpec(mode), Rng(5))
            all_ids = sorted(splits.train + splits.val + splits.test)
            assert all_ids == list(range(len(dataset)))

    def test_same_seed_same_splits(self):
        dataset = _tiny_dataset(Rng(1))
        a = make_splits(dataset, SplitSpec("cross_subject"), Rng(9))
        b = make_splits(dataset, SplitSpec("cross_subject"), Rng(9))
        assert a.train == b.train and a.val == b.val and a.test == b.test

    def test_single_view_cross_view_rejected(self):
        dataset = _tiny_dataset(Rng(1), n_views=1)
        with pytest.raises(DataError):
            make_splits(dataset, SplitSpec("cross_view"), Rng(0))


class TestGenerator:
    def test_fixed_seed_gives_bit_identical_datasets(self):
        a = _tiny_dataset(Rng(42))
        b = _tiny_dataset(Rng(42))
        assert len(a) == len(b)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.sample_id == sb.sample_id
            assert np.array_equal(sa.skeleton.coords, sb.skeleton.coords)
            assert np.array_equal(sa.video.pixels, sb.video.pixels)

    def test_shared_skeleton_pair_draws_from_one_motion_process(self):
        # Classes 0 and 1 share the motion signature, so any statistic matches
        # in distribution. Distinct signatures play a different primitive in
        # the second quarter, which its per-coordinate spread exposes; the
        # shared wind-down half is identical (still) for every class.
        dataset = _tiny_dataset(Rng(7), skeleton_noise=0.0, samples_per_class=24)

        def mid_profile(label):
            profiles = []
            for s in dataset.samples:
                if s.label != label:
                    continue
                flat = s.skeleton.flat()
                t = s.skeleton.t_true
                profiles.append(flat[t // 4 : t // 2].std(axis=0))
            return np.mean(profiles, axis=0)

        d01 = np.linalg.norm(mid_profile(0) - mid_profile(1))
        d02 = np.linalg.norm(mid_profile(0) - mid_profile(2))
        d03 = np.linalg.norm(mid_profile(0) - mid_profile(3))
        assert d01 * 3.0 < d02
        assert d01 * 3.0 < d03

    def test_shared_video_pair_draws_from_one_texture_process(self):
        dataset = _tiny_dataset(Rng(7), video_noise=0.0, samples_per_class=24)

        def mean_power(label):
            powers = []
            for s in dataset.samples:
                if s.label != label:
                    continue
                px = s.video.pixels
                powers.append(np.abs(np.fft.fftn(px - px.mean())).mean(axis=(0, 1)))
            return np.mean(powers, axis=0)

        d23 = np.linalg.norm(mean_power(2) - mean_power(3))
        d24 = np.linalg.norm(mean_power(2) - mean_power(0))
        assert d23 * 3.0 < d24

    def test_video_pixels_in_unit_interval(self):
        dataset = _tiny_dataset(Rng(3))
        for s in dataset.samples[:10]:
            assert s.video.pixels.min() >= 0.0
            assert s.video.pixels.max() <= 1.0

    def test_sequence_lengths_respect_range(self):
        dataset = _tiny_dataset(Rng(3))
        lengths = [s.skeleton.t_true for s in dataset.samples]
        assert min(lengths) >= 8 and max(lengths) <= 12
        assert len(set(lengths)) > 1

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n_classes": 2}, r"shared_video_pairs: \(2, 3\) needs classes below n_classes \(2\)"),
            ({"n_classes": 5}, r"xor_pair: \(4, 5\) needs classes below n_classes \(5\)"),
            (
                {"shared_skeleton_pairs": ((0, 4),)},
                r"xor_pair: \(4, 5\) shares classes \[4\] with shared_skeleton_pairs",
            ),
        ],
        ids=["default_video_pair", "default_xor_pair", "xor_overlap"],
    )
    def test_bad_class_pair_names_its_field(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            generate_synthetic(SynthConfig(**overrides), Rng(0))

    def test_labels_subjects_views_are_balanced(self):
        dataset = _tiny_dataset(Rng(3))
        labels = dataset.labels(range(len(dataset)))
        assert [int((labels == k).sum()) for k in range(4)] == [12, 12, 12, 12]
        views = {v: 0 for v in range(3)}
        for s in dataset.samples:
            views[s.skeleton.view_id] += 1
        assert all(c == 16 for c in views.values())


class TestDatasetRoundtrip:
    def test_save_load_is_bit_exact(self, tmp_path):
        dataset = _tiny_dataset(Rng(11))
        dataset.save(tmp_path / "ds")
        back = Dataset.load(tmp_path / "ds")
        assert len(back) == len(dataset)
        assert back.n_classes == dataset.n_classes
        for sa, sb in zip(dataset.samples, back.samples):
            assert sa.sample_id == sb.sample_id
            assert sa.label == sb.label
            assert sa.skeleton.subject_id == sb.skeleton.subject_id
            assert sa.skeleton.view_id == sb.skeleton.view_id
            assert np.array_equal(sa.skeleton.coords, sb.skeleton.coords)
            assert np.array_equal(sa.video.pixels, sb.video.pixels)

    def test_saved_files_are_stable_across_rewrites(self, tmp_path):
        dataset = _tiny_dataset(Rng(11))
        dataset.save(tmp_path / "a")
        dataset.save(tmp_path / "b")
        for name in ("manifest.tsv", "s00000_sk.tsr", "s00000_vd.tsr"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(DataError):
            Dataset.load(tmp_path)

    @pytest.mark.parametrize(
        "bad_line",
        [
            "s9\t0\t0\t0\n",
            "s9\tx\t0\t0\ta_sk.tsr\ta_vd.tsr\t4\n",
            "s9\t4\t0\t0\ta_sk.tsr\ta_vd.tsr\t4\n",  # label == n_classes
            "s9\t-1\t0\t0\ta_sk.tsr\ta_vd.tsr\t4\n",
            "s9\t0\t0\t0\ta_sk.tsr\ta_vd.tsr\t5\n",  # line 2 says 4
            "s\xff\t0\t0\t0\ta_sk.tsr\ta_vd.tsr\t4\n",  # byte 0xff: not UTF-8
        ],
    )
    def test_malformed_manifest_line_names_its_line(self, tmp_path, bad_line):
        _tiny_dataset(Rng(11)).save(tmp_path)
        manifest = tmp_path / "manifest.tsv"
        lines = manifest.read_text(encoding="latin-1").splitlines(keepends=True)
        lines.insert(2, bad_line)  # header is line 1, so this is line 3
        manifest.write_text("".join(lines), encoding="latin-1")  # one byte per character
        with pytest.raises(DataError, match=r"manifest\.tsv:3:"):
            Dataset.load(tmp_path)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda path: path.unlink(),
            lambda path: path.write_bytes(b"TSR1 x 3 f64\n"),
            lambda path: path.write_bytes(path.read_bytes()[:-8]),
        ],
        ids=["missing", "bad-header", "truncated"],
    )
    def test_unreadable_tensor_names_line_and_file(self, tmp_path, damage):
        _tiny_dataset(Rng(11)).save(tmp_path)
        damage(tmp_path / "s00001_vd.tsr")
        with pytest.raises(DataError, match=r"manifest\.tsv:3: .*s00001_vd\.tsr"):
            Dataset.load(tmp_path)

    @pytest.mark.parametrize(
        "suffix, cut, shapes",
        [
            ("sk", lambda a: a[:, :2], r"\(2, 3\), line 2's sample has \(3, 3\)"),  # a joint fewer
            ("vd", lambda a: a[:, :, :4], r"\(2, 4, 6\), line 2's sample has \(2, 6, 6\)"),  # two rows fewer
        ],
        ids=["skeleton", "video"],
    )
    def test_sample_shape_unlike_line_two_names_line_and_file(self, tmp_path, suffix, cut, shapes):
        _tiny_dataset(Rng(11)).save(tmp_path)
        path = tmp_path / f"s00001_{suffix}.tsr"
        write_tensor(path, cut(read_tensor(path)))
        with pytest.raises(DataError, match=rf"manifest\.tsv:3: s00001_{suffix}\.tsr has frame shape {shapes}"):
            Dataset.load(tmp_path)
