"""Dataset types, sequence padding, subject/view splitting, and a synthetic
generator of paired skeleton + video samples.

The generator gives every class two signatures: a long-horizon joint-motion
pattern (the order in which motion primitives are played across the sequence,
unreadable from any short window) and a local spatiotemporal video texture
(visible in any single clip). Classes listed in `shared_skeleton_pairs` share
the motion signature exactly, so no skeleton-only classifier can separate
them; `shared_video_pairs` share the texture, capping video-only classifiers
the same way. Neither stream alone can reach 100%, their union can.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError
from .fileio import read_tensor, write_tensor
from .recurrent import SequenceBatch
from .tensor import Rng, default_dtype


@dataclass
class SkeletonSequence:
    coords: np.ndarray  # [T_true, J, 3]
    label: int
    subject_id: int
    view_id: int

    def __post_init__(self):
        if self.coords.ndim != 3 or self.coords.shape[2] != 3 or self.coords.shape[0] < 1:
            raise DimensionError(f"skeleton coords must be [T>=1, J, 3], got {self.coords.shape}")

    @property
    def t_true(self):
        return self.coords.shape[0]

    @property
    def feature_width(self):
        return self.coords.shape[1] * 3

    def flat(self):
        return self.coords.reshape(self.t_true, -1)


@dataclass
class VideoVolume:
    pixels: np.ndarray  # [C, T, H, W] in [0, 1]
    label: int
    subject_id: int
    view_id: int

    def __post_init__(self):
        if self.pixels.ndim != 4:
            raise DimensionError(f"video pixels must be [C,T,H,W], got {self.pixels.shape}")


@dataclass
class Sample:
    sample_id: str
    skeleton: SkeletonSequence
    video: VideoVolume

    @property
    def label(self):
        return self.skeleton.label


class Dataset:
    """Paired samples, indexable; saved as manifest.tsv plus one TSR1 tensor
    per modality per sample (bit-exact across platforms)."""

    def __init__(self, samples, n_classes):
        self.samples = list(samples)
        self.n_classes = n_classes

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, i):
        return self.samples[i]

    def labels(self, indices=None):
        idx = range(len(self.samples)) if indices is None else indices
        return np.array([self.samples[i].label for i in idx])

    def save(self, directory):
        os.makedirs(directory, exist_ok=True)
        lines = ["sample_id\tlabel\tsubject\tview\tskeleton\tvideo\tn_classes\n"]
        for s in self.samples:
            sk_name = f"{s.sample_id}_sk.tsr"
            vd_name = f"{s.sample_id}_vd.tsr"
            write_tensor(os.path.join(directory, sk_name), s.skeleton.coords)
            write_tensor(os.path.join(directory, vd_name), s.video.pixels)
            lines.append(
                f"{s.sample_id}\t{s.label}\t{s.skeleton.subject_id}\t"
                f"{s.skeleton.view_id}\t{sk_name}\t{vd_name}\t{self.n_classes}\n"
            )
        with open(os.path.join(directory, "manifest.tsv"), "w", newline="\n") as fh:
            fh.writelines(lines)

    @classmethod
    def load(cls, directory):
        manifest = os.path.join(directory, "manifest.tsv")
        if not os.path.exists(manifest):
            raise DataError(f"no manifest.tsv under {directory}")
        samples = []
        n_classes = 0
        with open(manifest, "rb") as fh:  # decoded line by line, so a bad byte names its line
            header = fh.readline()
            if not header.startswith(b"sample_id\t"):
                raise DataError(f"unrecognized manifest header in {manifest}")
            for lineno, line in enumerate(fh, start=2):
                try:
                    fields = line.decode("utf-8").rstrip("\n").split("\t")
                except UnicodeDecodeError:
                    raise DataError(f"{manifest}:{lineno}: not UTF-8 text") from None
                if len(fields) != 7:
                    raise DataError(
                        f"{manifest}:{lineno}: expected 7 tab-separated fields, got {len(fields)}"
                    )
                sid, label, subject, view, sk_name, vd_name, k = fields
                try:
                    label, subject, view, k = int(label), int(subject), int(view), int(k)
                except ValueError:
                    raise DataError(
                        f"{manifest}:{lineno}: label, subject, view and n_classes must be integers"
                    ) from None
                if samples and k != n_classes:
                    raise DataError(
                        f"{manifest}:{lineno}: n_classes {k} differs from line 2's {n_classes}"
                    )
                n_classes = k
                if not 0 <= label < n_classes:
                    raise DataError(f"{manifest}:{lineno}: label {label} outside [0, {n_classes})")
                try:
                    coords = read_tensor(os.path.join(directory, sk_name))
                    pixels = read_tensor(os.path.join(directory, vd_name))
                except (OSError, DataError) as e:  # DataError names the file, as OSError does
                    raise DataError(f"{manifest}:{lineno}: {e}") from e
                # per-frame shapes: [J, 3] joints and the video's (c, h, w)
                frames = (coords.shape[1:], pixels.shape[:1] + pixels.shape[2:])
                if not samples:
                    first = frames
                for name, got, want in zip((sk_name, vd_name), frames, first):
                    if got != want:
                        raise DataError(
                            f"{manifest}:{lineno}: {name} has frame shape {got}, "
                            f"line 2's sample has {want}"
                        )
                samples.append(
                    Sample(
                        sample_id=sid,
                        skeleton=SkeletonSequence(coords, label, subject, view),
                        video=VideoVolume(pixels, label, subject, view),
                    )
                )
        return cls(samples, n_classes)


def pad_sequences(seqs, t_max=None) -> SequenceBatch:
    """Flatten joint coordinates and zero-pad every sequence to t_max steps
    (by default the longest sequence's), recording true lengths. Sequences
    longer than t_max are an error, never silently truncated."""
    if not seqs:
        raise DataError("cannot pad an empty sequence list")
    if t_max is None:
        t_max = max(seq.t_true for seq in seqs)
    width = seqs[0].feature_width
    data = np.zeros((len(seqs), t_max, width), dtype=default_dtype())
    lengths = []
    for row, seq in enumerate(seqs):
        if seq.t_true > t_max:
            raise DataError(
                f"sequence {row} has {seq.t_true} steps, longer than t_max={t_max}"
            )
        if seq.feature_width != width:
            raise DimensionError(
                f"sequence {row} width {seq.feature_width} != {width}"
            )
        data[row, : seq.t_true, :] = seq.flat()
        lengths.append(seq.t_true)
    return SequenceBatch(data, lengths)


SPLIT_MODES = ("cross_subject", "cross_view")
VAL_FRACTION = 0.1  # of training subjects, rounded up


def _train_side(mode, n_subjects):
    """Subjects on the training side of a split: cross_subject holds out
    half of them, cross_view holds out a view and no subject."""
    return n_subjects // 2 if mode == "cross_subject" else n_subjects


def _val_subjects(n_train_side):
    """Subjects carved from the training side for validation."""
    return max(1, math.ceil(VAL_FRACTION * n_train_side))


def fewest_subjects(mode):
    """The fewest subjects, each seen in every view, that `make_splits`
    leaves training, validation and test subjects with in `mode`."""
    return next(n for n in itertools.count(2) if _train_side(mode, n) > _val_subjects(_train_side(mode, n)))


@dataclass
class SplitSpec:
    mode: str = "cross_subject"  # or "cross_view"

    def __post_init__(self):
        if self.mode not in SPLIT_MODES:
            raise ConfigError(f"split mode must be cross_subject|cross_view, got {self.mode!r}")


@dataclass
class Splits:
    train: list
    val: list
    test: list


def make_splits(dataset: Dataset, spec: SplitSpec, rng: Rng) -> Splits:
    """Disjoint, exhaustive train/val/test index lists, deterministic per seed.

    cross_subject holds out half the subjects; cross_view holds out one view.
    Validation is carved from the training side by subject either way.
    """
    subjects = sorted({s.skeleton.subject_id for s in dataset.samples})
    views = sorted({s.skeleton.view_id for s in dataset.samples})
    if len(subjects) < 2:
        raise DataError(f"need >= 2 subjects, got {len(subjects)}")
    if spec.mode == "cross_view" and len(views) < 2:
        raise DataError(f"cross_view needs >= 2 views, got {len(views)}")

    if spec.mode == "cross_subject":
        order = [subjects[i] for i in rng.permutation(len(subjects))]
        half = _train_side(spec.mode, len(order))
        test_subjects = set(order[half:])
        held_out = [s.skeleton.subject_id in test_subjects for s in dataset.samples]
        train_order = order[:half]
    else:
        order = [views[i] for i in rng.permutation(len(views))]
        held_out = [s.skeleton.view_id == order[-1] for s in dataset.samples]
        train_subjects = sorted(
            {s.skeleton.subject_id for s, out in zip(dataset.samples, held_out) if not out}
        )
        train_order = [train_subjects[i] for i in rng.permutation(len(train_subjects))]
    n_val = _val_subjects(len(train_order))
    val_subjects = set(train_order[:n_val])
    train_ids, val_ids, test_ids = [], [], []
    for i, (s, out) in enumerate(zip(dataset.samples, held_out)):
        if out:
            test_ids.append(i)
        elif s.skeleton.subject_id in val_subjects:
            val_ids.append(i)
        else:
            train_ids.append(i)
    if not train_ids or not val_ids or not test_ids:
        raise DataError(
            f"unsatisfiable split: sizes train={len(train_ids)} val={len(val_ids)} "
            f"test={len(test_ids)}"
        )
    return Splits(train=train_ids, val=val_ids, test=test_ids)


@dataclass
class SynthConfig:
    """The generator's settings. These defaults are the package's only table
    of synthetic-data defaults: `config.SCHEMA` takes its own from them."""

    n_classes: int = 6
    samples_per_class: int = 90
    t_min: int = 30
    t_max: int = 60
    joints: int = 8
    video_shape: tuple = (3, 16, 16, 16)  # (c, t, h, w)
    n_subjects: int = 20
    n_views: int = 3
    skeleton_noise: float = 0.05
    video_noise: float = 0.05
    # class pair separated only by repeat-vs-alternate opening segments
    # (set to None to disable)
    xor_pair: tuple = (4, 5)
    # class pairs sharing the long-horizon motion signature (skeleton-ambiguous)
    shared_skeleton_pairs: tuple = ((0, 1),)
    # class pairs sharing the local texture signature (video-ambiguous)
    shared_video_pairs: tuple = ((2, 3),)

    def validate(self):
        if self.n_classes < 2 or self.samples_per_class < 1:
            raise ConfigError("need >= 2 classes and >= 1 sample per class")
        if not 1 <= self.t_min <= self.t_max:
            raise ConfigError(f"bad sequence length range [{self.t_min},{self.t_max}]")
        if self.joints < 1 or self.n_subjects < 2 or self.n_views < 1:
            raise ConfigError("need >= 1 joint, >= 2 subjects, >= 1 view")
        if len(self.video_shape) != 4 or any(d < 1 for d in self.video_shape):
            raise ConfigError(f"bad video shape {self.video_shape}")
        for key in ("shared_skeleton_pairs", "shared_video_pairs"):
            for pair in getattr(self, key):
                self._check_pair(key, pair)
        if self.xor_pair is not None:
            a, b = self.xor_pair
            self._check_pair("xor_pair", (a, b))
            shared = {c for p in self.shared_skeleton_pairs for c in p} & {a, b}
            if shared:
                raise ConfigError(
                    f"xor_pair: ({a}, {b}) shares classes {sorted(shared)} with "
                    "shared_skeleton_pairs; xor classes cannot also share a skeleton signature"
                )

    def _check_pair(self, key, pair):
        a, b = pair
        if a == b:
            raise ConfigError(f"{key}: ({a}, {b}) needs two different classes")
        if min(a, b) < 0:
            raise ConfigError(f"{key}: ({a}, {b}) needs non-negative classes")
        if max(a, b) >= self.n_classes:
            default = getattr(self, key) == _SYNTH_DEFAULTS[key]
            raise ConfigError(
                f"{key}: ({a}, {b}) needs classes below n_classes ({self.n_classes})"
                + (f"; the default {key} assumes 6 classes, so set {key} too" if default else "")
            )


_SYNTH_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SynthConfig)}


# Motion primitives 0-3 carry class evidence; primitive 4 is the rest pose.
# Each signature word plays two primitives across the opening quarters and
# then winds down: a reader of recent steps sees only the shared stillness,
# and several words differ only in play order. Both properties force genuinely
# long-horizon classification.
_REST = 4
_SEGMENT_WORDS = [
    (0, 1, _REST),
    (1, 0, _REST),
    (0, 0, _REST),
    (1, 1, _REST),
    (2, 1, _REST),
    (2, 0, _REST),
    (0, 2, _REST),
    (1, 2, _REST),
]
# The repeat-or-alternate pair: one class repeats a primitive across both
# opening segments, the other alternates two. Per-segment primitive marginals
# coincide, so the distinction is a composition of the two openings, not a sum
# of per-segment evidence.
_XOR_SAME = ((2, 2, _REST), (3, 3, _REST))
_XOR_DIFF = ((2, 3, _REST), (3, 2, _REST))
_N_SEGMENTS = 3
_N_PRIMITIVES = 5
_SUBJECT_OFFSET = 0.12  # spread of the per-subject rest-pose shift, in coordinate units
_VIEW_ANGLE = np.pi / 18.0  # camera fan-out step around the frontal view
# The wind-down takes the whole second half: class evidence never reaches the
# most recent steps, so classifiers must carry it over dozens of time steps.
_SEGMENT_FRACTIONS = (0.0, 0.25, 0.5, 1.0)


def _signature_ids(n_classes, shared_pairs):
    parent = list(range(n_classes))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in shared_pairs:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [find(i) for i in range(n_classes)]


def _motion_primitives(joints, rng):
    """Per-joint oscillation directions, phases, frequency for each primitive.

    The last primitive is the rest pose (zero amplitude): segments playing it
    show the subject standing still, the way real action clips wind down.
    """
    prims = []
    for k in range(_N_PRIMITIVES):
        direction = rng.normal(size=(joints, 3))
        direction /= np.sqrt((direction**2).sum(axis=1, keepdims=True))
        amp = rng.uniform(0.6, 1.0, size=joints)
        if k == _N_PRIMITIVES - 1:
            amp = np.zeros(joints)
        prims.append(
            {
                "dir": direction,
                "phase": rng.uniform(0.0, 2.0 * np.pi, size=joints),
                "freq": float(rng.uniform(1.0, 2.0)),
                "amp": amp,
            }
        )
    return prims


def _view_rotation(view_id, n_views):
    # cameras fan out symmetrically around the frontal view
    angle = (view_id - (n_views - 1) / 2.0) * _VIEW_ANGLE
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _render_skeleton(word, prims, base_pose, t_true, rot, subject_offset, noise, rng):
    coords = np.empty((t_true, base_pose.shape[0], 3), dtype=default_dtype())
    bounds = np.round(np.asarray(_SEGMENT_FRACTIONS) * t_true).astype(int)
    for seg in range(_N_SEGMENTS):
        prim = prims[word[seg]]
        lo, hi = bounds[seg], bounds[seg + 1]
        seg_len = max(hi - lo, 1)
        tau = np.arange(hi - lo) / seg_len
        wave = np.sin(
            2.0 * np.pi * prim["freq"] * tau[:, None] + prim["phase"][None, :]
        )  # [seg_len, J]
        offset = prim["amp"][None, :, None] * wave[:, :, None] * prim["dir"][None, :, :]
        coords[lo:hi] = base_pose[None, :, :] + offset
    coords += subject_offset[None, None, :]
    coords = coords @ rot.T
    coords += rng.normal(0.0, noise, size=coords.shape)
    return coords


def _render_video(tex, shape, view_id, subject_id, n_subjects, noise, rng):
    c, t, h, w = shape
    theta = tex["theta"] + 0.1 * view_id
    kx = tex["cycles"] * np.cos(theta)
    ky = tex["cycles"] * np.sin(theta)
    xs = np.arange(w) / w
    ys = np.arange(h) / h
    ts = np.arange(t) / t
    phase_sample = rng.uniform(0.0, 2.0 * np.pi)
    spatial = 2.0 * np.pi * (kx * xs[None, :] + ky * ys[:, None])  # [h, w]
    temporal = 2.0 * np.pi * tex["omega"] * ts  # [t]
    arg = (
        spatial[None, None, :, :]
        + temporal[None, :, None, None]
        + tex["channel_phase"][:, None, None, None]
        + phase_sample
    )
    brightness = 0.04 * (subject_id / max(n_subjects - 1, 1) - 0.5)
    pixels = 0.5 + brightness + 0.35 * np.sin(arg)
    pixels += rng.normal(0.0, noise, size=pixels.shape)
    return np.clip(pixels, 0.0, 1.0).astype(default_dtype())


def generate_synthetic(config: SynthConfig, rng: Rng) -> Dataset:
    """Build the paired dataset. Everything is drawn from `rng` in a fixed
    order, so one seed always yields bit-identical samples and files."""
    config.validate()
    k = config.n_classes
    skeleton_sig = _signature_ids(k, config.shared_skeleton_pairs)
    video_sig = _signature_ids(k, config.shared_video_pairs)

    # every class owns a set of signature words; one is played per sample
    xor_classes = set(config.xor_pair) if config.xor_pair is not None else set()
    unique_sk = sorted({s for c, s in enumerate(skeleton_sig) if c not in xor_classes})
    if len(unique_sk) > len(_SEGMENT_WORDS):
        raise ConfigError(
            f"at most {len(_SEGMENT_WORDS)} distinct motion signatures supported, "
            f"need {len(unique_sk)}"
        )
    word_sets = {}
    for label in range(k):
        if label in xor_classes:
            word_sets[label] = _XOR_SAME if label == min(xor_classes) else _XOR_DIFF
        else:
            word_sets[label] = (_SEGMENT_WORDS[unique_sk.index(skeleton_sig[label])],)

    prims = _motion_primitives(config.joints, rng)
    base_pose = rng.normal(0.0, 0.5, size=(config.joints, 3))  # sensor-centered coords
    subject_offsets = rng.normal(0.0, _SUBJECT_OFFSET, size=(config.n_subjects, 3))
    textures = {
        sig: {
            "theta": float(rng.uniform(0.0, np.pi)),
            "cycles": float(rng.uniform(1.5, 3.5)),
            "omega": float(rng.uniform(1.0, 3.0)),
            "channel_phase": rng.uniform(0.0, 2.0 * np.pi, size=config.video_shape[0]),
        }
        for sig in sorted(set(video_sig))
    }
    rotations = {
        v: _view_rotation(v, config.n_views) for v in range(config.n_views)
    }

    samples = []
    index = 0
    for label in range(k):
        for j in range(config.samples_per_class):
            view = j % config.n_views
            subject = (j // config.n_views) % config.n_subjects
            t_true = int(rng.integers(config.t_min, config.t_max + 1))
            words = word_sets[label]
            word = words[int(rng.integers(0, len(words)))] if len(words) > 1 else words[0]
            coords = _render_skeleton(
                word,
                prims,
                base_pose,
                t_true,
                rotations[view],
                subject_offsets[subject],
                config.skeleton_noise,
                rng,
            )
            pixels = _render_video(
                textures[video_sig[label]],
                config.video_shape,
                view,
                subject,
                config.n_subjects,
                config.video_noise,
                rng,
            )
            samples.append(
                Sample(
                    sample_id=f"s{index:05d}",
                    skeleton=SkeletonSequence(coords, label, subject, view),
                    video=VideoVolume(pixels, label, subject, view),
                )
            )
            index += 1
    return Dataset(samples, n_classes=k)
