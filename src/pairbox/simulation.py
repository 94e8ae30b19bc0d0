"""Misalignment injection, synthetic paired scenes, and mock detectors.

These pieces let the full pipeline run end to end without a trained network:
``apply_shift`` translates thermal annotations horizontally (clipping at the
image border), ``generate_scene`` builds seeded paired ground truth, and
``mock_detect`` stands in for a detector, either emitting an independent box
per modality (paired mode) or one box duplicated into both modalities
(single-box mode, the behavior of detectors unaware of misalignment), as the
rows of a :class:`~pairbox.evaluation.DetectionTable`.

Randomness contract: each operation takes one root seed; per-frame streams
are derived from it with fixed sub-stream keys, so output never depends on
iteration or thread order.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .evaluation import DatasetMeta, DetectionTable, GtTable

__all__ = [
    "ShiftSpec",
    "SceneSpec",
    "MockDetectorSpec",
    "SCORE_FLOOR",
    "MAX_DRAWS",
    "apply_shift",
    "generate_scene",
    "mock_detect",
]


# the most frames, expected pedestrians or expected false positives one call
# may draw; like sampling.MAX_ANCHORS, a larger request is refused up front
MAX_DRAWS = 1_000_000


@dataclass(frozen=True)
class ShiftSpec:
    """Horizontal thermal shift in pixels, clipped to [0, image_width]."""

    dx: float
    image_width: float = 640.0

    def __post_init__(self):
        if not math.isfinite(self.dx) or not math.isfinite(self.image_width):
            raise ValueError("shift parameters must be finite")
        if self.image_width <= 0:
            raise ValueError("image_width must be positive")
        if abs(self.dx) >= self.image_width:
            raise ValueError("|dx| must be smaller than the image width")


def apply_shift(table: GtTable, spec: ShiftSpec) -> GtTable:
    """Translate every thermal box horizontally by ``spec.dx``.

    Shifted boxes are clipped to [0, image_width], possibly down to zero
    width. Visible boxes, occlusion and ignore flags are untouched. A zero
    shift returns ``table`` itself.
    """
    if spec.dx == 0.0:
        return table
    x, w = table.t[:, 0], table.t[:, 2]
    left = np.minimum(spec.image_width, np.maximum(0.0, x + spec.dx))
    right = np.minimum(spec.image_width, np.maximum(0.0, (x + w) + spec.dx))
    rows = table.rows.copy()
    rows[:, 4], rows[:, 6] = left, right - left
    return GtTable(table.frame_ids, table.offsets, rows, table.occ, table.ignore, table.meta)


@dataclass(frozen=True)
class SceneSpec:
    """Parameters for seeded synthetic paired scenes.

    Pedestrian counts are Poisson per frame; heights are uniform over
    ``height_range`` (which must have positive extent); widths are either
    ``fixed_width`` or ``width_over_height`` times the height. Thermal boxes
    are the visible boxes offset horizontally by a uniform draw from
    ``misalign_range``. ``x_margin`` keeps objects away from the vertical
    image borders so later shifts do not clip them. Neither ``num_frames``
    nor the expected pedestrian count may exceed ``MAX_DRAWS``.
    """

    num_frames: int
    peds_per_frame: float = 2.0
    height_range: tuple[float, float] = (60.0, 120.0)
    width_over_height: float = 0.41
    fixed_width: float | None = None
    misalign_range: tuple[float, float] = (0.0, 0.0)
    image_width: float = 640.0
    image_height: float = 512.0
    x_margin: float = 24.0
    seed: int = 0

    def __post_init__(self):
        # written as "not x >= 0" with finite upper bounds, so NaN and inf are refused too
        if self.num_frames < 0:
            raise ValueError("num_frames must be >= 0")
        if not 0 <= self.peds_per_frame < math.inf:
            raise ValueError("peds_per_frame must be a finite number >= 0")
        if not (self.num_frames <= MAX_DRAWS and self.num_frames * self.peds_per_frame <= MAX_DRAWS):
            raise ValueError(f"more than the limit of {MAX_DRAWS} frames or expected pedestrians")
        if not (0 < self.image_width < math.inf and 0 < self.image_height < math.inf):
            raise ValueError("image dimensions must be finite and positive")
        lo, hi = self.height_range
        if not (0.0 < lo < hi):
            raise ValueError("height_range must satisfy 0 < low < high")
        if not hi < self.image_height:
            raise ValueError("height_range must fit inside the image")
        if self.fixed_width is not None and not 0 < self.fixed_width < math.inf:
            raise ValueError("fixed_width must be finite and positive")
        if not 0 < self.width_over_height < math.inf:
            raise ValueError("width_over_height must be finite and positive")
        # the Box bound, which also keeps the uniform draw's range finite
        if not -1e100 <= self.misalign_range[0] <= self.misalign_range[1] <= 1e100:
            raise ValueError("misalign_range must be (low, high) within ±1e100, low <= high")
        if not 0 <= self.x_margin < math.inf:
            raise ValueError("x_margin must be a finite number >= 0")
        max_width = self.fixed_width if self.fixed_width is not None else self.width_over_height * hi
        if not 2 * self.x_margin + max_width < self.image_width:
            raise ValueError("x_margin leaves no room to place objects")


def _frame_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def generate_scene(spec: SceneSpec) -> GtTable:
    """Generate seeded paired ground truth as the rows of a table of the
    spec's image size; frame ids are 0..num_frames-1, and no object is
    occluded or ignored."""
    rows, offsets = array("d"), [0]
    for f in range(spec.num_frames):
        rng = _frame_rng(spec.seed, f)
        for _ in range(int(rng.poisson(spec.peds_per_frame))):
            h = float(rng.uniform(*spec.height_range))
            w = float(spec.fixed_width) if spec.fixed_width is not None else spec.width_over_height * h
            x = float(rng.uniform(spec.x_margin, spec.image_width - w - spec.x_margin))
            y = float(rng.uniform(0.0, spec.image_height - h))
            dx = float(rng.uniform(*spec.misalign_range))
            # a row is v[0:4], t[4:8]; t is v moved as by Box.translate(dx, 0.0)
            rows.extend((x, y, w, h, x + dx, y + 0.0, w, h))
        offsets.append(len(rows) // 8)
    n = offsets[-1]
    return GtTable(range(spec.num_frames), offsets, np.frombuffer(rows).reshape(n, 8),
                   np.zeros(n, np.int8), np.zeros(n, bool),
                   DatasetMeta(image_width=spec.image_width, image_height=spec.image_height))


# the lowest score a mock detection gets
SCORE_FLOOR = 0.05


@dataclass(frozen=True)
class MockDetectorSpec:
    """Parametric stand-in for a trained detector.

    ``paired`` mode perturbs each modality's box independently around its
    own ground truth (a detector with one regressor per modality);
    ``single_box`` mode perturbs one box around the visible ground truth and
    duplicates it into both modalities (a detector that emits a single box
    per object). Confidence follows
    clamp(1 - perturbation / box_diagonal + noise, SCORE_FLOOR, 1);
    false-positive boxes are Poisson per frame with uniform scores.

    Of the ground truth, both modes read the frame ids, the order of the
    objects and each object's ``ignore`` flag and visible box; only
    ``paired`` mode also reads the thermal box (see :attr:`reads_thermal`).
    """

    mode: str = "paired"
    center_noise_sigma: float = 0.0
    size_noise_sigma: float = 0.0
    miss_prob: float = 0.0
    fp_per_frame: float = 0.0
    score_noise_sigma: float = 0.0
    image_width: float = 640.0
    image_height: float = 512.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("paired", "single_box"):
            raise ValueError("mode must be 'paired' or 'single_box'")
        # written as "not x >= 0" with finite upper bounds, so NaN and inf are refused too
        sigmas = (self.center_noise_sigma, self.size_noise_sigma, self.score_noise_sigma)
        if not all(0 <= s < math.inf for s in sigmas):
            raise ValueError("noise sigmas must be finite numbers >= 0")
        if not 0.0 <= self.miss_prob <= 1.0:
            raise ValueError("miss_prob must lie in [0, 1]")
        if not 0 <= self.fp_per_frame < math.inf:
            raise ValueError("fp_per_frame must be a finite number >= 0")
        if not (0 < self.image_width < math.inf and 0 < self.image_height < math.inf):
            raise ValueError("image dimensions must be finite and positive")

    @property
    def reads_thermal(self) -> bool:
        """Whether the detections depend on the thermal ground truth: only in
        ``paired`` mode. A ``single_box`` detector reads nothing that
        :func:`apply_shift` changes, so it gives one table under every shift."""
        return self.mode == "paired"


def _size_factor(rng: np.random.Generator, sigma: float) -> float:
    """A log-normal size factor of spread ``sigma``; inf past the largest float."""
    try:
        return math.exp(float(rng.normal(0.0, sigma))) if sigma > 0 else 1.0
    except OverflowError:
        return math.inf


def _perturb(box, rng: np.random.Generator, spec: MockDetectorSpec) -> tuple[tuple, float]:
    """Jitter an (x, y, w, h) box; returns the new box and the perturbation
    magnitude (px). An extent too large for a float is inf, which the table
    refuses."""
    x, y, bw, bh = box
    dcx = float(rng.normal(0.0, spec.center_noise_sigma)) if spec.center_noise_sigma > 0 else 0.0
    dcy = float(rng.normal(0.0, spec.center_noise_sigma)) if spec.center_noise_sigma > 0 else 0.0
    sw = _size_factor(rng, spec.size_noise_sigma)
    sh = _size_factor(rng, spec.size_noise_sigma)
    if dcx == 0.0 and dcy == 0.0 and sw == 1.0 and sh == 1.0:
        return tuple(box), 0.0
    w = bw * sw
    h = bh * sh
    cx, cy = x + 0.5 * bw, y + 0.5 * bh
    try:  # a squared extent may pass the largest float
        mag = math.sqrt(dcx * dcx + dcy * dcy + (w - bw) ** 2 + (h - bh) ** 2)
    except OverflowError:
        mag = math.inf
    return (cx + dcx - 0.5 * w, cy + dcy - 0.5 * h, w, h), mag


def _score(mag: float, box, rng: np.random.Generator, spec: MockDetectorSpec) -> float:
    _, _, w, h = box
    diag = math.sqrt(w * w + h * h)
    raw = 1.0 - (mag / diag if diag > 0 else 0.0)
    if spec.score_noise_sigma > 0:
        raw += float(rng.normal(0.0, spec.score_noise_sigma))
    return min(max(raw, SCORE_FLOOR), 1.0)


def _false_positive(rng: np.random.Generator, spec: MockDetectorSpec) -> tuple[tuple, float]:
    h = float(rng.uniform(40.0, min(160.0, spec.image_height)))
    w = 0.41 * h
    x = float(rng.uniform(0.0, max(spec.image_width - w, 1.0)))
    y = float(rng.uniform(0.0, max(spec.image_height - h, 1.0)))
    score = float(rng.uniform(SCORE_FLOOR, 1.0))
    return (x, y, w, h), score


def mock_detect(table: GtTable, spec: MockDetectorSpec) -> DetectionTable:
    """Emit detections for every non-ignored object, plus false positives.

    Per object, a miss is drawn with ``miss_prob``; surviving objects get a
    perturbed detection according to the mode: ``paired`` reads each
    object's visible and thermal boxes, ``single_box`` only its visible box
    (both read the frame ids, object order and ignore flags). Streams are
    keyed by frame position, so results are reproducible for a fixed seed.
    More than ``MAX_DRAWS`` expected false positives are refused, and the
    table refuses a box or score outside its row bounds (an infinite extent
    from a size factor that overflows, say).
    """
    if not len(table.frame_ids) * spec.fp_per_frame <= MAX_DRAWS:
        raise ValueError(f"more than the limit of {MAX_DRAWS} expected false positives")
    visible, thermal, ignore = table.v.tolist(), table.t.tolist(), table.ignore.tolist()
    bounds = table.offsets.tolist()
    offsets, rows = [0], []
    for f, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        rng = _frame_rng(spec.seed, f)
        for i in range(lo, hi):
            if ignore[i] or rng.random() < spec.miss_prob:  # no draw for an ignored object
                continue
            if spec.mode == "paired":
                box_v, mag_v = _perturb(visible[i], rng, spec)
                box_t, mag_t = _perturb(thermal[i], rng, spec)
                mag = 0.5 * (mag_v + mag_t)
            else:
                box_v, mag = _perturb(visible[i], rng, spec)
                box_t = box_v
            score = _score(mag, visible[i], rng, spec)
            rows.append(box_v + box_t + (score,))
        if spec.fp_per_frame > 0:
            for _ in range(int(rng.poisson(spec.fp_per_frame))):
                box, score = _false_positive(rng, spec)
                rows.append(box * 2 + (score,))
        offsets.append(len(rows))
    return DetectionTable(table.frame_ids, offsets,
                          np.array(rows).reshape(-1, DetectionTable.ROW_LO.size))
