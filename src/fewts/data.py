"""Dataset ingestion and episodic task sampling.

UCR-format files are one series per row: class label first, then the
observations, separated by commas, tabs or whitespace (auto-detected).
Series are z-normalized at ingestion and only lengths 4..512 are accepted.
A loaded dataset is one ``DatasetBundle``: its name, its original-train and
original-test pools as ``LabeledSet``s, and one label map over the label
tokens of both files.

A few-shot task is K train samples and K' test samples per class; train
samples come from a dataset's original-train pool and test samples from its
original-test pool, so episodic results stay comparable with conventional
train/test evaluation. Classes with fewer than K samples contribute
everything they have.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, SamplingError

log = logging.getLogger(__name__)

MIN_LENGTH = 4
MAX_LENGTH = 512
STD_FLOOR = 1e-12


@dataclass
class LabeledSet:
    """Labeled series: [n, T] float64 values plus dense labels 0..N-1."""

    values: np.ndarray  # [n, T]
    labels: np.ndarray  # [n]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.values.ndim != 2:
            raise ConfigError(f"values must be [n, T], got ndim={self.values.ndim}")
        if self.values.shape[0] != self.labels.shape[0]:
            raise ConfigError("values and labels disagree on sample count")

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass
class DatasetBundle:
    """One dataset: its original-train and original-test pools, whose dense
    labels index ``label_names``, the label tokens of its files."""

    name: str
    train: LabeledSet
    test: LabeledSet
    label_names: tuple[str, ...]

    def __post_init__(self):
        t = self.train.values.shape[1]
        if self.test.values.shape[1] != t:
            raise ConfigError(f"dataset {self.name!r}: splits have different series lengths")
        if not (MIN_LENGTH <= t <= MAX_LENGTH):
            raise ConfigError(
                f"dataset {self.name!r}: series length {t} outside [{MIN_LENGTH}, {MAX_LENGTH}]"
            )
        if self.n_classes < 2:
            raise ConfigError(f"dataset {self.name!r}: needs at least 2 classes")

    @property
    def n_classes(self) -> int:
        return len(self.label_names)


def znormalize(x: np.ndarray) -> np.ndarray:
    """(x - mean) / population std along the last axis, so one call takes a
    series or an ``[n, T]`` split; constant series (std below 1e-12) map to
    all zeros rather than exploding."""
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean(axis=-1, keepdims=True)
    std = np.sqrt((centered ** 2).mean(axis=-1, keepdims=True))
    return np.divide(centered, std, out=np.zeros_like(x), where=~(std < STD_FLOOR))


def _detect_delimiter(line: str) -> str | None:
    if "\t" in line:
        return "\t"
    if "," in line:
        return ","
    return None  # any whitespace


def _label_sort_key(labels: set[str]):
    # Ties in value ("1", "1.0", "01") break by the token, and NaN tokens,
    # which order against nothing, go after the numbers in token order, so
    # the order does not depend on set iteration order, which varies with
    # the hash seed.
    try:
        as_num = {s: float(s) for s in labels}
    except ValueError:
        return sorted(labels)
    nan = {s for s, v in as_num.items() if math.isnan(v)}
    return sorted(labels - nan, key=lambda s: (as_num[s], s)) + sorted(nan)


def parse_ucr_file(path) -> tuple[np.ndarray, list[str]]:
    """Parse one UCR-format file into its raw (unnormalized) ``[n, T]`` rows
    and each row's label token, the row's first field.

    Errors carry the 1-based line number: ragged rows, non-numeric fields and
    missing values (NaN/inf) are reported distinctly.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read file ({exc})", path=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc})", path=str(path)) from exc

    rows: list[list[float]] = []
    raw_labels: list[str] = []
    delim: str | None = None
    width: int | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if delim is None and not rows:
            delim = _detect_delimiter(line)
        fields = [f for f in (line.split(delim) if delim else line.split()) if f != ""]
        if len(fields) < 2:
            raise ParseError("row has a label but no observations", str(path), lineno)
        label, obs = fields[0].strip(), fields[1:]
        if width is None:
            width = len(obs)
        elif len(obs) != width:
            raise ParseError(
                f"ragged row: {len(obs)} observations, expected {width}", str(path), lineno
            )
        try:
            values = [float(v) for v in obs]
        except ValueError:
            bad = next(v for v in obs if not _is_float(v))
            raise ParseError(f"non-numeric field {bad!r}", str(path), lineno) from None
        if not all(np.isfinite(values)):
            raise ParseError("missing or non-finite value (NaN/inf)", str(path), lineno)
        raw_labels.append(label)
        rows.append(values)

    if not rows:
        raise ParseError("file contains no data rows", path=str(path))
    if not (MIN_LENGTH <= width <= MAX_LENGTH):
        raise ParseError(
            f"series length {width} outside supported range [{MIN_LENGTH}, {MAX_LENGTH}]",
            path=str(path),
        )
    if len(set(raw_labels)) < 2:
        raise ParseError("file contains a single class", path=str(path))
    return np.array(rows), raw_labels


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _find_split_file(root: Path, name: str, tag: str) -> Path:
    candidates = []
    for directory in (root / name, root):
        for ext in (".tsv", ".txt", ".csv", ""):
            candidates.append(directory / f"{name}_{tag}{ext}")
    for c in candidates:
        if c.is_file():
            return c
    raise ParseError(
        f"no {tag} file for dataset {name!r} under {root} "
        f"(tried {', '.join(str(c) for c in candidates)})"
    )


def load_dataset(root, name: str) -> DatasetBundle:
    """Load both splits of a dataset from a UCR archive directory under one
    label map over the union of their label tokens, rows z-normalized."""
    root = Path(root)
    train, train_tokens = parse_ucr_file(_find_split_file(root, name, "TRAIN"))
    test, test_tokens = parse_ucr_file(_find_split_file(root, name, "TEST"))
    names = tuple(_label_sort_key(set(train_tokens) | set(test_tokens)))
    dense = {s: i for i, s in enumerate(names)}

    def pool(values: np.ndarray, tokens: list[str]) -> LabeledSet:
        return LabeledSet(znormalize(values), [dense[s] for s in tokens])

    return DatasetBundle(name, pool(train, train_tokens), pool(test, test_tokens), names)


# ---------------------------------------------------------------------------
# Few-shot tasks
# ---------------------------------------------------------------------------


@dataclass
class FewShotTask:
    """K-shot N-way episode. ``class_ids`` maps task labels back to the
    dataset's dense class ids; ``train_rows``/``test_rows`` are the row
    numbers in the bundle's original-train and original-test pools that the
    task's ``train`` and ``test`` rows were drawn from, in order."""

    dataset: str
    k: int
    k_prime: int
    class_ids: tuple[int, ...]
    train: LabeledSet
    test: LabeledSet
    train_rows: list[int]
    test_rows: list[int]
    seed: int | None = None

    @property
    def n_way(self) -> int:
        return len(self.class_ids)


def task_seed(run_seed: int, dataset: str, index: int) -> int:
    """Stable per-task seed: every method sees the same tasks for a given
    run seed, regardless of evaluation order or platform."""
    digest = hashlib.sha256(f"{run_seed}:{dataset}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _draw_for_class(pool: LabeledSet, label: int, count: int,
                    rng: np.random.Generator) -> list[int]:
    idx = np.flatnonzero(pool.labels == label)
    if idx.size == 0:
        return []
    if idx.size <= count:
        return [int(i) for i in idx]  # small-class rule: take everything
    chosen = rng.choice(idx, size=count, replace=False)
    return sorted(int(i) for i in chosen)


def sample_task(
    bundle: DatasetBundle,
    k: int,
    k_prime: int,
    rng: np.random.Generator,
    classes=None,
    seed: int | None = None,
) -> FewShotTask:
    """Draw one episode: D^tr from the original-train pool and D^te from the
    original-test pool, over ``classes`` (default: every class)."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k_prime < 0:
        raise ConfigError(f"k_prime must be >= 0, got {k_prime}")
    classes = list(range(bundle.n_classes) if classes is None else classes)
    for c in classes:
        if not isinstance(c, (int, np.integer)):
            raise ConfigError(f"class id {c!r} is not an integer")
    class_ids = tuple(sorted(int(c) for c in classes))
    for c, after in zip(class_ids, class_ids[1:]):
        if c == after:
            raise ConfigError(f"class id {c} is repeated")
    if len(class_ids) < 2:
        raise ConfigError("a task needs at least 2 classes")
    if any(not (0 <= c < bundle.n_classes) for c in class_ids):
        raise ConfigError(f"class ids out of range for dataset {bundle.name!r}")

    train_rows: list[int] = []
    test_rows: list[int] = []
    train_labels: list[int] = []
    test_labels: list[int] = []
    for task_label, c in enumerate(class_ids):
        name = bundle.label_names[c]
        tr = _draw_for_class(bundle.train, c, k, rng)
        if not tr:
            raise SamplingError(
                f"dataset {bundle.name!r}: class {name!r} has no original-train samples"
            )
        te = _draw_for_class(bundle.test, c, k_prime, rng) if k_prime else []
        if k_prime and not te:
            raise SamplingError(
                f"dataset {bundle.name!r}: class {name!r} has no original-test samples"
            )
        train_rows += tr
        test_rows += te
        train_labels += [task_label] * len(tr)
        test_labels += [task_label] * len(te)

    return FewShotTask(
        dataset=bundle.name,
        k=k,
        k_prime=k_prime,
        class_ids=class_ids,
        train=LabeledSet(bundle.train.values[train_rows], train_labels),
        test=LabeledSet(bundle.test.values[test_rows], test_labels),
        train_rows=train_rows,
        test_rows=test_rows,
        seed=seed,
    )


def sample_task_seeded(bundle: DatasetBundle, k: int, k_prime: int, seed: int) -> FewShotTask:
    return sample_task(bundle, k, k_prime, np.random.default_rng(seed), seed=seed)


# ---------------------------------------------------------------------------
# Meta-set split manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetaSetSplit:
    train: tuple[str, ...]
    validation: tuple[str, ...]
    test: tuple[str, ...]


def split_meta_sets(manifest_path) -> MetaSetSplit:
    """Read a split manifest: JSON with "train", "validation" and "test"
    dataset-name lists. The three sets must be disjoint; an empty validation
    list is allowed but warned about."""
    path = Path(manifest_path)
    if not path.is_file():
        raise ConfigError(f"split manifest not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: manifest must be a JSON object of dataset-name lists")
    missing = [k for k in ("train", "validation", "test") if k not in raw]
    if missing:
        raise ConfigError(f"{path}: manifest lacks sections {missing}")
    sets = {}
    for key in ("train", "validation", "test"):
        names = raw[key]
        if not isinstance(names, list) or any(not isinstance(n, str) for n in names):
            raise ConfigError(f"{path}: section {key!r} must be a list of dataset names")
        if len(set(names)) != len(names):
            raise ConfigError(f"{path}: section {key!r} lists a dataset twice")
        sets[key] = tuple(names)
    for a, b in (("train", "validation"), ("train", "test"), ("validation", "test")):
        overlap = set(sets[a]) & set(sets[b])
        if overlap:
            raise ConfigError(
                f"{path}: datasets {sorted(overlap)} appear in both {a!r} and {b!r}"
            )
    if not sets["test"]:
        raise ConfigError(f"{path}: test meta-set is empty")
    if not sets["validation"]:
        log.warning("%s: validation meta-set is empty; model selection will be skipped", path)
    return MetaSetSplit(sets["train"], sets["validation"], sets["test"])


# ---------------------------------------------------------------------------
# Task logs: one JSON record per task. A task is re-sampled from its logged
# seed; its [split, row] pairs record which rows it drew, and equal log text
# shows that a re-sampled task is the one logged.
# ---------------------------------------------------------------------------


def task_record(task: FewShotTask) -> dict:
    return {
        "dataset": task.dataset,
        "seed": task.seed,
        "k": task.k,
        "k_prime": task.k_prime,
        "classes": list(task.class_ids),
        "train": [["train", i] for i in task.train_rows],
        "test": [["test", i] for i in task.test_rows],
    }


def format_task_log(tasks) -> str:
    return "".join(json.dumps(task_record(t), sort_keys=True) + "\n" for t in tasks)


def read_jsonl(path, what: str) -> list[dict]:
    """The JSON objects of a one-object-per-line log, skipping blank lines.
    A line that is not a JSON object, such as a torn last line, raises
    ParseError naming the path and line."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"bad {what} log: not UTF-8 text ({exc})", str(path)) from exc
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad {what} ({exc})", str(path), lineno) from exc
        if not isinstance(record, dict):
            raise ParseError(f"bad {what} (not a JSON object)", str(path), lineno)
        records.append(record)
    return records
