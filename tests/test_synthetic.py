import itertools
import warnings

import numpy as np
import pytest

from fewts.errors import ConfigError
from fewts.synthetic import ar_coefficient_domain, sine_frequency_domain, square_duty_domain

from helpers import synthetic_reference

DOMAINS = {"sine": sine_frequency_domain, "square": square_duty_domain,
           "ar": ar_coefficient_domain}


def test_domain_shapes_and_normalization():
    bundle = sine_frequency_domain(seed=0, n_classes=4, length=32,
                                   train_per_class=5, test_per_class=3)
    assert bundle.train.values.shape == (20, 32)
    assert bundle.test.values.shape == (12, 32)
    assert bundle.n_classes == 4
    for row in bundle.train.values:
        assert abs(row.mean()) < 1e-10
        assert abs(((row - row.mean()) ** 2).mean() - 1.0) < 1e-8


def test_domains_are_deterministic():
    a = square_duty_domain(seed=3, n_classes=3, train_per_class=4, test_per_class=4)
    b = square_duty_domain(seed=3, n_classes=3, train_per_class=4, test_per_class=4)
    assert a.train.values.tobytes() == b.train.values.tobytes()
    c = square_duty_domain(seed=4, n_classes=3, train_per_class=4, test_per_class=4)
    assert a.train.values.tobytes() != c.train.values.tobytes()


def test_sine_classes_are_separable_by_frequency():
    # Class c has c+1 cycles; the dominant FFT bin should track the class.
    bundle = sine_frequency_domain(seed=1, n_classes=4, length=64,
                                   train_per_class=8, test_per_class=2, noise=0.1)
    for values, label in zip(bundle.train.values, bundle.train.labels):
        spectrum = np.abs(np.fft.rfft(values))
        spectrum[0] = 0.0
        assert int(np.argmax(spectrum)) == label + 1


def test_ar_domain_distinct_classes():
    bundle = ar_coefficient_domain(seed=2, n_classes=3, length=64,
                                   train_per_class=10, test_per_class=2)
    # Lag-1 autocorrelation should increase with the class coefficient.
    def lag1(values):
        return float(np.mean(values[:-1] * values[1:]))

    means = []
    for c in range(3):
        rows = bundle.train.values[bundle.train.labels == c]
        means.append(np.mean([lag1(r) for r in rows]))
    assert means[0] < means[1] < means[2]


@pytest.mark.parametrize("length", (4, 37, 64, 128, 512))
@pytest.mark.parametrize("family", tuple(DOMAINS))
def test_splits_match_the_per_series_reference_bitwise(family, length):
    # Both splits' values and labels, byte for byte, against the loop that
    # draws and normalizes one series at a time.
    noises = (0.3,) if family == "ar" else (0.3, 1.0)
    cases = itertools.product((0, 11, 2024), (2, 3, 8), noises, ((1, 1), (1, 3), (4, 2)))
    for seed, n_classes, noise, (train_k, test_k) in cases:
        kwargs = {} if family == "ar" else {"noise": noise}
        bundle = DOMAINS[family](seed, n_classes=n_classes, length=length,
                                 train_per_class=train_k, test_per_class=test_k, **kwargs)
        want = synthetic_reference(family, seed, n_classes, length, train_k, test_k, noise)
        got = (bundle.train.values, bundle.train.labels, bundle.test.values, bundle.test.labels)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes(), (seed, n_classes, noise, train_k, test_k)


def test_bad_arguments_rejected(monkeypatch):
    # One check covers every domain, before a generator is built, so before
    # any series is drawn and without numpy's empty-slice warnings.
    def no_generator(seed):
        raise AssertionError("a generator was built before the arguments were checked")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for domain in DOMAINS.values():
            for n_classes in (0, 1):
                with pytest.raises(ConfigError, match=f"need at least 2 classes, got {n_classes}"):
                    domain(seed=0, n_classes=n_classes)
            for length in (0, 3, 513):
                with pytest.raises(ConfigError, match=rf"length {length} outside \[4, 512\]"):
                    domain(seed=0, length=length)
            for name in ("train_per_class", "test_per_class"):
                for count in (0, -2):
                    message = f"{name} must be at least 1, got {count}"
                    with pytest.raises(ConfigError, match=message):
                        domain(seed=0, **{name: count})
