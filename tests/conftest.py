import pytest

from spectrace import estimators


class _RecordingGenerator:
    """A level generator that records the shape of every uniform block it draws."""

    def __init__(self, rng, level, blocks):
        self._rng, self._level, self._blocks = rng, level, blocks

    def random(self, size):
        self._blocks.append((self._level, size))
        return self._rng.random(size)


@pytest.fixture
def level_draws(monkeypatch):
    """(level, (subsets, n)) of every uniform block ``level_spectra`` draws."""
    blocks = []
    real = estimators.rng_from

    def recording(seed, level, *tags):
        return _RecordingGenerator(real(seed, level, *tags), level, blocks)

    monkeypatch.setattr(estimators, "rng_from", recording)
    return blocks
