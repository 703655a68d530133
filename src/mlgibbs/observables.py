"""Named observables whose expectations the estimators target.

Observables are vectorized maps from (..., d) position arrays to (...) values.
The named ones carry an ``_obs_code`` attribute so the reference oracle can
use closed-form moments or radial quadrature for them.  Arbitrary callables
are accepted too; for them the oracle integrates in one dimension and runs a
long chain otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .potentials import _sum_sq

__all__ = ["coordinate", "euclidean_norm", "squared_norm", "parse_observable"]

# observable codes, read by the reference oracle
OBS_COORD = 0
OBS_NORM = 1
OBS_NORM2 = 2
OBS_NORM4 = 3  # internal, used by pilot moment estimation


def coordinate(k: int):
    """Observable x -> x[k]."""

    def f(x):
        return np.asarray(x)[..., k]

    f._obs_code = (OBS_COORD, int(k))
    f.__name__ = f"coordinate_{k}"
    return f


def euclidean_norm(x):
    """Observable x -> |x|."""
    return np.sqrt(_sum_sq(np.asarray(x)))


euclidean_norm._obs_code = (OBS_NORM, 0)


def squared_norm(x):
    """Observable x -> |x|^2."""
    return _sum_sq(np.asarray(x))


squared_norm._obs_code = (OBS_NORM2, 0)


def fourth_norm(x):
    """Observable x -> |x|^4."""
    s = _sum_sq(np.asarray(x))
    return s * s


fourth_norm._obs_code = (OBS_NORM4, 0)


def _ascii_int(text: str):
    """The integer that text spells in ASCII digits alone, else None; int()
    would also take signs, spaces, underscores and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # more digits than int() converts from a string
        return None


def parse_observable(spec: str, dim: int):
    """Resolve an observable name from a config: coord:k, norm or norm2."""

    if not isinstance(spec, str):
        raise ConfigError(f"observable f must be a string, got {spec!r}", field="f")
    if spec == "norm":
        return euclidean_norm
    if spec == "norm2":
        return squared_norm
    if spec.startswith("coord:"):
        k = _ascii_int(spec[len("coord:"):])
        if k is None:
            raise ConfigError(f"malformed observable {spec!r}", field="f")
        if k >= dim:
            raise ConfigError(
                f"coordinate index {k} out of range for dim={dim}", field="f"
            )
        return coordinate(k)
    raise ConfigError(
        f"unknown observable {spec!r}; expected coord:k, norm or norm2", field="f"
    )


def obs_code(f):
    """Oracle code of a named observable, or None for a generic callable."""
    code = getattr(f, "_obs_code", None)
    if code is None:
        return None
    kind, k = code
    return int(kind), int(k)
