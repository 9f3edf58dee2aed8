"""The sampled-path container.

A :class:`SampledPath` is a path observed at strictly increasing times,
linearly interpolated in between, together with a ``kind`` tag.  Its values
are one path, shape ``(n,)``, or a batch of paths on the same times, shape
``(paths, n)``; every check applies to every row.  The kinds are:

* ``"oBm"`` — ordinary Brownian motion,
* ``"fBm"`` — fractional Brownian motion,
* ``"LevyfBm"`` — the one-sided moving-average variant,
* ``"derived"`` — anything computed from other paths (drifts, inversions).

Paths of kind ``fBm``/``LevyfBm`` are pinned to zero at time 0: whenever the
observation times contain ``t = 0`` the stored value there must be exactly
``0.0`` in every row.  Artifacts on disk use the CLI's path document, not
this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = ["PATH_KINDS", "SampledPath"]

PATH_KINDS = ("oBm", "fBm", "LevyfBm", "derived")

_ANCHORED_KINDS = ("fBm", "LevyfBm")


@dataclass(frozen=True)
class SampledPath:
    """A path, or a batch of paths, observed at arbitrary strictly increasing times.

    The workhorse container for *past* observation windows, where long-memory
    kernels want geometrically spaced observations reaching far into the
    past.  ``values`` has shape ``(n,)`` for one path or ``(paths, n)`` for a
    batch sharing ``times``; the linear operators of :mod:`fbmkit.drift`
    apply to a whole batch in one matrix product.  Values between
    observations are linearly interpolated.
    """

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    kind: str = "derived"

    def __post_init__(self) -> None:
        if self.kind not in PATH_KINDS:
            raise ValidationError(
                f"kind must be one of {PATH_KINDS}, got {self.kind!r}"
            )
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValidationError("times must be a non-empty 1-d array")
        if values.ndim not in (1, 2) or values.shape[-1] != times.size or values.size == 0:
            raise ValidationError(
                "values must have shape (n,) or (paths, n) matching the n times"
            )
        if np.any(np.diff(times) <= 0):
            raise ValidationError("times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValidationError("times and values must be finite")
        times = times.copy()
        values = values.copy()
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if self.kind in _ANCHORED_KINDS:
            at_zero = np.nonzero(times == 0.0)[0]
            if at_zero.size and np.any(values[..., at_zero] != 0.0):
                raise ValidationError(
                    f"{self.kind} paths are pinned to 0 at t=0"
                )

    @property
    def n(self) -> int:
        return int(self.times.size)

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def value_at(self, t):
        """Linear interpolation inside the observation span (vectorized).

        For a batch the result has a leading ``paths`` axis.
        """
        t_arr = np.asarray(t, dtype=float)
        eps = 1.0e-9 * max(abs(self.t0), abs(self.t_end), 1.0)
        if np.any(t_arr < self.t0 - eps) or np.any(t_arr > self.t_end + eps):
            raise ValidationError(
                f"time(s) outside observation span [{self.t0}, {self.t_end}]"
            )
        if self.values.ndim == 1:
            out = np.interp(t_arr, self.times, self.values)
        else:
            out = np.stack([np.interp(t_arr, self.times, row) for row in self.values])
        if out.ndim == 0:
            return float(out)
        return out
