"""Grid search (non-feedback baseline, e.g. [32, 49] in the paper).

Enumerates a stratified grid over the design space and strides through it
so the evaluation budget covers the whole grid rather than a corner: grid
enumeration varies the last axes fastest, so naive truncation would fix the
leading parameters at their first grid value.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.arch.design_space import DesignPoint
from repro.optim.base import BaselineOptimizer
from repro.optim.protocol import Proposal

__all__ = ["GridSearch"]


class GridSearch(BaselineOptimizer):
    """Strided stratified grid search."""

    name = "grid"

    def __init__(self, *args, points_per_axis: int = 3, **kwargs):
        super().__init__(*args, **kwargs)
        if points_per_axis < 1:
            raise ValueError("points_per_axis must be >= 1")
        self.points_per_axis = points_per_axis

    def _propose(self, initial_point: Optional[DesignPoint]):
        # No loop budget check: the grid is bounded, and the ask budget
        # gate terminates the walk.  Strided points are decoded directly,
        # so a campaign costs O(budget), not O(grid size).
        axes = self.space.grid_axes(self.points_per_axis)
        total = math.prod(len(axis) for axis in axes)
        stride = max(1, total // self.max_evaluations)
        for index in range(0, total, stride):
            yield Proposal(self.space.grid_point(axes, index), "grid")
