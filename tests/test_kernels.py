"""Argument checks of the numpy kernels; their values are refereed in test_geometry.py."""

import numpy as np
import pytest

from pairbox._kernels import _python


def test_shape_validation():
    with pytest.raises(ValueError):
        _python.iou_matrix(np.zeros((3, 5)), np.zeros((3, 4)))
    with pytest.raises(ValueError):
        _python.iou_elementwise(np.zeros((3, 4)), np.zeros((2, 4)))
