"""Kernel backend selection.

The compiled extension is preferred when importable; otherwise the
pure-numpy fallback is used. Both implement identical contracts and return
bit-identical results, so the choice only affects speed.
"""

from . import _python

try:
    from . import _native as _impl  # type: ignore[no-redef]

    BACKEND = "native"
except ImportError:
    _impl = _python
    BACKEND = "python"

iou_matrix = _impl.iou_matrix
ioum_matrix = _impl.ioum_matrix
iou_elementwise = _impl.iou_elementwise
ioum_elementwise = _impl.ioum_elementwise
nms_keep = _impl.nms_keep

__all__ = [
    "BACKEND",
    "iou_matrix",
    "ioum_matrix",
    "iou_elementwise",
    "ioum_elementwise",
    "nms_keep",
]
