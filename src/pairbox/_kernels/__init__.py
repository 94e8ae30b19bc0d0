"""The numpy kernels behind ``pairbox.geometry`` and ``pairbox.pairnms``.

``BACKEND`` names the implementation and is always ``"python"``; it is
exported as ``pairbox.KERNEL_BACKEND``.
"""

from ._python import ioum_elementwise, ioum_matrix, iou_elementwise, iou_matrix, nms_keep

BACKEND = "python"

__all__ = [
    "BACKEND",
    "iou_matrix",
    "ioum_matrix",
    "iou_elementwise",
    "ioum_elementwise",
    "nms_keep",
]
