"""pairbox: paired visible/thermal bounding-box toolkit.

Geometry (multi-modal IoU), paired NMS with a thermal reference, anchor/RoI
assignment over paired boxes, modal-wise regression losses with analytic
gradients, the FPPI/log-average-miss-rate evaluation protocol, and
misalignment simulation with mock detectors.

The names below are loaded on first access, so that ``import pairbox``
alone does not import numpy: ``python -m pairbox`` sets up the environment
numpy reads before it imports any module that needs it.
"""

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "Box",
    "PairedBox",
    "area",
    "intersection_area",
    "iou",
    "iou_multimodal",
    "__version__",
]


def __getattr__(name: str):
    if name == "KERNEL_BACKEND":
        from ._kernels import BACKEND as value
    elif name in __all__:
        from . import geometry

        value = getattr(geometry, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
