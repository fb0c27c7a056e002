"""Socially aware multi-agent trajectory forecasting.

An LSTM encoder-decoder in which every hidden-state update is filtered
through a learnable spatial domain over neighbouring pedestrians, with an
optional temporal attention stage and an adversarial wrapper for multimodal
futures. Built on a self-contained float64 reverse-mode autodiff tape.

``import scantraj`` loads the forecasting core: ``autodiff``, ``geometry``,
``spatial``, ``temporal``, ``cells``, ``model``, ``generative``, ``data``,
``metrics``, ``training`` and the error classes. ``plots`` and ``cli`` load
on first use (``scantraj.plots``, ``from scantraj import cli``), so a
process that neither draws nor parses a command line never compiles them.
"""

import importlib

__version__ = "0.1.0"

from . import autodiff, geometry, spatial, temporal, cells, model, generative
from . import data, metrics, training  # noqa: F401
from .errors import ShapeError, DataError, NumericError, EmptyMetricError  # noqa: F401

_ON_FIRST_USE = ("plots", "cli")


def __getattr__(name: str):
    if name in _ON_FIRST_USE:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_ON_FIRST_USE))
