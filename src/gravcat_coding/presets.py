"""The names the command line offers: the engines and the built-in figure grids.

This module imports no numpy, so the CLI builds its parser (and answers
``--version`` and ``--help``) without loading the numerical modules.
``coding.ENGINES`` maps these engine names to their functions, and
``sweep.figure_grid`` evaluates a figure preset.
"""

from __future__ import annotations

from dataclasses import dataclass

ENGINE_NAMES = ("closed_form", "numeric")


@dataclass(frozen=True)
class FigurePreset:
    """Axes and fixed values of one built-in figure grid."""

    x: str
    y: str
    fixed: dict[str, float]


FIGURES: dict[str, FigurePreset] = {
    "2a": FigurePreset(x="gamma", y="omega", fixed={"T": 0.01}),
    "2b": FigurePreset(x="gamma", y="omega", fixed={"T": 1.0}),
    "3a": FigurePreset(x="T", y="omega", fixed={"gamma": 1.0}),
    "3b": FigurePreset(x="T", y="omega", fixed={"gamma": 3.0}),
    "4a": FigurePreset(x="T", y="gamma", fixed={"omega": 1.0}),
    "4b": FigurePreset(x="T", y="gamma", fixed={"omega": 2.0}),
    "5a": FigurePreset(x="T", y="p", fixed={"omega": 1.0, "gamma": 1.0}),
    "5b": FigurePreset(x="T", y="p", fixed={"omega": 3.0, "gamma": 3.0}),
    "6a": FigurePreset(x="gamma", y="p", fixed={"T": 0.01, "omega": 1.0}),
    "6b": FigurePreset(x="omega", y="p", fixed={"T": 0.01, "gamma": 1.0}),
}
