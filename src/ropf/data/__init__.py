"""Bundled case files."""

from importlib import resources

from ..netmodel import NetworkCase, parse_case

__all__ = ["case_text", "load_case"]


def case_text() -> str:
    """Raw text of the bundled IEEE 14-bus case file."""
    return resources.files(__package__).joinpath("ieee14.case").read_text(encoding="utf-8")


def load_case() -> NetworkCase:
    """Parse the bundled IEEE 14-bus case file."""
    return parse_case(case_text())
