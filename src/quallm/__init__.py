"""Forum-archive theme analysis pipeline with an offline evaluation harness."""

__version__ = "0.1.0"
