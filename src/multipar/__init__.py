"""multipar: multi-parallel corpus construction and MT evaluation toolkit."""

__version__ = "0.1.0"
