"""Shared exception types."""


class ValidationError(ValueError):
    """Bad configuration, shapes, labels or flag values."""


class DataFormatError(Exception):
    """Corrupt or truncated on-disk data (bad magic, short payload, ...)."""
