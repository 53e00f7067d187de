"""Exception types shared across modules."""


class CheckpointMismatch(RuntimeError):
    """Resume attempted from a missing or unreadable checkpoint, or one written
    by a different config."""


class InternalCheckError(RuntimeError):
    """A built-in cross check failed; indicates a bug, not bad input."""
