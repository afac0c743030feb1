"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: configuration and
validity-window problems exit with code 2, anything else with code 1.
"""


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


class ValidityWindowError(ValueError):
    """A bound was evaluated outside the hypothesis of its formula."""


class CapExceededError(RuntimeError):
    """A configured resource guard (qubit count, enumeration size) was hit.

    ``finished`` is what the raising call completed before the guard
    tripped, when it hands any on (``simulate_expectation``'s finished
    levels), else None.
    """

    finished = None
