"""Brute-force oracles for the closed-form inverse sizing in ``telescopic``."""

from morphwheel import InfeasibleError


def _ratio(screw_length: float, n_levels: int, residual: float) -> float:
    return (2.0 * screw_length + residual) / (2.0 * n_levels * screw_length + residual)


def scan_min_screw_length(n_levels: int, residual: float, target_ratio: float,
                          step: float = 0.1, limit: float = 1e4) -> float:
    """First multiple of ``step`` meeting the target."""
    k = 1
    while k * step <= limit:
        s = k * step
        if _ratio(s, n_levels, residual) <= target_ratio:
            return s
        k += 1
    raise InfeasibleError("infeasible: not enough levels for this ratio")


def scan_min_levels(screw_length: float, residual: float, target_ratio: float) -> int:
    """Increment the level count until the check passes."""
    n = 1
    while _ratio(screw_length, n, residual) > target_ratio:
        n += 1
    return n
