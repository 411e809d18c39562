"""Exception types and parameter checks shared across the package."""


class InvalidParametersError(ValueError):
    """A locus or degree parameter combination is out of range."""


class DomainViolationError(ValueError):
    """An input lies outside the set a map is defined on."""


class ResourceLimitError(RuntimeError):
    """A brute-force computation exceeds the configured size cap."""


class InvariantError(RuntimeError):
    """A computed result breaks an identity that holds for every valid input."""


def _is_int(x) -> bool:
    return type(x) is int or (isinstance(x, int) and not isinstance(x, bool))


def check_locus_params(n, a):
    """Require integers (not bools) with n > 0, 0 <= a <= n, and a = n (mod 2)."""
    if not _is_int(n) or not _is_int(a):
        raise InvalidParametersError(f"n and a must be integers, got n={n!r}, a={a!r}")
    if n <= 0 or a < 0 or a > n or (n - a) % 2 != 0:
        raise InvalidParametersError(
            f"need n > 0, 0 <= a <= n and a = n (mod 2), got n={n}, a={a}"
        )


def check_degree_params(n, a, d):
    """Require valid (n, a) and 0 <= d <= (n - a) / 2."""
    check_locus_params(n, a)
    if not _is_int(d) or d < 0 or 2 * d > n - a:
        raise InvalidParametersError(f"degree d={d!r} out of range for n={n}, a={a}")
