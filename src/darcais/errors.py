"""Exception types shared across the package, and the one refusal of a size past its cap."""


class DarcaisError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(DarcaisError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class TableExhaustedError(DarcaisError, LookupError):
    """A table-backed arithmetic function was queried beyond its last entry."""


def require_at_most(quantity: str, value: int, cap: int, kind: str = "memory") -> None:
    """Refuse ``value`` past ``cap``.  Each cap is a constant beside the
    function whose allocation (or time) it bounds, checked at its entry
    before anything of that size is built."""
    if value > cap:
        raise DomainError(f"{quantity} is at most {cap} ({kind} cap), got {value}")


def read_at_most(quantity: str, path: str, cap: int) -> bytearray:
    """The bytes of the file at ``path``, refused past ``cap`` (a memory cap)
    before any of them is parsed.  At most cap + 1 bytes are read, in chunks
    of at most 1 MiB, so a stream such as /dev/zero is refused as well."""
    data = bytearray()
    with open(path, "rb") as fh:
        while len(data) <= cap and (chunk := fh.read(min(cap + 1 - len(data), 1 << 20))):
            data += chunk
    require_at_most(quantity, len(data), cap)
    return data
