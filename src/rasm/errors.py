"""Exception hierarchy for the rasm runtime.

Every error carries a short machine-readable ``code`` (stable strings used by
tests and by the CLI when mapping failures to exit codes) plus a human message.
"""


class RasmError(Exception):
    """Base class for all runtime errors."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class TreeAlgebraError(RasmError):
    """Violated precondition of a tree/context/hedge operation."""


class EvalError(RasmError):
    """Term or rule evaluation failure (unbound variable, bad guard, ...)."""


class EncodingError(RasmError):
    """A tree does not encode what it claims to encode.

    ``code`` is 'malformed-encoding' or 'malformed-program-tree'; ``path`` is
    the child-index path of the offending node when known.
    """

    def __init__(self, code: str, message: str, path: tuple = ()):
        super().__init__(code, f"{message} (at node path {'.'.join(map(str, path)) or 'root'})")
        self.path = path


class MachineError(RasmError):
    """Step-level failure: signature shrinkage, invalid signature update."""


class DiffError(RasmError):
    """Tree difference failure: the new tree's signature drops an old symbol (signature-shrunk)."""


class ParseError(RasmError):
    """Syntax error with position and the token set that was expected."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        detail = f"line {line}, column {column}: {message}"
        if expected:
            detail += " (expected " + " | ".join(sorted(expected)) + ")"
        super().__init__("syntax-error", detail)
        self.line = line
        self.column = column
        self.expected = tuple(sorted(expected))
