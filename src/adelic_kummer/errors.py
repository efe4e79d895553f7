"""Exception hierarchy shared across the package.

Every domain error derives from AdelicError and carries a stable ``code``
string so the CLI can emit machine-readable error objects.  Malformed
input is a plain ValueError instead; ``json_value`` raises one that names
the field whose JSON value has the wrong type.
"""

_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def json_value(value, kind: type, name: str):
    """``value`` if its type is exactly ``kind``, one of the JSON types
    dict, list, str and int (so ``True`` is not an integer, and a missing
    field read as None is rejected); otherwise a ValueError naming ``name``."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


class AdelicError(Exception):
    """Base class for domain errors."""

    code = "AdelicError"

    def __init__(self, message=""):
        super().__init__(message or self.code)


class NotARootOfUnity(AdelicError):
    code = "NotARootOfUnity"


class ZeroInput(AdelicError):
    code = "ZeroInput"


class ZeroValuation(AdelicError):
    code = "ZeroValuation"


class ZeroInverse(AdelicError):
    code = "ZeroInverse"


class PrecisionExhausted(AdelicError):
    code = "PrecisionExhausted"


class NotAUnit(AdelicError):
    code = "NotAUnit"


class ZeroComponent(AdelicError):
    code = "ZeroComponent"


class ZeroParameter(AdelicError):
    code = "ZeroParameter"


class IncompatibleStructure(AdelicError):
    code = "IncompatibleStructure"


class UnramifiedPoint(AdelicError):
    code = "UnramifiedPoint"


class NotGalois(AdelicError):
    code = "NotGalois"


class NotTransitive(AdelicError):
    code = "NotTransitive"


class NotEquivalent(AdelicError):
    code = "NotEquivalent"


class NotAdmissible(AdelicError):
    code = "NotAdmissible"


class PthPower(AdelicError):
    code = "PthPower"


class CheckFailed(AdelicError):
    """A cross-check of a paper identity failed: a fault of the program,
    not of its input."""

    code = "CheckFailed"
