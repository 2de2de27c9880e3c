"""Problem-file loading and validation.

A problem file is JSON with a versioned schema: a dilation, variable
names, named function literals, optional switched-system definitions
referencing those functions, and optional Lyapunov candidate references.
Function literals come in two forms: a list of generalized-monomial
terms, or a coefficient-vector object keyed by "degree:index"; both are
parsed into generalized polynomials.  See docs/schema.md for the full
contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .homog_core import Dilation, GeneralizedPolynomial, _known_keys
from .stp_poly import CoeffVecPolynomial
from .switched_systems import SwitchedSystem

SCHEMA_VERSION = 1


class ProblemError(ValueError):
    """The problem file is missing, malformed, or inconsistent."""


def parse_function(n: int, spec) -> GeneralizedPolynomial:
    """One function literal: a term list or a {"coeffs": {...}} object."""
    if isinstance(spec, list):
        return GeneralizedPolynomial.from_json_terms(n, spec)
    if isinstance(spec, dict) and isinstance(spec.get("coeffs"), dict):
        _known_keys(spec, ("coeffs",), "coeffs literal", ProblemError)
        return CoeffVecPolynomial.from_json(n, spec["coeffs"]).to_generalized()
    raise ProblemError(
        "function literal must be a term list or a {'coeffs': {...}} object"
    )


def _section(raw: dict, key: str) -> dict:
    """The object under `key` of the problem file; {} when it is absent
    or null."""
    value = raw.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ProblemError(f"'{key}' must be a JSON object")
    return value


def _reference(functions: dict, ref, owner: str) -> GeneralizedPolynomial:
    """The function that `owner` names by `ref`."""
    if not isinstance(ref, str) or ref not in functions:
        raise ProblemError(f"{owner} references unknown function {ref!r}")
    return functions[ref]


@dataclass
class Problem:
    path: Path
    version: int
    dilation: Dilation
    variables: tuple
    functions: dict
    systems: dict = field(default_factory=dict)
    lyapunov: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.variables)

    def function(self, name: str) -> GeneralizedPolynomial:
        if name not in self.functions:
            raise ProblemError(f"problem defines no function named '{name}'")
        return self.functions[name]

    def pair(self) -> tuple[GeneralizedPolynomial, GeneralizedPolynomial]:
        """The canonical (f, g) pair."""
        return self.function("f"), self.function("g")

    def single_system(self) -> tuple[str, SwitchedSystem]:
        if len(self.systems) != 1:
            raise ProblemError(
                f"expected exactly one system, found {len(self.systems)}"
            )
        return next(iter(self.systems.items()))

    def first_lyapunov(self) -> tuple[str, GeneralizedPolynomial]:
        if not self.lyapunov:
            raise ProblemError("problem defines no Lyapunov candidate")
        return next(iter(self.lyapunov.items()))


def load_problem(path) -> Problem:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ProblemError(f"problem file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ProblemError(f"problem file is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ProblemError("problem file must contain a JSON object")
    _known_keys(raw, ("version", "variables", "dilation", "functions", "systems", "lyapunov"),
               "problem file", ProblemError)

    version = raw.get("version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ProblemError(
            f"unrecognized schema version {version!r}; this build reads "
            f"version {SCHEMA_VERSION}"
        )

    variables = raw.get("variables")
    if not isinstance(variables, list) or not variables:
        raise ProblemError("'variables' must be a nonempty list of names")
    n = len(variables)
    if not all(isinstance(v, str) and v for v in variables) or len(set(variables)) != n:
        raise ProblemError("'variables' must be distinct, nonempty strings")

    dspec = _section(raw, "dilation")
    _known_keys(dspec, ("weights", "l"), "'dilation'", ProblemError)
    weights = dspec.get("weights", [1.0] * n)
    if not isinstance(weights, list) or len(weights) != n:
        raise ProblemError("dilation weights must be a list as long as 'variables'")
    l = dspec.get("l", 2.0)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (*weights, l)):
        raise ProblemError("bad dilation: weights and l must be numbers")
    try:
        dilation = Dilation(tuple(float(w) for w in weights), float(l))
    except (ValueError, OverflowError) as e:
        raise ProblemError(f"bad dilation: {e}") from None

    functions = {}
    for name, spec in _section(raw, "functions").items():
        try:
            functions[name] = parse_function(n, spec)
        except (ValueError, TypeError, LookupError, OverflowError) as e:
            raise ProblemError(f"bad function '{name}': {e}") from None

    systems = {}
    for name, spec in _section(raw, "systems").items():
        flds = spec.get("fields") if isinstance(spec, dict) else None
        if not isinstance(flds, list) or not flds:
            raise ProblemError(f"system '{name}' needs a 'fields' list")
        _known_keys(spec, ("fields",), f"system '{name}'", ProblemError)
        resolved = []
        for comps in flds:
            if not isinstance(comps, list) or len(comps) != n:
                raise ProblemError(
                    f"system '{name}': each subsystem needs {n} components"
                )
            resolved.append([_reference(functions, ref, f"system '{name}'")
                             for ref in comps])
        try:
            systems[name] = SwitchedSystem(resolved)
        except ValueError as e:
            raise ProblemError(f"bad system '{name}': {e}") from None

    lyapunov = {name: _reference(functions, ref, f"Lyapunov candidate '{name}'")
                for name, ref in _section(raw, "lyapunov").items()}

    return Problem(
        path=path,
        version=version,
        dilation=dilation,
        variables=tuple(variables),
        functions=functions,
        systems=systems,
        lyapunov=lyapunov,
    )
