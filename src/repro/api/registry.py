"""Pluggable backend registry for the :mod:`repro.api` facade.

Every resolution strategy the library implements — the paper's MaxSAT
pipeline as well as the classical MOCUS/BDD/brute-force/Monte-Carlo baselines
— is exposed as an :class:`AnalysisBackend` registered here under a stable
name.  New strategies plug in with the :func:`register_backend` decorator:

.. code-block:: python

    from repro.api import AnalysisBackend, AnalysisReport, register_backend

    @register_backend(aliases=("my-alias",))
    class MyBackend(AnalysisBackend):
        name = "my-backend"
        CAPABILITIES = frozenset({"mpmcs"})

        def run(self, tree, request):
            report = AnalysisReport(tree=tree, request=request)
            ...  # fill the sections named in request.analyses
            return report

Backends are *classes*; the session instantiates one object per backend per
session, handing it a :class:`BackendContext` with the session's shared
:class:`~repro.api.cache.ArtifactCache` and MaxSAT solver so that expensive
intermediates are computed once regardless of which backend needs them.
Sweeps and monitors analyse many related trees through
:meth:`AnalysisBackend.run_batch`, where a backend can share work across them.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, FrozenSet, Iterable, Iterator, List, Optional
from typing import Tuple, Type, TypeVar, Union, overload

from repro.api.cache import ArtifactCache
from repro.api.report import AnalysisReport, AnalysisRequest
from repro.core.pipeline import MPMCSSolver
from repro.exceptions import AnalysisError, ReproError
from repro.fta.tree import FaultTree
from repro.maxsat.instance import DEFAULT_PRECISION

__all__ = [
    "AnalysisBackend",
    "BackendContext",
    "available_backends",
    "backend_capabilities",
    "backend_class",
    "backends_supporting",
    "canonical_backend_name",
    "create_backend",
    "register_backend",
    "run_each",
]


@dataclass
class BackendContext:
    """Shared per-session state handed to every backend instance."""

    artifacts: ArtifactCache = field(default_factory=ArtifactCache)
    solver: Optional[MPMCSSolver] = None
    precision: int = DEFAULT_PRECISION
    #: The session's resolved kernel suite (:func:`repro.kernels.select`);
    #: ``None`` means each consumer auto-selects.  Typed loosely to keep the
    #: registry import-light.
    kernels: Optional[Any] = None


class AnalysisBackend(abc.ABC):
    """Common protocol implemented by every analysis backend.

    Subclasses set :attr:`name` (the registry key), :attr:`CAPABILITIES`
    (the analysis names they can produce) and implement :meth:`run`, which
    fills the sections of an :class:`AnalysisReport` corresponding to
    ``request.analyses`` — sections outside their capabilities are left
    ``None`` and ignored by the session.
    """

    #: Registry name; must be set by subclasses.
    name: ClassVar[str] = ""
    #: Canonical analysis names this backend can compute.
    CAPABILITIES: ClassVar[FrozenSet[str]] = frozenset()
    #: The analyses for which this backend reads the session cache's
    #: whole-tree cut-set artifact (:data:`~repro.api.cache.ARTIFACT_CUT_SETS`).
    #: The sweep executor pre-seeds that artifact only for these.
    CUT_SET_ANALYSES: ClassVar[FrozenSet[str]] = frozenset()

    def __init__(self, context: Optional[BackendContext] = None) -> None:
        self.context = context if context is not None else BackendContext()

    @classmethod
    def capabilities(cls) -> FrozenSet[str]:
        """The analysis names this backend supports."""
        return cls.CAPABILITIES

    @abc.abstractmethod
    def run(self, tree: FaultTree, request: AnalysisRequest) -> AnalysisReport:
        """Compute the requested analyses and return a (partial) report."""

    def run_batch(
        self, trees: Iterable[FaultTree], request: AnalysisRequest
    ) -> Iterator[Union[AnalysisReport, ReproError]]:
        """Yield one (partial) report per tree, in order; a tree whose
        analysis raises a :class:`ReproError` gets the error as its result.

        The default runs :meth:`run` per tree, lazily: tree *i*'s result is
        produced before tree *i + 1* is analysed.
        """
        return run_each(trees, lambda tree: self.run(tree, request))


T = TypeVar("T")


def run_each(items: Iterable[Any], step: Callable[[Any], T]) -> Iterator[Union[T, ReproError]]:
    """``step(item)`` per item, lazily; a :class:`ReproError` is yielded as
    the item's result instead of raised."""
    for item in items:
        try:
            yield step(item)
        except ReproError as exc:
            yield exc


#: Canonical name -> backend class.
_REGISTRY: Dict[str, Type[AnalysisBackend]] = {}
#: Alias -> canonical name (canonical names map to themselves).
_ALIASES: Dict[str, str] = {}


@overload
def register_backend(cls: Type[AnalysisBackend]) -> Type[AnalysisBackend]: ...


@overload
def register_backend(
    *, name: Optional[str] = None, aliases: Tuple[str, ...] = ()
) -> Callable[[Type[AnalysisBackend]], Type[AnalysisBackend]]: ...


def register_backend(
    cls: Optional[Type[AnalysisBackend]] = None,
    *,
    name: Optional[str] = None,
    aliases: Tuple[str, ...] = (),
) -> Union[Type[AnalysisBackend], Callable[[Type[AnalysisBackend]], Type[AnalysisBackend]]]:
    """Class decorator registering an :class:`AnalysisBackend` implementation.

    Usable bare (``@register_backend``) or with arguments
    (``@register_backend(aliases=("bf",))``).  The registry key is ``name``
    when given, otherwise the class's :attr:`~AnalysisBackend.name` attribute.
    Re-registering a name replaces the previous backend (latest wins), which
    lets applications override a built-in strategy.
    """

    def decorate(backend_cls: Type[AnalysisBackend]) -> Type[AnalysisBackend]:
        key = (name or backend_cls.name or "").strip().lower()
        if not key:
            raise AnalysisError(
                f"backend class {backend_cls.__name__} has no registry name; "
                "set a `name` class attribute or pass name= to register_backend"
            )
        if not backend_cls.CAPABILITIES:
            raise AnalysisError(f"backend {key!r} declares no capabilities")
        backend_cls.name = key
        _REGISTRY[key] = backend_cls
        _ALIASES[key] = key
        for alias in aliases:
            _ALIASES[alias.strip().lower()] = key
        return backend_cls

    if cls is not None:
        return decorate(cls)
    return decorate


def canonical_backend_name(name: str) -> str:
    """Resolve a backend name or alias; raise :class:`AnalysisError` if unknown."""
    key = name.strip().lower()
    try:
        return _ALIASES[key]
    except KeyError as exc:
        raise AnalysisError(
            f"unknown backend {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from exc


def backend_class(name: str) -> Type[AnalysisBackend]:
    """The backend class registered under ``name`` (aliases accepted)."""
    return _REGISTRY[canonical_backend_name(name)]


def create_backend(name: str, context: Optional[BackendContext] = None) -> AnalysisBackend:
    """Instantiate the backend registered under ``name`` with ``context``."""
    return backend_class(name)(context)


def available_backends() -> Dict[str, Type[AnalysisBackend]]:
    """Mapping of canonical backend name to backend class (sorted by name)."""
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}


def backend_capabilities() -> Dict[str, FrozenSet[str]]:
    """Mapping of canonical backend name to its supported analyses."""
    return {name: cls.capabilities() for name, cls in available_backends().items()}


def backends_supporting(analysis: str) -> List[str]:
    """Canonical names of every registered backend supporting ``analysis``."""
    return [
        name for name, cls in available_backends().items() if analysis in cls.capabilities()
    ]
