"""Configuration model for the multi-tenant query service.

Two frozen dataclasses describe a deployment:

* :class:`TenantConfig` — one tenant's governance contract: a
  :class:`~repro.engine.limits.QueryBudget` template (every budget field a
  tenant-wide default, overlayable per request) plus the admission knobs
  ``max_concurrency`` (evaluations in flight) and ``max_queue`` (requests
  parked waiting for a slot before the service answers 429).
* :class:`ServerConfig` — the service itself: bind address, executor
  sizing and the tenant roster.  ``port=0`` binds an ephemeral port (the
  bound address is reported once the server starts — tests and the CI
  smoke job rely on it).

Budget *overlay* semantics (:meth:`TenantConfig.overlay`): a request may
only ever **tighten** its tenant's template — each numeric field resolves
to the minimum of the tenant value and the request value (either may be
unset), so no client escapes its governance contract by asking nicely.
``on_limit`` is the exception: it selects failure *shape* (typed error vs
truncated result), not resource ceilings, so the request value wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from ..engine.limits import ON_LIMIT_POLICIES, QueryBudget

__all__ = ["ServerConfig", "TenantConfig", "DEFAULT_TENANT"]

#: Name of the tenant requests fall back to when they name none.
DEFAULT_TENANT = "public"

#: Budget fields a request may overlay (all tighten-only).
_BUDGET_FIELDS = (
    "deadline_ms",
    "max_work",
    "max_bindings",
    "max_result_nodes",
    "max_hashjoin_rows",
)


def _tighter(a: Optional[float], b: Optional[float]) -> Optional[float]:
    """The stricter of two optional limits (``None`` = unlimited)."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's governance contract (budget template + admission caps)."""

    name: str
    max_concurrency: int = 8
    max_queue: int = 16
    deadline_ms: Optional[float] = None
    max_work: Optional[int] = None
    max_bindings: Optional[int] = None
    max_result_nodes: Optional[int] = None
    max_hashjoin_rows: Optional[int] = None
    on_limit: str = "raise"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {self.max_concurrency}"
            )
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.on_limit not in ON_LIMIT_POLICIES:
            raise ValueError(
                f"unknown on_limit policy {self.on_limit!r}; "
                f"expected one of {ON_LIMIT_POLICIES}"
            )

    def budget_template(self) -> Optional[QueryBudget]:
        """The tenant-wide budget, or ``None`` when every field is unset."""
        values = {name: getattr(self, name) for name in _BUDGET_FIELDS}
        if all(value is None for value in values.values()):
            return None
        return QueryBudget(on_limit=self.on_limit, **values)

    def overlay(self, request: Mapping[str, Any]) -> Optional[QueryBudget]:
        """The effective budget for one request: template tightened.

        ``request`` holds the (already type-checked) per-request budget
        fields; unknown keys are the caller's problem — this method reads
        only the known budget fields plus ``on_limit``.  Returns ``None``
        when neither side sets any ceiling, so unlimited tenants stay
        genuinely unbudgeted (an ``ExecOptions`` with ``budget=None`` is
        ungoverned).
        """
        values = {
            name: _tighter(getattr(self, name), request.get(name))
            for name in _BUDGET_FIELDS
        }
        if all(value is None for value in values.values()):
            return None
        on_limit = request.get("on_limit") or self.on_limit
        return QueryBudget(on_limit=on_limit, **values)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TenantConfig":
        """Build from a JSON-ish mapping, rejecting unknown keys loudly."""
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown tenant config keys: {unknown}")
        return cls(**dict(data))

    @classmethod
    def from_spec(cls, spec: str) -> "TenantConfig":
        """Parse a CLI spec: ``NAME[,key=value]...``.

        Example: ``analytics,max_concurrency=2,max_queue=4,deadline_ms=100``.
        Integer fields parse as ``int``, ``deadline_ms`` as ``float``,
        ``on_limit`` as text.
        """
        head, _, rest = spec.partition(",")
        name = head.strip()
        data: dict[str, Any] = {"name": name}
        if rest:
            for item in rest.split(","):
                key, sep, raw = item.partition("=")
                key = key.strip()
                if not sep or not key:
                    raise ValueError(
                        f"tenant spec items must be key=value, got {item!r}"
                    )
                if key == "on_limit":
                    data[key] = raw.strip()
                elif key == "deadline_ms":
                    data[key] = float(raw)
                else:
                    data[key] = int(raw)
        return cls.from_dict(data)


@dataclass(frozen=True)
class ServerConfig:
    """Service-level settings: bind address, executor sizing, tenants."""

    host: str = "127.0.0.1"
    port: int = 8601
    max_workers: int = 8
    default_tenant: str = DEFAULT_TENANT
    tenants: tuple[TenantConfig, ...] = field(default_factory=tuple)
    #: Seconds an idle keep-alive connection is held open, and seconds a
    #: begun request has to arrive in full before it is answered 408.
    idle_timeout_s: float = 60.0
    #: Hard cap on a request body (bytes); oversized requests get 413.
    max_body_bytes: int = 8 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be positive")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be positive")
        names = [tenant.name for tenant in self.tenants]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate tenant names in config: {sorted(names)}")

    def tenant_roster(self) -> tuple[TenantConfig, ...]:
        """The configured tenants plus an auto-created default tenant.

        The default tenant (requests that name none) is always present;
        an explicit entry under :attr:`default_tenant` overrides the
        auto-created unlimited-budget one.
        """
        if any(tenant.name == self.default_tenant for tenant in self.tenants):
            return self.tenants
        return (*self.tenants, TenantConfig(name=self.default_tenant))
