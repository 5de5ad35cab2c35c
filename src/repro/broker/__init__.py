"""On-demand measurement broker: the multi-tenant probe-request plane.

See :mod:`repro.broker.broker` for the architecture overview.
"""

from repro.broker.admission import AdmissionConfig
from repro.broker.broker import BrokerConfig, MeasurementBroker
from repro.broker.quota import TenantAccount, TenantQuota
from repro.broker.requests import (
    DETAIL_CAP,
    RequestState,
    ResultChannel,
    TERMINAL_STATES,
)

__all__ = [
    "AdmissionConfig",
    "BrokerConfig",
    "DETAIL_CAP",
    "MeasurementBroker",
    "RequestState",
    "ResultChannel",
    "TERMINAL_STATES",
    "TenantAccount",
    "TenantQuota",
]
