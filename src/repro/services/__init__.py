"""The simulated web-service world.

This package is the substrate the paper assumes: services described by
functional category and QoS, providers that publish (and sometimes
exaggerate) advertisements, consumers that invoke services and file
feedback, SLAs with third-party supervision, monitoring sensors and
explorer agents, and the "general service" indirection of the paper's
mediated-selection scenario (Figure 1B).
"""

from repro.services.qos import (
    DEFAULT_METRICS,
    Direction,
    MetricDef,
    QoSCategory,
    QoSProfile,
    QoSTaxonomy,
    default_metrics,
    metric,
    random_profile,
    w3c_taxonomy,
)
from repro.services.description import QoSAdvertisement, ServiceDescription
from repro.services.provider import (
    DegradingBehavior,
    ExaggerationPolicy,
    ImprovingBehavior,
    OscillatingBehavior,
    Provider,
    QualityBehavior,
    Service,
    StaticBehavior,
    TruthTable,
)
from repro.services.consumer import (
    Consumer,
    PreferenceProfile,
    RatingStrategy,
    honest_rating_strategy,
)
from repro.services.invocation import InvocationEngine
from repro.services.ontology import MetricAlias, MetricVocabulary
from repro.services.sla import SLA, SLAMonitor, SLAViolation, negotiate_sla
from repro.services.monitoring import (
    ExplorerAgentPool,
    MonitoringReport,
    SensorDeployment,
    ThirdPartyMonitor,
)
from repro.services.general import (
    GeneralService,
    IntermediaryService,
    MediatedOutcome,
)

__all__ = [
    "Consumer",
    "DEFAULT_METRICS",
    "DegradingBehavior",
    "Direction",
    "ExaggerationPolicy",
    "ExplorerAgentPool",
    "GeneralService",
    "ImprovingBehavior",
    "IntermediaryService",
    "InvocationEngine",
    "MediatedOutcome",
    "MetricAlias",
    "MetricDef",
    "MetricVocabulary",
    "MonitoringReport",
    "OscillatingBehavior",
    "PreferenceProfile",
    "Provider",
    "QoSAdvertisement",
    "QoSCategory",
    "QoSProfile",
    "QoSTaxonomy",
    "QualityBehavior",
    "RatingStrategy",
    "SLA",
    "SLAMonitor",
    "SLAViolation",
    "SensorDeployment",
    "Service",
    "ServiceDescription",
    "StaticBehavior",
    "ThirdPartyMonitor",
    "TruthTable",
    "default_metrics",
    "honest_rating_strategy",
    "metric",
    "negotiate_sla",
    "random_profile",
    "w3c_taxonomy",
]
