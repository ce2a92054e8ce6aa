"""Trust and reputation models — the leaves of the paper's Figure 4.

Every module implements one surveyed system on the common
:class:`~repro.models.base.ReputationModel` interface, declaring its
position in the three-criterion typology.  The model registry in
:mod:`repro.core.registry` collects them so the Figure 4 tree can be
rebuilt programmatically.
"""

from repro.models.base import ReputationModel
from repro.models.beta import BetaReputation
from repro.models.ebay import EbayModel
from repro.models.sporas import SporasModel
from repro.models.histos import HistosModel
from repro.models.pagerank import PageRankModel
from repro.models.amazon import AmazonModel
from repro.models.epinions import EpinionsModel
from repro.models.collaborative import (
    CollaborativeFilteringModel,
    Similarity,
)
from repro.models.yu_singh import YuSinghModel, dempster_combine
from repro.models.yolum_singh import YolumSinghModel
from repro.models.wang_vassileva import WangVassilevaModel
from repro.models.xrep import XRepModel
from repro.models.socialnetwork import SocialNetworkModel
from repro.models.aberer import AbererDespotovicModel
from repro.models.peertrust import CredibilityMeasure, PeerTrustModel
from repro.models.eigentrust import DistributedEigenTrust, EigenTrustModel
from repro.models.maximilien_singh import MaximilienSinghModel
from repro.models.liu_ngu_zeng import LiuNguZengModel
from repro.models.day import DayExpertSystem, DayNaiveBayes, Rule
from repro.models.provider_backoff import ProviderBackoffModel
from repro.models.subjective_logic import SubjectiveLogicModel
from repro.models.vu_aberer import VuAbererModel

__all__ = [
    "AbererDespotovicModel",
    "AmazonModel",
    "BetaReputation",
    "CollaborativeFilteringModel",
    "CredibilityMeasure",
    "DayExpertSystem",
    "DayNaiveBayes",
    "DistributedEigenTrust",
    "EbayModel",
    "EigenTrustModel",
    "EpinionsModel",
    "HistosModel",
    "LiuNguZengModel",
    "MaximilienSinghModel",
    "PageRankModel",
    "PeerTrustModel",
    "ProviderBackoffModel",
    "ReputationModel",
    "Rule",
    "Similarity",
    "SocialNetworkModel",
    "SporasModel",
    "SubjectiveLogicModel",
    "VuAbererModel",
    "WangVassilevaModel",
    "XRepModel",
    "YolumSinghModel",
    "YuSinghModel",
    "dempster_combine",
]
