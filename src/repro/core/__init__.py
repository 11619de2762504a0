"""Hyper-Q: the paper's contribution — the ETL virtualization gateway.

The gateway listens for legacy-protocol connections and serves them against
the CDW (Figure 2).  Component map from the paper to this package:

==================  =====================================================
Paper component     Module
==================  =====================================================
Alpha + Coalescer   :mod:`repro.core.gateway` (accept loop) +
                    :class:`repro.legacy.protocol.Coalescer`
PXC (protocol       :mod:`repro.core.gateway` dispatch +
cross compiler)     :mod:`repro.sqlxc` (SQL cross compilation)
DataConverter       :mod:`repro.core.converter`
FileWriter          :mod:`repro.core.filewriter`
CreditManager       :mod:`repro.core.credits`
cloud integration   :mod:`repro.core.pipeline` (upload + COPY INTO)
Beta                :mod:`repro.core.beta`
TDFCursor           :mod:`repro.core.tdfcursor` (pre-encoded export chunks)
error handling      :mod:`repro.core.errorhandling`
==================  =====================================================
"""

from repro.core.config import HyperQConfig
from repro.core.credits import CreditManager
from repro.core.gateway import HyperQNode
from repro.core.metrics import JobMetrics

__all__ = ["HyperQConfig", "CreditManager", "HyperQNode", "JobMetrics"]
