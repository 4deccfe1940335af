"""Toolkit for entanglement-breaking analysis of composed positive maps.

Submodules:
  linalg    dense complex kernels (eig, partial transpose/trace, realignment)
  choi      Choi-matrix calculus for linear maps
  criteria  entanglement / Schmidt-number criteria and 2-EB certificates
  sdp       small dense SDP solver plus decomposability and EB-split checks
  gaussian  Gaussian channels on covariance data
  catalog   named example maps with exact printed constants
  report    the Report type and the package's one JSON codec
"""

__version__ = "0.1.0"

__all__ = ["linalg", "choi", "criteria", "sdp", "gaussian", "catalog", "report", "errors"]
