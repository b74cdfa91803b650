"""Baseline compressors the paper evaluates against (Section V).

Every comparator but one is implemented from scratch on the shared
encoding substrates; the GZIP-like baseline is stdlib ``zlib``, since
the paper's GZIP is itself a stock tool:

=============  =========================================================
``sz11``       SZ-1.1 single-dimension curve-fitting predictor [9]
``zfp``        ZFP-like fixed-rate / fixed-accuracy block-transform codec [13]
``isabela``    ISABELA sort + B-spline window compressor [12]
``fpzip``      FPZIP-like lossless Lorenzo-predictive float coder [14]
``gzip_like``  GZIP-like: stdlib ``zlib`` over raw bytes [8]
``numarck``    NUMARCK/SSEM-style vector quantization (related work) [6,16]
=============  =========================================================
"""

from repro.baselines.fpzip import FPZIPLike
from repro.baselines.gzip_like import GzipLike
from repro.baselines.isabela import ISABELA, ISABELAFailure
from repro.baselines.numarck import NumarckLike
from repro.baselines.sz11 import SZ11
from repro.baselines.zfp import ZFPLike

__all__ = [
    "FPZIPLike",
    "GzipLike",
    "ISABELA",
    "ISABELAFailure",
    "NumarckLike",
    "SZ11",
    "ZFPLike",
]
