"""Noise-robust multimodal survival prediction on paired CT/PET volumes.

Desk-scale pipeline: per-modality encoders with learnable codebook
quantization, patch-wise bidirectional cross-attention fusion plus a
channel/spatial attention path on the continuous features, and a
discrete-time competing-risks hazard head.  Everything runs on the
float64 reverse-mode autodiff core in `robsurv.autodiff`.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
