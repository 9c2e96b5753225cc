"""Policy-gradient training with a weaning-weighted prior value baseline,
plus exact tabular oracles for verifying unbiasedness and variance
reduction."""

__version__ = "0.1.0"
