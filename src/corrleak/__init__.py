"""Exact information-leakage analysis for correlated sources over an
eavesdropped noiseless channel: a syndrome-partition codec, leakage bounds
and curves, and one-time-pad cipher rate regions, all evaluated by exact
enumeration at desk scale."""

__version__ = "0.1.0"
