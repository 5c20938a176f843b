"""Baseline analyses: Empty, Eraser, Atomizer, and vector-clock races."""

from repro.baselines.atomizer import Atomizer
from repro.baselines.blockbased import BlockBasedChecker
from repro.baselines.empty import EmptyAnalysis
from repro.baselines.eraser import EraserLockSet, VarState
from repro.baselines.lockorder import LockOrderGraph, LockOrderMonitor
from repro.baselines.twophase import TwoPhaseLocking
from repro.baselines.vectorclock import HappensBeforeRaces

__all__ = [
    "Atomizer",
    "BlockBasedChecker",
    "EmptyAnalysis",
    "EraserLockSet",
    "HappensBeforeRaces",
    "LockOrderGraph",
    "LockOrderMonitor",
    "TwoPhaseLocking",
    "VarState",
]
