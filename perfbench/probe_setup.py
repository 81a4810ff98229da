"""Set-up probe: import corrleak, load a scenario and build its WiretapAnalyzer.

Usage::

    python3 perfbench/probe_setup.py SCENARIO

The benchmark times this process from spawn to exit as ``setup_s``: the
fixed cost every analyzer-backed command pays before its first result.
"""

import sys

from corrleak.cli import load_scenario
from corrleak.leakage import WiretapAnalyzer
from corrleak.seqmodel import build_model
from corrleak.swcodec import PartitionScheme

if __name__ == "__main__":
    scenario = load_scenario(sys.argv[1])
    WiretapAnalyzer(PartitionScheme.from_json(scenario["scheme"]), build_model(scenario["model"]))
