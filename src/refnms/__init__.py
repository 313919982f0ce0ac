"""Expression-aware detection proposal filtering.

A lightweight relatedness model scores pre-extracted detection features
against a referring expression; the product of relatedness and detection
confidence drives greedy NMS and proposal selection, and a recall harness
measures how often the referent and its contextual objects survive.
"""

__version__ = "0.1.0"

DETECTION_DUMP_VERSION = 1
CHECKPOINT_VERSION = 3
