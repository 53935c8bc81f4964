"""Link-level simulator and noncoherent OOK detectors for body-channel
communication with distributed receive nodes.

The package splits into five layers:

* :mod:`bccsim.channels`   -- Burr XII / Weibull amplitude laws, exact
  inverse-transform sampling, and the f1..f9 registry.
* :mod:`bccsim.link`       -- unit conversions, training/data symbols, and
  the per-slot received-signal model.
* :mod:`bccsim.detectors`  -- training statistics, the probability /
  deviation / combination margins, fusion, and the coherent MRC baseline.
* :mod:`bccsim.montecarlo` -- seeded, parallel BER estimation over a
  (power x training length) grid.
* :mod:`bccsim.cli`        -- scenario files, figure presets, CSV output.
"""

import os
import sys

# Nothing in this package calls BLAS, and the worker threads OpenBLAS starts when numpy loads
# only spin: about 0.1 s of CPU per process on a 2-core host.  So numpy is loaded with one
# OpenBLAS thread, unless it is loaded already or the caller chose a count.  The variable is
# removed again, so any subprocess the caller starts gets the caller's environment.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .channels import (
    STRONG_NODES,
    WEAK_NODES,
    BurrXII,
    DistributionSpec,
    NodeProfile,
    Weibull,
    registry_entry,
    registry_name,
    table1_registry,
)
from .config import dumps_scenario, load_scenario, loads_scenario, scenario_to_config
from .detectors import (
    COMBINATION,
    DEVIATION,
    MRC,
    PROBABILITY,
    TECHNIQUES,
    TrainingStats,
    compute_training_stats,
    detect,
    fuse,
    margins,
    mrc_detect,
)
from .errors import ConfigError, DegenerateTrainingError, ParameterError
from .link import (
    ReceivedFrame,
    dbm_to_watts,
    generate_data_symbols,
    generate_received,
    noise_variance,
    training_symbols,
)
from .montecarlo import (
    BerPoint,
    Scenario,
    make_ber_point,
    run_scenario,
)
from .presets import PRESET_NAMES, preset

__version__ = "0.1.0"
