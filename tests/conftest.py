import os
import sys
from pathlib import Path

# one BLAS thread, as perfbench runs, unless the caller chose a count; set
# before any test module imports numpy, which reads these once
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# make tests/util.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))
