"""twostream: a from-scratch sequence/video action classification toolkit.

Two streams — recurrent networks over skeleton joint tracks and a 3D convnet
over video clips — trained with exact hand-written backpropagation, then
combined by confidence voting or by feature concatenation into a linear SVM.

Use it through its modules (`twostream.harness.train`,
`twostream.recurrent.init_gru_cell`, ...). Importing the package itself only
sets the BLAS thread default below, and loads no numpy.
"""

import os
import sys

from .parallel import BLAS_THREAD_VARIABLES

# One BLAS thread per process unless the caller set a count: independent
# chunks and trainings then fork onto every usable core (twostream.parallel),
# which beats BLAS threads on these small matrices. OpenBLAS reads the
# variable only when numpy loads, so a caller that loaded numpy first keeps
# its threads, and `parallel.blas_threads` counts them.
if "numpy" not in sys.modules and not any(os.environ.get(v) for v in BLAS_THREAD_VARIABLES):
    os.environ[BLAS_THREAD_VARIABLES[0]] = "1"

__version__ = "0.1.0"
