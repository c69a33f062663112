"""Program start-up probe, run in a fresh interpreter.

Times `import thames.cli` and then the first `thames()` call in the
process, on a small fixed array, and prints both as one JSON line.
"""

import json
import time

t0 = time.perf_counter()
import thames.cli  # noqa: E402

t1 = time.perf_counter()
import numpy as np  # noqa: E402

draws = np.random.default_rng(0).standard_normal((2000, 10))
log_post = -0.5 * np.sum(draws ** 2, axis=1)
t2 = time.perf_counter()
thames.cli.thames(draws, log_post)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "warmup_s": t3 - t2}))
