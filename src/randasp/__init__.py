"""Random negative two-literal logic programs under answer set semantics.

Import each name from the module that defines it: `generate` (the linear
model L(c1, c2)), `programs` and `solver` (semantics and enumeration), `theory`
(closed forms), `experiments` (sweeps), `csvout` (CSV schemas), `progio` (text
format), `translate` (to two-literal form) and `cli` (the commands).
Sampling, search and sweeps run in a C kernel that the system `cc` compiles
on first use; without a C compiler they raise RuntimeError.
"""

# perfbench's set-up probe calls randasp.ExperimentConfig, and perfbench/ is frozen.
from .experiments import ExperimentConfig
