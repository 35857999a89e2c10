"""Plain-Python frontend: unannotated functions become programs.

The paper's headline promise is that "the programmer interacts with
ActivePy using a high-level, interpreted, general-purpose programming
language and is entirely agnostic to the presence of any CSD".  This
package delivers that interface for the simulator: hand
:func:`program_from_function` an ordinary Python function and it

* splits the body into top-level statements (the paper's one line = one
  single-entry-single-exit region),
* runs a liveness analysis so each line's output is exactly the set of
  variables later lines still need,
* wraps every line as an executable kernel over a shared namespace, and
* derives per-line cost models from the code itself (operation counts)
  plus an empirical probe run.
"""

from .liveness import live_after_each, names_read, names_written
from .tracer import FrontendError, program_from_function

__all__ = [
    "FrontendError",
    "live_after_each",
    "names_read",
    "names_written",
    "program_from_function",
]
