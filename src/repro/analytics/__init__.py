"""Analytics task definitions and reference implementations.

The paper (section V) exposes six text-analytics tasks through the
CompressDirect interfaces: *word count*, *sort*, *inverted index*,
*term vector*, *sequence count* and *ranked inverted index*.  This
package defines

* :class:`Task` — the task enumeration shared by every engine,
* the canonical result shapes for each task (plain dictionaries/lists,
  so results from different engines compare with ``==``), and
* :class:`UncompressedAnalytics` — straightforward implementations over
  the raw token streams.  They serve both as the ground truth for
  correctness tests and as the functional core of the
  "GPU-accelerated uncompressed analytics" comparator in section VI-E.

G-TADOC's plans return :class:`~repro.analytics.encoded.EncodedResult`,
the same results as word-id columns that are shaped on integers and
decoded last.
"""

from repro.analytics.base import (
    SEQUENCE_LENGTH_DEFAULT,
    Task,
    TaskResult,
    normalize_result,
    results_equal,
)
from repro.analytics.reference import UncompressedAnalytics

__all__ = [
    "Task",
    "TaskResult",
    "SEQUENCE_LENGTH_DEFAULT",
    "normalize_result",
    "results_equal",
    "UncompressedAnalytics",
]
