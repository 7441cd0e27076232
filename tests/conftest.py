import os
import sys
import tracemalloc

sys.path.insert(0, os.path.dirname(__file__))


def traced_peak(fn):
    """(peak, result): the most memory tracemalloc saw allocated while `fn()`
    ran, in bytes above what was allocated before it, and what it returned."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result
