"""The repository benchmark's harness: workloads, timing wrappers, spans.

Everything here runs *outside* ``src/repro``: the workloads drive the
public API, and the traced mode wraps calls into each layer with timing
subclasses (see :mod:`benchlib.wrappers`) rather than instrumenting the
package itself. ``perfbench/run.py`` is the command-line entry point.
"""
