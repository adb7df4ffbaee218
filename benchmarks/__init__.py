"""The perf gates that read a clock (see ``benchmarks/timing.py``)."""
