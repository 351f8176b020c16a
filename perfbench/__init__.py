"""End-to-end delivery benchmark (see run.py)."""
