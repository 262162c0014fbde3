"""The KBC benchmark of record (see README.md; entry point ``run.py``)."""
